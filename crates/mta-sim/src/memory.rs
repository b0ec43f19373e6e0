//! The flat shared memory with full/empty-bit synchronization and
//! `int_fetch_add`.
//!
//! Addresses are in *words* (the MTA is word-oriented; the paper's codes
//! index `int` arrays). A bump allocator carves arrays out of the space.
//! Logical-to-physical hashing (§2.2) exists on the real machine to avoid
//! stride hotspots; since the simulator models a uniform-latency memory
//! with no banks, hashing has no observable effect and is omitted — which
//! is precisely the paper's point that layout is irrelevant on the MTA.
//!
//! The image is two zero-initialised arrays: `values`, one `i64` a word,
//! and `empty`, a bitset with one bit a word where a set bit means
//! *empty*. Ordinary memory is full, so zero is the state a fresh image
//! starts in; both arrays come from zeroed allocations, and the pages of
//! slack no kernel allocates or touches are never committed.
//!
//! Reached by: every MTA suite cell (through [`crate::machine`]).

use archgraph_core::RunConfig;

use crate::fault::FaultPlan;

/// Counters of memory traffic by operation class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Ordinary loads.
    pub loads: u64,
    /// Ordinary stores.
    pub stores: u64,
    /// Successful synchronous operations (readfe/writeef/readff).
    pub sync_ops: u64,
    /// Synchronous operations that found the wrong tag state and must
    /// retry.
    pub sync_retries: u64,
    /// `int_fetch_add` operations.
    pub fetch_adds: u64,
}

/// The shared memory of a simulated MTA system.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Each word's 64 data bits.
    values: Vec<i64>,
    /// Each word's full/empty tag, bit `addr & 63` of `empty[addr >> 6]`;
    /// set means empty.
    empty: Vec<u64>,
    next_free: usize,
    /// Traffic counters.
    pub counters: MemCounters,
    /// Active fault-injection plan, if any. Stuck full/empty bits apply
    /// inside the sync operations here; the issue loop consults the pure
    /// per-address latency/wakeup helpers.
    fault: Option<FaultPlan>,
}

impl Memory {
    /// A memory of `capacity` words, all full-of-zero, under the fault
    /// plan of the run scope ([`RunConfig::current`]).
    pub fn new(capacity: usize) -> Self {
        Memory {
            values: vec![0; capacity],
            empty: vec![0; capacity.div_ceil(64)],
            next_free: 0,
            counters: MemCounters::default(),
            fault: RunConfig::current().faults,
        }
    }

    /// Install (or clear) a fault plan on a bare memory. Machines take
    /// theirs from the run scope; this stays for the frozen `benchmarks/`
    /// package's direct `Memory` probe and goes when a `benchmark` PR thaws
    /// that tree.
    ///
    /// Reached by: frozen benchmarks/src (`probes.rs`), until ROADMAP 11(b).
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The active fault plan, if any.
    #[cfg(test)]
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Total extra completion latency (thirds) for a memory op by
    /// processor `proc` on `addr`, issued at `issue_at` with base
    /// latency `latency`, under the active fault plan: the address-keyed
    /// spike plus the structural degraded-link and brownout axes. Zero
    /// without a plan (DESIGN.md §8).
    #[inline]
    pub fn fault_mem_extra(&self, proc: usize, addr: usize, issue_at: u64, latency: u64) -> u64 {
        match &self.fault {
            None => 0,
            Some(p) => p.extra_mem_latency(proc, addr, issue_at, latency),
        }
    }

    /// The first time ≥ `t` at which processor `proc` may issue under the
    /// active fault plan's stall windows; `t` itself without a plan.
    #[inline]
    pub fn fault_stall_adjust(&self, proc: usize, t: u64) -> u64 {
        match &self.fault {
            None => t,
            Some(p) => p.stall_adjust(proc, t),
        }
    }

    /// Extra retry delay (thirds) a failed sync op on `addr` suffers
    /// under the active fault plan. Zero without a plan.
    #[inline]
    pub fn fault_wake_delay(&self, addr: usize) -> u64 {
        match &self.fault {
            None => 0,
            Some(p) => p.extra_wake_delay(addr),
        }
    }

    /// The tag state forced on `addr` by a stuck-bit fault, if any.
    #[inline]
    fn stuck_tag(&self, addr: usize) -> Option<bool> {
        match &self.fault {
            None => None,
            Some(p) => p.stuck_tag(addr),
        }
    }

    /// `addr`'s tag word and bit. Indexes `values` first, so an address
    /// past the image panics as a value access does, even inside the last
    /// tag word.
    #[inline]
    fn tag_bit(&self, addr: usize) -> (usize, u64) {
        let _ = &self.values[addr];
        (addr >> 6, 1 << (addr & 63))
    }

    /// Set `addr`'s stored tag.
    #[inline]
    fn set_tag(&mut self, addr: usize, full: bool) {
        let (word, bit) = self.tag_bit(addr);
        if full {
            self.empty[word] &= !bit;
        } else {
            self.empty[word] |= bit;
        }
    }

    /// Fill the tags of `base..base + len`, writing only those that are
    /// empty, so a fresh range's tag pages stay untouched.
    fn fill_tags(&mut self, base: usize, len: usize) {
        for addr in base..base + len {
            if !self.is_full(addr) {
                self.set_tag(addr, true);
            }
        }
    }

    /// The full/empty state a synchronizing op would observe at `addr`,
    /// including stuck-bit faults. Host-side (no counters) — this is what
    /// the deadlock detector probes.
    #[inline]
    pub fn effective_full(&self, addr: usize) -> bool {
        let full = self.is_full(addr);
        self.stuck_tag(addr).unwrap_or(full)
    }

    /// Bump-allocate `len` words; returns the base word address.
    /// Panics when memory is exhausted.
    pub fn alloc(&mut self, len: usize) -> usize {
        let base = self.next_free;
        assert!(
            base + len <= self.values.len(),
            "simulated memory exhausted: need {len} words at {base}, capacity {}",
            self.values.len()
        );
        self.next_free += len;
        base
    }

    /// Copy a host slice into simulated memory at `base` (words full).
    pub fn load_slice(&mut self, base: usize, values: &[i64]) {
        self.values[base..base + values.len()].copy_from_slice(values);
        self.fill_tags(base, values.len());
    }

    /// Allocate and initialize from a host slice in one step.
    pub fn alloc_init(&mut self, values: &[i64]) -> usize {
        let base = self.alloc(values.len());
        self.load_slice(base, values);
        base
    }

    /// Allocate `len` words all set to `value`.
    ///
    /// Reached by: frozen benchmarks/src (`cells.rs`), until ROADMAP 11(b).
    pub fn alloc_fill(&mut self, len: usize, value: i64) -> usize {
        let base = self.alloc(len);
        self.values[base..base + len].fill(value);
        self.fill_tags(base, len);
        base
    }

    /// Read a word's value without simulation side effects (host-side
    /// inspection of results).
    pub fn peek(&self, addr: usize) -> i64 {
        self.values[addr]
    }

    /// Copy `len` words out to the host starting at `base`.
    pub fn peek_slice(&self, base: usize, len: usize) -> Vec<i64> {
        self.values[base..base + len].to_vec()
    }

    /// Host-side write without side effects.
    pub fn poke(&mut self, addr: usize, value: i64) {
        self.values[addr] = value;
    }

    /// Host-side tag inspection.
    ///
    /// Reached by: the sync and fuzz tests in `crates/mta-sim/tests`.
    pub fn is_full(&self, addr: usize) -> bool {
        let (word, bit) = self.tag_bit(addr);
        self.empty[word] & bit == 0
    }

    /// Host-side: mark a word empty (e.g. to initialize a sync variable).
    ///
    /// Reached by: the sync, guardrail and fuzz tests in
    /// `crates/mta-sim/tests`.
    pub fn set_empty(&mut self, addr: usize) {
        self.set_tag(addr, false);
    }

    // --- simulated operations (update counters) ---

    /// Ordinary load: ignores the full/empty bit.
    #[inline]
    pub fn load(&mut self, addr: usize) -> i64 {
        self.counters.loads += 1;
        self.values[addr]
    }

    /// Ordinary store: ignores and does not change the full/empty bit.
    #[inline]
    pub fn store(&mut self, addr: usize, value: i64) {
        self.counters.stores += 1;
        self.values[addr] = value;
    }

    /// Synchronous read-and-empty: succeeds only on a full word, leaving
    /// it empty. `None` means the issuing stream must retry. A stuck tag
    /// fault pins the observed state (and the bit cannot be cleared).
    pub fn readfe(&mut self, addr: usize) -> Option<i64> {
        let full = self.is_full(addr);
        let stuck = self.stuck_tag(addr);
        if stuck.unwrap_or(full) {
            if stuck.is_none() {
                self.set_tag(addr, false);
            }
            self.counters.sync_ops += 1;
            Some(self.values[addr])
        } else {
            self.counters.sync_retries += 1;
            None
        }
    }

    /// Synchronous write-and-fill: succeeds only on an empty word, leaving
    /// it full. `false` means retry. A stuck-empty fault lets the write
    /// through but the bit stays empty; a stuck-full fault blocks forever.
    pub fn writeef(&mut self, addr: usize, value: i64) -> bool {
        let full = self.is_full(addr);
        let stuck = self.stuck_tag(addr);
        if !stuck.unwrap_or(full) {
            if stuck.is_none() {
                self.set_tag(addr, true);
            }
            self.values[addr] = value;
            self.counters.sync_ops += 1;
            true
        } else {
            self.counters.sync_retries += 1;
            false
        }
    }

    /// Synchronous read-when-full (does not empty). `None` means retry.
    pub fn readff(&mut self, addr: usize) -> Option<i64> {
        let full = self.is_full(addr);
        let stuck = self.stuck_tag(addr);
        if stuck.unwrap_or(full) {
            self.counters.sync_ops += 1;
            Some(self.values[addr])
        } else {
            self.counters.sync_retries += 1;
            None
        }
    }

    /// Atomic fetch-and-add at memory; returns the *old* value. One cycle
    /// on the real machine; the engine charges it like a memory op.
    #[inline]
    pub fn int_fetch_add(&mut self, addr: usize, delta: i64) -> i64 {
        self.counters.fetch_adds += 1;
        let w = &mut self.values[addr];
        let old = *w;
        *w = old.wrapping_add(delta);
        old
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::fault::with_fault_plan;

    #[test]
    fn alloc_is_disjoint() {
        let mut m = Memory::new(100);
        let a = m.alloc(10);
        let b = m.alloc(20);
        assert_eq!(a, 0);
        assert_eq!(b, 10);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_overflow_panics() {
        let mut m = Memory::new(8);
        m.alloc(9);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut m = Memory::new(4);
        m.store(2, 42);
        assert_eq!(m.load(2), 42);
        assert_eq!(m.counters.loads, 1);
        assert_eq!(m.counters.stores, 1);
    }

    #[test]
    fn init_helpers() {
        let mut m = Memory::new(16);
        let a = m.alloc_init(&[1, 2, 3]);
        assert_eq!(m.peek_slice(a, 3), vec![1, 2, 3]);
        let b = m.alloc_fill(4, -1);
        assert_eq!(m.peek_slice(b, 4), vec![-1; 4]);
    }

    #[test]
    fn readfe_empties_then_blocks() {
        let mut m = Memory::new(2);
        m.store(0, 5);
        assert_eq!(m.readfe(0), Some(5));
        assert!(!m.is_full(0));
        assert_eq!(m.readfe(0), None, "now empty: retry");
        assert_eq!(m.counters.sync_retries, 1);
    }

    #[test]
    fn writeef_fills_then_blocks() {
        let mut m = Memory::new(1);
        m.set_empty(0);
        assert!(m.writeef(0, 9));
        assert!(m.is_full(0));
        assert!(!m.writeef(0, 10), "full: retry");
        assert_eq!(m.peek(0), 9);
    }

    #[test]
    fn readff_waits_for_full_without_emptying() {
        let mut m = Memory::new(1);
        m.set_empty(0);
        assert_eq!(m.readff(0), None);
        assert!(m.writeef(0, 3));
        assert_eq!(m.readff(0), Some(3));
        assert!(m.is_full(0), "readff leaves the word full");
    }

    #[test]
    fn producer_consumer_handshake() {
        // The classic FEB pattern: consumer readfe's a slot the producer
        // writeef's, alternating ownership.
        let mut m = Memory::new(1);
        m.set_empty(0);
        assert_eq!(m.readfe(0), None, "nothing produced yet");
        assert!(m.writeef(0, 1));
        assert_eq!(m.readfe(0), Some(1));
        assert!(m.writeef(0, 2));
        assert_eq!(m.readfe(0), Some(2));
        assert_eq!(m.counters.sync_ops, 4);
    }

    #[test]
    fn fetch_add_returns_old_and_accumulates() {
        let mut m = Memory::new(1);
        assert_eq!(m.int_fetch_add(0, 1), 0);
        assert_eq!(m.int_fetch_add(0, 1), 1);
        assert_eq!(m.int_fetch_add(0, 5), 2);
        assert_eq!(m.peek(0), 7);
        assert_eq!(m.counters.fetch_adds, 3);
    }

    #[test]
    fn fetch_add_wraps_safely() {
        let mut m = Memory::new(1);
        m.poke(0, i64::MAX);
        assert_eq!(m.int_fetch_add(0, 1), i64::MAX);
        assert_eq!(m.peek(0), i64::MIN);
    }

    #[test]
    fn stuck_bits_pin_the_observed_tag() {
        // rate=0 affects every address.
        let plan = FaultPlan::parse("stuck-empty,rate=0:1").unwrap();
        let mut m = with_fault_plan(Some(plan), || Memory::new(4));
        assert_eq!(m.readfe(0), None, "stuck empty: consumers starve");
        assert!(!m.effective_full(0));
        assert!(m.writeef(0, 7), "stuck empty: writes pass through");
        assert!(!m.effective_full(0), "but the observed tag never fills");
        assert_eq!(m.readfe(0), None, "so a consumer still starves");
        assert_eq!(m.peek(0), 7);

        let plan = FaultPlan::parse("stuck-full,rate=0:1").unwrap();
        let mut m = with_fault_plan(Some(plan), || Memory::new(4));
        m.poke(0, 9);
        assert_eq!(m.readfe(0), Some(9));
        assert!(m.is_full(0), "stuck full: readfe cannot empty the word");
        assert_eq!(m.readfe(0), Some(9), "so it keeps succeeding");
        assert!(!m.writeef(0, 1), "stuck full: producers starve");
        assert!(m.effective_full(0));
    }

    /// One host-side or simulated operation of the model property.
    #[derive(Debug, Clone)]
    enum Op {
        Alloc(usize),
        AllocInit(Vec<i64>),
        AllocFill(usize, i64),
        Load(usize),
        Store(usize, i64),
        ReadFE(usize),
        WriteEF(usize, i64),
        ReadFF(usize),
        FetchAdd(usize, i64),
        Poke(usize, i64),
        PeekSlice(usize, usize),
        SetEmpty(usize),
        IsFull(usize),
        EffectiveFull(usize),
    }

    /// What an operation returned (`alloc*` return their base as a value).
    #[derive(Debug, PartialEq)]
    enum Ret {
        Unit,
        Value(i64),
        Sync(Option<i64>),
        Flag(bool),
        Slice(Vec<i64>),
    }

    /// The model property's capacity: not a multiple of 64, so the last
    /// tag word is partial.
    const CAP: usize = 130;

    /// The plans the model property runs under: none, and half the words
    /// stuck full or stuck empty.
    const PLANS: [Option<&str>; 3] = [
        None,
        Some("stuck-full,rate=1:5"),
        Some("stuck-empty,rate=1:5"),
    ];

    fn set<T>(slot: &mut T, v: T) -> Ret {
        *slot = v;
        Ret::Unit
    }

    /// The reference image: one `(value, full)` pair a word, the layout
    /// the bitset replaced. `stuck` is the plan's forced tag. The
    /// property's loop models `alloc*`.
    fn model(
        w: &mut [(i64, bool)],
        c: &mut MemCounters,
        stuck: impl Fn(usize) -> Option<bool>,
        op: &Op,
    ) -> Ret {
        match *op {
            Op::Load(_) => c.loads += 1,
            Op::Store(..) => c.stores += 1,
            Op::FetchAdd(..) => c.fetch_adds += 1,
            _ => {}
        }
        match *op {
            Op::Load(a) => Ret::Value(w[a].0),
            Op::Store(a, v) | Op::Poke(a, v) => set(&mut w[a].0, v),
            Op::FetchAdd(a, d) => {
                let old = w[a].0;
                set(&mut w[a].0, old.wrapping_add(d));
                Ret::Value(old)
            }
            Op::PeekSlice(b, n) => Ret::Slice(w[b..b + n].iter().map(|x| x.0).collect()),
            Op::SetEmpty(a) => set(&mut w[a].1, false),
            Op::IsFull(a) => Ret::Flag(w[a].1),
            Op::EffectiveFull(a) => Ret::Flag(stuck(a).unwrap_or(w[a].1)),
            Op::ReadFE(a) | Op::ReadFF(a) | Op::WriteEF(a, _) => {
                let writes = matches!(op, Op::WriteEF(..));
                let ok = stuck(a).unwrap_or(w[a].1) != writes;
                c.sync_ops += u64::from(ok);
                c.sync_retries += u64::from(!ok);
                match *op {
                    Op::WriteEF(_, v) if ok => w[a] = (v, w[a].1 || stuck(a).is_none()),
                    Op::ReadFE(_) if ok => w[a].1 &= stuck(a).is_some(),
                    _ => {}
                }
                if writes {
                    Ret::Flag(ok)
                } else {
                    Ret::Sync(ok.then_some(w[a].0))
                }
            }
            _ => unreachable!("the property's loop models alloc"),
        }
    }

    /// `op` on the real image.
    fn real(m: &mut Memory, op: &Op) -> Ret {
        match *op {
            Op::Alloc(n) => Ret::Value(m.alloc(n) as i64),
            Op::AllocInit(ref vals) => Ret::Value(m.alloc_init(vals) as i64),
            Op::AllocFill(n, v) => Ret::Value(m.alloc_fill(n, v) as i64),
            Op::Load(a) => Ret::Value(m.load(a)),
            Op::Store(a, v) => {
                m.store(a, v);
                Ret::Unit
            }
            Op::ReadFE(a) => Ret::Sync(m.readfe(a)),
            Op::WriteEF(a, v) => Ret::Flag(m.writeef(a, v)),
            Op::ReadFF(a) => Ret::Sync(m.readff(a)),
            Op::FetchAdd(a, d) => Ret::Value(m.int_fetch_add(a, d)),
            Op::Poke(a, v) => {
                m.poke(a, v);
                Ret::Unit
            }
            Op::PeekSlice(b, n) => Ret::Slice(m.peek_slice(b, n)),
            Op::SetEmpty(a) => {
                m.set_empty(a);
                Ret::Unit
            }
            Op::IsFull(a) => Ret::Flag(m.is_full(a)),
            Op::EffectiveFull(a) => Ret::Flag(m.effective_full(a)),
        }
    }

    fn memory_under(plan: Option<&str>) -> Memory {
        let plan = plan.map(|p| FaultPlan::parse(p).unwrap());
        with_fault_plan(plan, || Memory::new(CAP))
    }

    /// Addresses, leaning on the tag-word edges 63 | 64 and the last word.
    fn addr() -> impl Strategy<Value = usize> {
        prop_oneof![
            0..CAP,
            0..CAP,
            prop_oneof![Just(63), Just(64), Just(CAP - 1)]
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..24).prop_map(Op::Alloc),
            proptest::collection::vec(-9i64..9, 0..24).prop_map(Op::AllocInit),
            (0usize..24, -9i64..9).prop_map(|(n, v)| Op::AllocFill(n, v)),
            addr().prop_map(Op::Load),
            (addr(), any::<i64>()).prop_map(|(a, v)| Op::Store(a, v)),
            addr().prop_map(Op::ReadFE),
            (addr(), any::<i64>()).prop_map(|(a, v)| Op::WriteEF(a, v)),
            addr().prop_map(Op::ReadFF),
            (addr(), any::<i64>()).prop_map(|(a, d)| Op::FetchAdd(a, d)),
            (addr(), any::<i64>()).prop_map(|(a, v)| Op::Poke(a, v)),
            (addr(), 0usize..9).prop_map(|(a, n)| Op::PeekSlice(a, n.min(CAP - a))),
            addr().prop_map(Op::SetEmpty),
            addr().prop_map(Op::IsFull),
            addr().prop_map(Op::EffectiveFull),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random op sequences return, count and leave in the image
        /// exactly what the tagged-word model does, under no plan and
        /// with half the words stuck full or stuck empty.
        #[test]
        fn image_matches_the_tagged_word_model(
            ops in proptest::collection::vec(op(), 1..120),
            plan in 0usize..3,
        ) {
            let mut m = memory_under(PLANS[plan]);
            let fault = PLANS[plan].map(|p| FaultPlan::parse(p).unwrap());
            let stuck = |a: usize| fault.as_ref().and_then(|p| p.stuck_tag(a));
            let (mut w, mut c, mut next) = (vec![(0i64, true); CAP], MemCounters::default(), 0);
            for op in &ops {
                let len = match *op {
                    Op::Alloc(n) | Op::AllocFill(n, _) => n,
                    Op::AllocInit(ref vals) => vals.len(),
                    _ => 0,
                };
                if next + len > CAP {
                    continue;
                }
                let want = match *op {
                    Op::Alloc(_) => Ret::Value(next as i64),
                    Op::AllocInit(ref vals) => {
                        w[next..].iter_mut().zip(vals).for_each(|(x, &v)| *x = (v, true));
                        Ret::Value(next as i64)
                    }
                    Op::AllocFill(n, v) => {
                        w[next..next + n].fill((v, true));
                        Ret::Value(next as i64)
                    }
                    _ => model(&mut w, &mut c, stuck, op),
                };
                next += len;
                prop_assert_eq!(real(&mut m, op), want, "{:?}", op);
                prop_assert_eq!(m.counters, c, "counters after {:?}", op);
                prop_assert_eq!(m.peek_slice(0, CAP), w.iter().map(|x| x.0).collect::<Vec<_>>());
                let tags: Vec<bool> = (0..CAP).map(|a| m.is_full(a)).collect();
                prop_assert_eq!(tags, w.iter().map(|x| x.1).collect::<Vec<_>>(), "tags after {:?}", op);
            }
        }
    }

    /// An address past the image panics on every op, including those
    /// that land inside the last, partial tag word (130..192 here).
    #[test]
    fn out_of_range_addresses_still_panic() {
        for plan in PLANS {
            for a in [CAP, CAP + 1, 191, 192] {
                let ops = [
                    Op::Load(a),
                    Op::Store(a, 1),
                    Op::ReadFE(a),
                    Op::WriteEF(a, 1),
                    Op::ReadFF(a),
                    Op::FetchAdd(a, 1),
                    Op::Poke(a, 1),
                    Op::PeekSlice(a, 1),
                    Op::SetEmpty(a),
                    Op::IsFull(a),
                    Op::EffectiveFull(a),
                ];
                for op in ops {
                    let mut m = memory_under(plan);
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        real(&mut m, &op)
                    }));
                    assert!(
                        out.is_err(),
                        "{op:?} at capacity {CAP} under {plan:?} did not panic"
                    );
                }
            }
        }
    }
}
