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
//! Reached by: every MTA suite cell (through [`crate::machine`]).

use archgraph_core::RunConfig;

use crate::fault::FaultPlan;
use crate::word::Word;

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

impl MemCounters {
    /// Total word-traffic (each op moves one word).
    pub fn total_ops(&self) -> u64 {
        self.loads + self.stores + self.sync_ops + self.fetch_adds
    }
}

/// The shared memory of a simulated MTA system.
#[derive(Debug, Clone)]
pub struct Memory {
    words: Vec<Word>,
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
            words: vec![Word::default(); capacity],
            next_free: 0,
            counters: MemCounters::default(),
            fault: RunConfig::current().faults,
        }
    }

    /// Install (or clear) a fault plan on a bare memory. Machines take
    /// theirs from the run scope; this stays for the frozen `benchmarks/`
    /// package's direct `Memory` probe and goes when a `benchmark` PR thaws
    /// that tree.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Extra completion latency (thirds) a memory op on `addr` suffers
    /// under the active fault plan. Zero without a plan.
    #[inline]
    pub fn fault_extra_latency(&self, addr: usize) -> u64 {
        match &self.fault {
            None => 0,
            Some(p) => p.extra_latency(addr),
        }
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

    /// The full/empty state a synchronizing op would observe at `addr`,
    /// including stuck-bit faults. Host-side (no counters) — this is what
    /// the deadlock detector probes.
    #[inline]
    pub fn effective_full(&self, addr: usize) -> bool {
        self.stuck_tag(addr).unwrap_or(self.words[addr].full)
    }

    /// Capacity in words.
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Bump-allocate `len` words; returns the base word address.
    /// Panics when memory is exhausted.
    pub fn alloc(&mut self, len: usize) -> usize {
        let base = self.next_free;
        assert!(
            base + len <= self.words.len(),
            "simulated memory exhausted: need {len} words at {base}, capacity {}",
            self.words.len()
        );
        self.next_free += len;
        base
    }

    /// Copy a host slice into simulated memory at `base` (words full).
    pub fn load_slice(&mut self, base: usize, values: &[i64]) {
        for (i, &v) in values.iter().enumerate() {
            self.words[base + i] = Word::full(v);
        }
    }

    /// Allocate and initialize from a host slice in one step.
    pub fn alloc_init(&mut self, values: &[i64]) -> usize {
        let base = self.alloc(values.len());
        self.load_slice(base, values);
        base
    }

    /// Allocate `len` words all set to `value`.
    pub fn alloc_fill(&mut self, len: usize, value: i64) -> usize {
        let base = self.alloc(len);
        for w in &mut self.words[base..base + len] {
            *w = Word::full(value);
        }
        base
    }

    /// Read a word's value without simulation side effects (host-side
    /// inspection of results).
    pub fn peek(&self, addr: usize) -> i64 {
        self.words[addr].value
    }

    /// Copy `len` words out to the host starting at `base`.
    pub fn peek_slice(&self, base: usize, len: usize) -> Vec<i64> {
        self.words[base..base + len]
            .iter()
            .map(|w| w.value)
            .collect()
    }

    /// Host-side write without side effects.
    pub fn poke(&mut self, addr: usize, value: i64) {
        self.words[addr].value = value;
    }

    /// Host-side tag inspection.
    pub fn is_full(&self, addr: usize) -> bool {
        self.words[addr].full
    }

    /// Host-side: mark a word empty (e.g. to initialize a sync variable).
    pub fn set_empty(&mut self, addr: usize) {
        self.words[addr].full = false;
    }

    // --- simulated operations (update counters) ---

    /// Ordinary load: ignores the full/empty bit.
    pub fn load(&mut self, addr: usize) -> i64 {
        self.counters.loads += 1;
        self.words[addr].value
    }

    /// Ordinary store: ignores and does not change the full/empty bit.
    pub fn store(&mut self, addr: usize, value: i64) {
        self.counters.stores += 1;
        self.words[addr].value = value;
    }

    /// Synchronous read-and-empty: succeeds only on a full word, leaving
    /// it empty. `None` means the issuing stream must retry. A stuck tag
    /// fault pins the observed state (and the bit cannot be cleared).
    pub fn readfe(&mut self, addr: usize) -> Option<i64> {
        let stuck = self.stuck_tag(addr);
        let w = &mut self.words[addr];
        if stuck.unwrap_or(w.full) {
            if stuck.is_none() {
                w.full = false;
            }
            self.counters.sync_ops += 1;
            Some(w.value)
        } else {
            self.counters.sync_retries += 1;
            None
        }
    }

    /// Synchronous write-and-fill: succeeds only on an empty word, leaving
    /// it full. `false` means retry. A stuck-empty fault lets the write
    /// through but the bit stays empty; a stuck-full fault blocks forever.
    pub fn writeef(&mut self, addr: usize, value: i64) -> bool {
        let stuck = self.stuck_tag(addr);
        let w = &mut self.words[addr];
        if !stuck.unwrap_or(w.full) {
            if stuck.is_none() {
                w.full = true;
            }
            w.value = value;
            self.counters.sync_ops += 1;
            true
        } else {
            self.counters.sync_retries += 1;
            false
        }
    }

    /// Synchronous read-when-full (does not empty). `None` means retry.
    pub fn readff(&mut self, addr: usize) -> Option<i64> {
        let stuck = self.stuck_tag(addr);
        let w = &self.words[addr];
        if stuck.unwrap_or(w.full) {
            self.counters.sync_ops += 1;
            Some(w.value)
        } else {
            self.counters.sync_retries += 1;
            None
        }
    }

    /// Atomic fetch-and-add at memory; returns the *old* value. One cycle
    /// on the real machine; the engine charges it like a memory op.
    pub fn int_fetch_add(&mut self, addr: usize, delta: i64) -> i64 {
        self.counters.fetch_adds += 1;
        let w = &mut self.words[addr];
        let old = w.value;
        w.value = old.wrapping_add(delta);
        old
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn counters_total() {
        let mut m = Memory::new(4);
        m.load(0);
        m.store(1, 1);
        m.int_fetch_add(2, 1);
        m.store(3, 1);
        m.readfe(3);
        assert_eq!(m.counters.total_ops(), 5);
    }
}
