//! The event-driven multi-processor, multi-stream execution engine.
//!
//! Each processor issues at most one operation per cycle, chosen fairly
//! from its *ready* streams (§2.2: "a processor switches among its streams
//! every cycle, executing instructions from non-blocked streams in a fair
//! manner"). A stream is blocked while
//!
//! * a register it needs is still in flight from memory (loads complete
//!   `mem_latency` cycles after issue),
//! * its outstanding-memory-operation window (8 on the MTA-2) is full, or
//! * a synchronous full/empty operation keeps bouncing (it retries every
//!   `sync_retry_cycles`).
//!
//! The engine is event-driven — idle cycles are skipped, not iterated —
//! so simulation cost is `O(instructions · log streams)`.
//!
//! **Hotspots.** §2.2: "hotspots can occur. Usually these can be worked
//! around in software, but they do occasionally impact performance."
//! Atomic (`int_fetch_add`) and synchronous (full/empty) operations on
//! the *same word* serialize at the memory module: each such operation
//! occupies the word for one cycle, so a word-level hotspot drains at
//! one atomic per cycle regardless of how many streams pile onto it.
//! Ordinary loads/stores are not serialized (the real machine's banked,
//! hashed memory gives them full throughput).
//!
//! **LIW packing.** The MTA-2 issues one *three-wide* instruction per
//! cycle: a memory operation, a fused multiply-add, and a control op
//! (§2.2). Our micro-ISA expresses those as separate operations, so the
//! engine accounts time in **thirds of a cycle**: a memory operation
//! consumes a full issue slot (3 thirds — preserving the one-word-per-
//! processor-per-cycle memory port), while ALU and control operations
//! consume one third, exactly the capacity of the two non-memory lanes.
//! Utilization is the fraction of issue-slot thirds filled.
//!
//! Functional semantics note: operations take effect in issue order, which
//! the engine generates in global time order across processors. This is a
//! sequentially-consistent interleaving — exactly the setting the paper's
//! racy-but-correct SV code (Alg. 3) is designed for.
//!
//! Reached by: every MTA suite cell.

use std::cell::Cell;

use archgraph_core::error::SimError;
use archgraph_core::{MtaParams, RunConfig};

use crate::fault::BlockTracker;
use crate::isa::{Instr, Program, NREGS, N_OP_CLASSES};
use crate::memory::Memory;
use crate::report::{EngineStats, RunReport};
use crate::wheel::TimeWheel;

/// Default simulated memory size in words.
const DEFAULT_MEMORY_WORDS: usize = 1 << 22;

/// Open-addressed map from word address to the next time (in thirds) that
/// word can service an atomic/sync operation.
///
/// This sits on the hotspot-serialization path, which a `fetch_add`-heavy
/// region hits once per atomic; the former `HashMap<usize, u64>` spent most
/// of its time in SipHash. Keys are stored as `addr + 1` so 0 marks an
/// empty slot; lookup is Fibonacci hashing plus linear probing, and the
/// table doubles at 3/4 load.
struct WordFree {
    keys: Vec<usize>,
    vals: Vec<u64>,
    mask: usize,
    len: usize,
}

impl WordFree {
    fn new() -> Self {
        let cap = 64;
        WordFree {
            keys: vec![0; cap],
            vals: vec![0; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    #[inline]
    fn bucket(key: usize, mask: usize) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & mask
    }

    /// Mutable slot for `addr`, inserting 0 if absent — the moral
    /// equivalent of `HashMap::entry(addr).or_insert(0)`.
    #[inline]
    fn slot(&mut self, addr: usize) -> &mut u64 {
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let key = addr + 1;
        let mut i = Self::bucket(key, self.mask);
        loop {
            let k = self.keys[i];
            if k == key {
                return &mut self.vals[i];
            }
            if k == 0 {
                self.keys[i] = key;
                self.len += 1;
                return &mut self.vals[i];
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.keys.len() * 2;
        let mask = cap - 1;
        let mut keys = vec![0usize; cap];
        let mut vals = vec![0u64; cap];
        for (k, v) in self.keys.iter().copied().zip(self.vals.iter().copied()) {
            if k == 0 {
                continue;
            }
            let mut i = Self::bucket(k, mask);
            while keys[i] != 0 {
                i = (i + 1) & mask;
            }
            keys[i] = k;
            vals[i] = v;
        }
        self.keys = keys;
        self.vals = vals;
        self.mask = mask;
    }
}

/// A label with no code behind it: [`MtaMachine::run`] has one issue loop
/// and every variant names it. The variants once selected trace batching
/// on or off and two further engines, all measured and removed (DESIGN.md
/// §3.4); the type, its four spellings, [`with_engine`] and
/// [`MtaMachine::engine`] stay only because the frozen `benchmarks/`
/// package and the daemon's wire `"engine"` key are written against them,
/// and go when a `benchmark` PR thaws that tree (ROADMAP 11(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MtaEngine {
    /// The default label.
    #[default]
    Trace,
    /// Named the loop with batching off, which is the loop that remains.
    SingleStep,
    /// Named the threaded-code engine removed in PR 12.
    Compiled,
    /// Named the windowed multi-worker engine removed in PR 14.
    Partitioned,
}

impl MtaEngine {
    /// Parse an engine name as cell specs and the daemon's wire `"engine"`
    /// key spell it; an unknown name is still an error there.
    pub fn parse(s: &str) -> Option<MtaEngine> {
        Some(match s {
            "trace" => MtaEngine::Trace,
            "single-step" | "single_step" | "oracle" => MtaEngine::SingleStep,
            "compiled" | "threaded" => MtaEngine::Compiled,
            "partitioned" | "parallel" => MtaEngine::Partitioned,
            _ => return None,
        })
    }

    /// The canonical spelling [`Self::parse`] reads back.
    pub fn name(self) -> &'static str {
        match self {
            MtaEngine::Trace => "trace",
            MtaEngine::SingleStep => "single-step",
            MtaEngine::Compiled => "compiled",
            MtaEngine::Partitioned => "partitioned",
        }
    }
}

thread_local! {
    static ENGINE_OVERRIDE: Cell<Option<MtaEngine>> = const { Cell::new(None) };
}

/// Run `f` with every [`MtaMachine`] constructed on this thread labelled
/// `engine` (see [`MtaEngine`]: the label selects nothing). Panic-safe and
/// nestable; the previous label is restored on exit.
///
/// Reached by: frozen benchmarks/src (`run.rs`), until ROADMAP 11(b).
pub fn with_engine<R>(engine: MtaEngine, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<MtaEngine>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ENGINE_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(ENGINE_OVERRIDE.with(|c| c.replace(Some(engine))));
    f()
}

/// Runs `f`; `workers` is discarded. This was the worker-count knob of the
/// removed windowed engine (see [`MtaEngine::Partitioned`]) and nothing
/// reads a worker count any more; the name stays only because the frozen
/// `benchmarks/` package calls it, and goes in the `benchmark` PR that
/// drops its `partitioned-w1/-w2` rows.
///
/// Reached by: frozen benchmarks/src (`run.rs`), until ROADMAP 11(b).
pub fn with_workers<R>(_workers: usize, f: impl FnOnce() -> R) -> R {
    f()
}

impl MtaMachine {
    /// Always 1: the one issue loop is serial. Kept, like [`with_workers`]
    /// and until the same `benchmark` PR, only because the frozen
    /// `benchmarks/` package prints it.
    ///
    /// Reached by: frozen benchmarks/src (`run.rs`), until ROADMAP 11(b).
    pub fn workers(&self) -> usize {
        1
    }
}

/// Capacity of the inline outstanding-operation ring. The engine keeps at
/// most `lookahead` completions in flight per stream (MTA-2: 8), and the
/// ring lives inside [`Stream`] so the scheduler never chases a separate
/// heap allocation on the per-event path.
const MAX_LOOKAHEAD: usize = 16;

#[derive(Debug, Clone)]
struct Stream {
    regs: [i64; NREGS],
    reg_ready: [u64; NREGS],
    pc: usize,
    /// In-flight completion times, a FIFO ring of at most `lookahead`.
    outstanding: [u64; MAX_LOOKAHEAD],
    out_head: u8,
    out_len: u8,
    halted: bool,
}

impl Stream {
    fn new(id: usize) -> Self {
        let mut regs = [0i64; NREGS];
        regs[1] = id as i64; // STREAM_ID convention
        Stream {
            regs,
            reg_ready: [0; NREGS],
            pc: 0,
            outstanding: [0; MAX_LOOKAHEAD],
            out_head: 0,
            out_len: 0,
            halted: false,
        }
    }

    #[inline]
    fn out_front(&self) -> Option<u64> {
        if self.out_len == 0 {
            None
        } else {
            Some(self.outstanding[self.out_head as usize])
        }
    }

    #[inline]
    fn out_pop(&mut self) {
        debug_assert!(self.out_len > 0);
        self.out_head = (self.out_head + 1) % MAX_LOOKAHEAD as u8;
        self.out_len -= 1;
    }

    #[inline]
    fn out_push(&mut self, done: u64) {
        debug_assert!((self.out_len as usize) < MAX_LOOKAHEAD);
        let i = (self.out_head as usize + self.out_len as usize) % MAX_LOOKAHEAD;
        self.outstanding[i] = done;
        self.out_len += 1;
    }
}

/// A simulated MTA system: `p` processors over one flat shared memory.
#[derive(Debug)]
pub struct MtaMachine {
    params: MtaParams,
    p: usize,
    memory: Memory,
    total_cycles: u64,
    engine: MtaEngine,
    engine_stats: EngineStats,
    reports: Vec<RunReport>,
    /// Watchdog budget in simulated cycles, the run scope's at
    /// construction; a region that would pop an event past this returns
    /// [`SimError::CycleBudgetExceeded`].
    max_cycles: u64,
}

impl MtaMachine {
    /// A machine with `p` processors and the default memory size.
    ///
    /// Reached by: the crate-level example and `tests/failure_injection.rs`
    /// (`simulators_reject_invalid_configurations`).
    pub fn new(params: MtaParams, p: usize) -> Self {
        Self::with_memory_words(params, p, DEFAULT_MEMORY_WORDS)
    }

    /// A machine with an explicit memory size in words. It runs under the
    /// fault plan and cycle budget of the run scope ([`RunConfig::current`])
    /// it is built in.
    pub fn with_memory_words(params: MtaParams, p: usize, words: usize) -> Self {
        assert!(p >= 1, "need at least one processor");
        MtaMachine {
            params,
            p,
            memory: Memory::new(words),
            total_cycles: 0,
            engine: ENGINE_OVERRIDE.with(Cell::get).unwrap_or_default(),
            engine_stats: EngineStats::default(),
            reports: Vec::new(),
            max_cycles: RunConfig::current().max_cycles,
        }
    }

    /// The label this machine was constructed with (the [`with_engine`]
    /// scope's, or the default); nothing reads it (see [`MtaEngine`]).
    ///
    /// Reached by: frozen benchmarks/src (`run.rs`), until ROADMAP 11(b).
    pub fn engine(&self) -> MtaEngine {
        self.engine
    }

    /// Issue-loop accounting accumulated over all regions run so far:
    /// host-side measurement, kept out of [`RunReport`].
    ///
    /// Reached by: frozen benchmarks/src (`probes.rs`) and this crate's
    /// `tests/guardrails.rs` and `tests/loop_golden.rs`.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine_stats
    }

    /// Shared memory (host-side inspection).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Shared memory (allocation / initialization).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// Cycles accumulated over all regions run so far.
    #[cfg(test)]
    pub(crate) fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Seconds accumulated over all regions run so far.
    pub fn total_seconds(&self) -> f64 {
        self.total_cycles as f64 * self.params.cycle_seconds()
    }

    /// Per-region reports in execution order.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// Execute `prog` as one parallel region on `streams_per_proc` streams
    /// per processor. Every stream starts at instruction 0 with `r0 = 0`
    /// and `r1 = global stream index`; `init` may set further registers.
    /// Returns the region report (also appended to [`Self::reports`]).
    ///
    /// Panics with the [`SimError`] display text if the region deadlocks
    /// or exhausts the watchdog budget; use [`Self::try_run`] to handle
    /// those failures structurally.
    pub fn run<F: FnMut(usize, &mut [i64; NREGS])>(
        &mut self,
        prog: &Program,
        streams_per_proc: usize,
        init: F,
    ) -> RunReport {
        self.try_run(prog, streams_per_proc, init)
            .unwrap_or_else(|e| panic!("mta region failed: {e}"))
    }

    /// [`Self::run`], but a deadlocked region returns
    /// [`SimError::Deadlock`] (with per-stream diagnostics) and a region that
    /// outlives the cycle budget returns
    /// [`SimError::CycleBudgetExceeded`], instead of hanging forever or
    /// panicking. On error the machine's memory image reflects the
    /// operations issued up to the failure; no report is appended.
    pub fn try_run<F: FnMut(usize, &mut [i64; NREGS])>(
        &mut self,
        prog: &Program,
        streams_per_proc: usize,
        init: F,
    ) -> Result<RunReport, SimError> {
        let mut stats = EngineStats::default();
        let result = self.run_region(prog, streams_per_proc, init, &mut stats);
        // Host-side accounting lands on every exit: a region that
        // deadlocks or exhausts its budget still spent these events (the
        // guardrail suites assert on them).
        self.engine_stats += stats;
        result
    }

    /// The body of [`Self::try_run`], which folds `stats` on every exit.
    fn run_region<F: FnMut(usize, &mut [i64; NREGS])>(
        &mut self,
        prog: &Program,
        streams_per_proc: usize,
        mut init: F,
        stats: &mut EngineStats,
    ) -> Result<RunReport, SimError> {
        assert!(streams_per_proc >= 1, "need at least one stream");
        assert!(
            streams_per_proc <= self.params.streams_per_processor,
            "processor has only {} streams",
            self.params.streams_per_processor
        );
        let total = self.p * streams_per_proc;
        let mut streams: Vec<Stream> = (0..total).map(Stream::new).collect();
        for (id, s) in streams.iter_mut().enumerate() {
            init(id, &mut s.regs);
            s.regs[0] = 0;
        }

        // All engine-internal times are in thirds of a cycle (see the
        // module docs on LIW packing).
        let latency = self.params.mem_latency * 3;
        let lookahead = self.params.lookahead.max(1);
        assert!(
            lookahead <= MAX_LOOKAHEAD,
            "lookahead {lookahead} exceeds the engine's inline window of {MAX_LOOKAHEAD}"
        );
        let retry = self.params.sync_retry_cycles.max(1) * 3;
        let instrs = prog.instrs();
        // Watchdog budget in thirds: the loop executes exactly the events
        // at times ≤ the boundary and fails on the first event past it.
        let budget_thirds = self.max_cycles.saturating_mul(3);

        let mem0 = self.memory.counters;
        let mut proc_clock = vec![0u64; self.p];
        let mut issued: u64 = 0;
        let mut issued_thirds: u64 = 0;
        let mut last_completion: u64 = 0;
        let mut op_mix = [0u64; N_OP_CLASSES];

        // Ready queue keyed by earliest possible issue time; stream id
        // breaks ties, which combined with re-insertion at issue_time + 1
        // yields fair round-robin service. The wheel pops in exactly the
        // ascending (time, id) order a binary heap of Reverse((t, id))
        // entries would, so every simulated quantity is unchanged by the
        // queue representation.
        let mut wheel = TimeWheel::new(total);
        for id in 0..total {
            wheel.push(0, id as u32);
        }
        // Hotspot serialization: next cycle (in thirds) at which a word
        // can service another atomic/sync operation.
        let mut word_free = WordFree::new();
        let decoded = prog.decoded();
        // Blocked/halted bookkeeping behind deadlock detection.
        let mut tracker = BlockTracker::new(total);
        // Each stream's processor, looked up per event in place of a
        // 64-bit division.
        let proc_of: Vec<u32> = (0..total)
            .map(|id| (id / streams_per_proc) as u32)
            .collect();

        while let Some((t, id)) = wheel.pop() {
            if t > budget_thirds {
                return Err(SimError::CycleBudgetExceeded {
                    budget: self.max_cycles,
                    spent: t.div_ceil(3),
                    what: "mta cycles",
                });
            }
            stats.events += 1;
            'ev: {
                let proc = proc_of[id as usize] as usize;
                let s = &mut streams[id as usize];
                debug_assert!(!s.halted);
                if s.pc >= instrs.len() {
                    // Falling off the end halts the stream.
                    tracker.on_halt(id as usize);
                    if let Some(err) = tracker.deadlock(&self.memory) {
                        return Err(err);
                    }
                    break 'ev;
                }
                let instr = instrs[s.pc];
                let d = decoded[s.pc];

                // Earliest time this stream can truly issue `instr`. Absent
                // operands decode to r0, whose ready time is pinned at 0, so
                // the two-way max is exact.
                let mut e = t
                    .max(s.reg_ready[d.src0 as usize])
                    .max(s.reg_ready[d.src1 as usize]);
                while let Some(c) = s.out_front() {
                    if c <= e {
                        s.out_pop();
                    } else {
                        break;
                    }
                }
                if d.is_memory && s.out_len as usize >= lookahead {
                    // The window is at its limit, so the ring holds
                    // `lookahead ≥ 1` entries and the front exists.
                    let c = s
                        .out_front()
                        .expect("outstanding ring at the lookahead limit is non-empty");
                    e = e.max(c);
                    s.out_pop();
                }
                if e > t {
                    // Not actually ready yet: requeue without consuming a slot.
                    wheel.push(e, id);
                    break 'ev;
                }

                // A stalled processor issues nothing inside its fault
                // windows: the pure per-(proc, seed) adjustment pushes
                // the issue slot past the window end (DESIGN.md §8).
                let issue_at = self
                    .memory
                    .fault_stall_adjust(proc, e.max(proc_clock[proc]));

                // LIW lanes: memory ops fill the issue slot, ALU/control ops
                // fill one of the three lanes.
                let cost = u64::from(d.cost);
                proc_clock[proc] = issue_at + cost;
                issued += 1;
                issued_thirds += cost;
                op_mix[d.class_idx as usize] += 1;
                let mut next_ready = issue_at + cost;
                let mut next_pc = s.pc + 1;

                macro_rules! wreg {
                    ($dst:expr, $val:expr, $ready:expr) => {{
                        let d = $dst.0 as usize;
                        if d != 0 {
                            s.regs[d] = $val;
                            s.reg_ready[d] = $ready;
                        }
                    }};
                }

                match instr {
                    Instr::Li { dst, imm } => wreg!(dst, imm, issue_at + 1),
                    Instr::Mov { dst, src } => {
                        wreg!(dst, s.regs[src.0 as usize], issue_at + 1)
                    }
                    Instr::Add { dst, a, b } => {
                        let v = s.regs[a.0 as usize].wrapping_add(s.regs[b.0 as usize]);
                        wreg!(dst, v, issue_at + 1)
                    }
                    Instr::AddI { dst, a, imm } => {
                        let v = s.regs[a.0 as usize].wrapping_add(imm);
                        wreg!(dst, v, issue_at + 1)
                    }
                    Instr::Sub { dst, a, b } => {
                        let v = s.regs[a.0 as usize].wrapping_sub(s.regs[b.0 as usize]);
                        wreg!(dst, v, issue_at + 1)
                    }
                    Instr::Mul { dst, a, b } => {
                        let v = s.regs[a.0 as usize].wrapping_mul(s.regs[b.0 as usize]);
                        wreg!(dst, v, issue_at + 1)
                    }
                    Instr::Load { dst, addr, off } => {
                        let a = (s.regs[addr.0 as usize] + off) as usize;
                        let v = self.memory.load(a);
                        let done = issue_at
                            + latency
                            + self.memory.fault_mem_extra(proc, a, issue_at, latency);
                        wreg!(dst, v, done);
                        s.out_push(done);
                        last_completion = last_completion.max(done);
                    }
                    Instr::Store { src, addr, off } => {
                        let a = (s.regs[addr.0 as usize] + off) as usize;
                        self.memory.store(a, s.regs[src.0 as usize]);
                        let done = issue_at
                            + latency
                            + self.memory.fault_mem_extra(proc, a, issue_at, latency);
                        s.out_push(done);
                        last_completion = last_completion.max(done);
                    }
                    Instr::ReadFE { dst, addr, off } => {
                        let a = (s.regs[addr.0 as usize] + off) as usize;
                        match self.memory.readfe(a) {
                            Some(v) => {
                                tracker.on_sync_success(id as usize);
                                let slot = word_free.slot(a);
                                let service = (*slot).max(issue_at);
                                *slot = service + 3;
                                let done = service
                                    + latency
                                    + self.memory.fault_mem_extra(proc, a, issue_at, latency);
                                wreg!(dst, v, done);
                                s.out_push(done);
                                last_completion = last_completion.max(done);
                            }
                            None => {
                                tracker.on_sync_fail(id as usize, s.pc, a, "readfe", issue_at);
                                if let Some(err) = tracker.deadlock(&self.memory) {
                                    return Err(err);
                                }
                                next_pc = s.pc; // retry the same op
                                next_ready = issue_at + retry + self.memory.fault_wake_delay(a);
                            }
                        }
                    }
                    Instr::WriteEF { src, addr, off } => {
                        let a = (s.regs[addr.0 as usize] + off) as usize;
                        if self.memory.writeef(a, s.regs[src.0 as usize]) {
                            tracker.on_sync_success(id as usize);
                            let slot = word_free.slot(a);
                            let service = (*slot).max(issue_at);
                            *slot = service + 3;
                            let done = service
                                + latency
                                + self.memory.fault_mem_extra(proc, a, issue_at, latency);
                            s.out_push(done);
                            last_completion = last_completion.max(done);
                        } else {
                            tracker.on_sync_fail(id as usize, s.pc, a, "writeef", issue_at);
                            if let Some(err) = tracker.deadlock(&self.memory) {
                                return Err(err);
                            }
                            next_pc = s.pc;
                            next_ready = issue_at + retry + self.memory.fault_wake_delay(a);
                        }
                    }
                    Instr::ReadFF { dst, addr, off } => {
                        let a = (s.regs[addr.0 as usize] + off) as usize;
                        match self.memory.readff(a) {
                            Some(v) => {
                                tracker.on_sync_success(id as usize);
                                let slot = word_free.slot(a);
                                let service = (*slot).max(issue_at);
                                *slot = service + 3;
                                let done = service
                                    + latency
                                    + self.memory.fault_mem_extra(proc, a, issue_at, latency);
                                wreg!(dst, v, done);
                                s.out_push(done);
                                last_completion = last_completion.max(done);
                            }
                            None => {
                                tracker.on_sync_fail(id as usize, s.pc, a, "readff", issue_at);
                                if let Some(err) = tracker.deadlock(&self.memory) {
                                    return Err(err);
                                }
                                next_pc = s.pc;
                                next_ready = issue_at + retry + self.memory.fault_wake_delay(a);
                            }
                        }
                    }
                    Instr::FetchAdd {
                        dst,
                        addr,
                        off,
                        delta,
                    } => {
                        let a = (s.regs[addr.0 as usize] + off) as usize;
                        let old = self.memory.int_fetch_add(a, s.regs[delta.0 as usize]);
                        // Hotspot: atomics on one word drain at 1 per cycle.
                        let slot = word_free.slot(a);
                        let service = (*slot).max(issue_at);
                        *slot = service + 3;
                        let done = service
                            + latency
                            + self.memory.fault_mem_extra(proc, a, issue_at, latency);
                        wreg!(dst, old, done);
                        s.out_push(done);
                        last_completion = last_completion.max(done);
                    }
                    Instr::Beq { a, b, target } => {
                        if s.regs[a.0 as usize] == s.regs[b.0 as usize] {
                            next_pc = target;
                        }
                    }
                    Instr::Bne { a, b, target } => {
                        if s.regs[a.0 as usize] != s.regs[b.0 as usize] {
                            next_pc = target;
                        }
                    }
                    Instr::Blt { a, b, target } => {
                        if s.regs[a.0 as usize] < s.regs[b.0 as usize] {
                            next_pc = target;
                        }
                    }
                    Instr::Bge { a, b, target } => {
                        if s.regs[a.0 as usize] >= s.regs[b.0 as usize] {
                            next_pc = target;
                        }
                    }
                    Instr::Jmp { target } => next_pc = target,
                    Instr::Halt => {
                        s.halted = true;
                        tracker.on_halt(id as usize);
                        if let Some(err) = tracker.deadlock(&self.memory) {
                            return Err(err);
                        }
                        break 'ev;
                    }
                }

                s.pc = next_pc;
                if s.pc >= instrs.len() {
                    s.halted = true;
                    tracker.on_halt(id as usize);
                    if let Some(err) = tracker.deadlock(&self.memory) {
                        return Err(err);
                    }
                    break 'ev;
                }
                // Wake the stream when its next instruction's sources are
                // ready, not merely at `next_ready`: register ready times are
                // this stream's own state, so folding them in now skips the
                // pop that would only discover the stall and requeue. The
                // issue time and order are unchanged — the readiness check
                // above recomputes the same maximum.
                let dn = decoded[s.pc];
                let wake = next_ready
                    .max(s.reg_ready[dn.src0 as usize])
                    .max(s.reg_ready[dn.src1 as usize]);
                wheel.push(wake, id);
            }
        }

        let thirds = proc_clock
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(last_completion);
        let cycles = thirds.div_ceil(3);
        let mem1 = self.memory.counters;
        let mem = crate::memory::MemCounters {
            loads: mem1.loads - mem0.loads,
            stores: mem1.stores - mem0.stores,
            sync_ops: mem1.sync_ops - mem0.sync_ops,
            sync_retries: mem1.sync_retries - mem0.sync_retries,
            fetch_adds: mem1.fetch_adds - mem0.fetch_adds,
        };
        let report = RunReport {
            cycles,
            issued,
            issued_thirds,
            op_mix,
            processors: self.p,
            streams_per_processor: streams_per_proc,
            utilization: if thirds == 0 {
                0.0
            } else {
                issued_thirds as f64 / (thirds as f64 * self.p as f64)
            },
            mem,
            sync_retries: mem.sync_retries,
            seconds: cycles as f64 * self.params.cycle_seconds(),
        };
        self.total_cycles += cycles;
        self.reports.push(report.clone());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{ProgramBuilder, Reg};

    fn tiny(p: usize) -> MtaMachine {
        MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), p, 1 << 16)
    }

    /// Program: each stream adds `r1 + 100` into memory[r1 + base].
    fn store_id_program(base: usize) -> Program {
        let mut b = ProgramBuilder::new();
        b.addi(Reg(2), Reg(1), 100);
        b.add(Reg(3), Reg(1), Reg(0));
        b.store(Reg(2), Reg(3), base as i64);
        b.halt();
        b.build()
    }

    #[test]
    fn single_stream_sequential_semantics() {
        let mut m = tiny(1);
        let base = m.memory_mut().alloc(4);
        let rep = m.run(&store_id_program(base), 1, |_, _| {});
        assert_eq!(m.memory().peek(base), 100);
        assert_eq!(rep.issued, 4);
        assert!(rep.cycles >= 4);
        assert_eq!(rep.processors, 1);
    }

    #[test]
    fn every_stream_executes() {
        let mut m = tiny(2);
        let base = m.memory_mut().alloc(16);
        m.run(&store_id_program(base), 8, |_, _| {});
        for id in 0..16 {
            assert_eq!(m.memory().peek(base + id), 100 + id as i64);
        }
    }

    #[test]
    fn init_closure_overrides_registers() {
        let mut m = tiny(1);
        let base = m.memory_mut().alloc(2);
        let mut b = ProgramBuilder::new();
        b.store(Reg(5), Reg(1), base as i64).halt();
        let prog = b.build();
        m.run(&prog, 2, |id, regs| regs[5] = (id * 7) as i64);
        assert_eq!(m.memory().peek(base), 0);
        assert_eq!(m.memory().peek(base + 1), 7);
    }

    #[test]
    fn zero_register_is_immutable() {
        let mut m = tiny(1);
        let base = m.memory_mut().alloc(1);
        let mut b = ProgramBuilder::new();
        b.li(Reg(0), 42); // discarded
        b.store(Reg(0), Reg(0), base as i64);
        b.halt();
        let prog = b.build();
        m.run(&prog, 1, |_, regs| regs[0] = 9); // also discarded
        assert_eq!(m.memory().peek(base), 0);
    }

    /// Dynamic fetch-add loop: sum of claimed indices must equal the
    /// arithmetic series regardless of stream count.
    fn dynamic_sum_program(counter: usize, acc: usize, n: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let (i, one, lim, t) = (Reg(2), Reg(3), Reg(4), Reg(5));
        b.li(one, 1).li(lim, n);
        let top = b.here();
        b.fetch_add_imm(i, counter as i64, one);
        let done = b.bge_fwd(i, lim);
        b.fetch_add_imm(t, acc as i64, i);
        b.jmp(top);
        b.bind(done);
        b.halt();
        b.build()
    }

    #[test]
    fn dynamic_loop_claims_each_iteration_once() {
        for streams in [1usize, 3, 8] {
            let mut m = tiny(1);
            let counter = m.memory_mut().alloc(1);
            let acc = m.memory_mut().alloc(1);
            m.run(&dynamic_sum_program(counter, acc, 500), streams, |_, _| {});
            assert_eq!(
                m.memory().peek(acc),
                (0..500).sum::<i64>(),
                "streams={streams}"
            );
        }
    }

    #[test]
    fn more_streams_hide_latency() {
        // With one stream the dependent fetch-add chain exposes the full
        // memory latency per iteration; with 8 streams the processor
        // overlaps them.
        let run = |streams: usize| {
            let mut m = tiny(1);
            let counter = m.memory_mut().alloc(1);
            let acc = m.memory_mut().alloc(1);
            m.run(&dynamic_sum_program(counter, acc, 400), streams, |_, _| {})
        };
        let r1 = run(1);
        let r8 = run(8);
        assert!(
            r1.cycles > 2 * r8.cycles,
            "1 stream {} vs 8 streams {}",
            r1.cycles,
            r8.cycles
        );
        assert!(r8.utilization > 2.0 * r1.utilization);
    }

    #[test]
    fn more_processors_cut_time() {
        let run = |p: usize| {
            let mut m = tiny(p);
            let counter = m.memory_mut().alloc(1);
            let acc = m.memory_mut().alloc(1);
            m.run(&dynamic_sum_program(counter, acc, 2000), 8, |_, _| {})
        };
        let r1 = run(1);
        let r4 = run(4);
        assert!(
            (r1.cycles as f64 / r4.cycles as f64) > 2.5,
            "p=1 {} vs p=4 {}",
            r1.cycles,
            r4.cycles
        );
    }

    #[test]
    fn utilization_bounded_by_one() {
        let mut m = tiny(2);
        let counter = m.memory_mut().alloc(1);
        let acc = m.memory_mut().alloc(1);
        let rep = m.run(&dynamic_sum_program(counter, acc, 1000), 8, |_, _| {});
        assert!(rep.utilization > 0.0 && rep.utilization <= 1.0);
        // 3-wide LIW: up to 3 operations per cycle per processor.
        assert!(rep.issued <= 3 * 2 * rep.cycles);
    }

    #[test]
    fn feb_producer_consumer_across_streams() {
        // Stream 0 produces 1..=K into a cell; stream 1 consumes and sums.
        let mut m = tiny(1);
        let cell = m.memory_mut().alloc(1);
        let out = m.memory_mut().alloc(1);
        m.memory_mut().set_empty(cell);
        let k = 20i64;

        let mut b = ProgramBuilder::new();
        let (i, one, lim, v, sum) = (Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));
        b.li(one, 1).li(lim, k);
        // dispatch on stream id
        let consumer = b.bne_fwd(Reg(1), Reg(0));
        // producer: for i in 1..=k writeef(cell, i)
        b.li(i, 1);
        let ptop = b.here();
        b.writeef(i, Reg(0), cell as i64);
        b.addi(i, i, 1);
        let pdone = b.bge_fwd(i, lim);
        b.jmp(ptop);
        b.bind(pdone);
        b.writeef(i, Reg(0), cell as i64); // send k as the last value
        b.halt();
        // consumer: sum k readfe's
        b.bind(consumer);
        b.li(sum, 0).li(i, 0);
        let ctop = b.here();
        b.readfe(v, Reg(0), cell as i64);
        b.add(sum, sum, v);
        b.addi(i, i, 1);
        let cdone = b.bge_fwd(i, lim);
        b.jmp(ctop);
        b.bind(cdone);
        b.store(sum, Reg(0), out as i64);
        b.halt();
        let prog = b.build();

        let rep = m.run(&prog, 2, |_, _| {});
        assert_eq!(m.memory().peek(out), (1..=k).sum::<i64>());
        assert!(rep.sync_retries > 0, "the handshake must actually block");
    }

    #[test]
    fn lookahead_window_limits_issue() {
        // A stream issuing back-to-back independent stores can only keep
        // `lookahead` in flight; with lookahead 2 and latency 10 the
        // store stream is throttled.
        let mut b = ProgramBuilder::new();
        for k in 0..16 {
            b.store(Reg(0), Reg(0), k);
        }
        b.halt();
        let prog = b.build();
        let mut m = tiny(1);
        m.memory_mut().alloc(16);
        let rep = m.run(&prog, 1, |_, _| {});
        // 16 stores, window 2, latency 10: every 2 stores wait ~10 cycles.
        assert!(rep.cycles >= 70, "window must throttle: {}", rep.cycles);
    }

    #[test]
    fn reports_accumulate_across_regions() {
        let mut m = tiny(1);
        let base = m.memory_mut().alloc(4);
        let p = store_id_program(base);
        m.run(&p, 1, |_, _| {});
        m.run(&p, 1, |_, _| {});
        assert_eq!(m.reports().len(), 2);
        assert_eq!(
            m.total_cycles(),
            m.reports()[0].cycles + m.reports()[1].cycles
        );
        assert!(m.total_seconds() > 0.0);
    }

    #[test]
    fn memory_deltas_are_per_region() {
        let mut m = tiny(1);
        let base = m.memory_mut().alloc(4);
        let p = store_id_program(base);
        let r1 = m.run(&p, 1, |_, _| {});
        let r2 = m.run(&p, 1, |_, _| {});
        assert_eq!(r1.mem.stores, 1);
        assert_eq!(
            r2.mem.stores, 1,
            "second region counts only its own traffic"
        );
    }

    #[test]
    #[should_panic(expected = "only")]
    fn too_many_streams_rejected() {
        let mut m = tiny(1);
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build();
        m.run(&p, 9999, |_, _| {});
    }

    #[test]
    fn op_mix_histogram_matches_execution() {
        use crate::isa::OpClass;
        let mut m = tiny(1);
        let base = m.memory_mut().alloc(4);
        let rep = m.run(&store_id_program(base), 2, |_, _| {});
        // Program: addi, add, store, halt -- per stream.
        assert_eq!(rep.ops(OpClass::Alu), 4);
        assert_eq!(rep.ops(OpClass::Store), 2);
        assert_eq!(rep.ops(OpClass::Halt), 2);
        assert_eq!(rep.ops(OpClass::Load), 0);
        assert_eq!(rep.op_mix.iter().sum::<u64>(), rep.issued);
    }

    #[test]
    fn hotspot_serializes_atomics_on_one_word() {
        // A single word drains one atomic per cycle machine-wide, so a
        // hotspot only hurts once several *processors* aggregate demand:
        // 8 procs x 8 streams x 32 fetch_adds on ONE word vs one word
        // per stream.
        let run = |spread: bool| {
            let mut m = MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), 8, 1 << 12);
            let cells = m.memory_mut().alloc(64);
            let mut b = ProgramBuilder::new();
            let (i, lim, one, t, a) = (Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));
            b.li(i, 0).li(lim, 32).li(one, 1);
            if spread {
                b.add(a, Reg(1), Reg(0)); // cells[stream_id]
            } else {
                b.li(a, 0); // everyone hits cells[0]
            }
            let top = b.here();
            b.fetch_add(t, a, cells as i64, one);
            b.addi(i, i, 1);
            b.blt(i, lim, top);
            b.halt();
            let prog = b.build();
            m.run(&prog, 8, |_, _| {})
        };
        let hot = run(false);
        let cold = run(true);
        // 2048 serialized atomics need at least ~2048 cycles; the spread
        // version is issue-bound far below that.
        assert!(hot.cycles >= 2048, "drain rate is 1/cycle: {}", hot.cycles);
        assert!(
            hot.cycles > 3 * cold.cycles,
            "hotspot {} should far exceed spread {}",
            hot.cycles,
            cold.cycles
        );
        assert!(
            hot.utilization < cold.utilization,
            "a hotspot starves issue slots"
        );
    }

    #[test]
    fn empty_program_halts_immediately() {
        let mut m = tiny(1);
        let p = ProgramBuilder::new().build();
        let rep = m.run(&p, 4, |_, _| {});
        assert_eq!(rep.issued, 0);
        assert_eq!(rep.cycles, 0);
    }

    #[test]
    fn with_engine_scopes_the_override() {
        let ambient = tiny(1).engine();
        with_engine(MtaEngine::SingleStep, || {
            assert_eq!(tiny(1).engine(), MtaEngine::SingleStep);
            with_engine(MtaEngine::Trace, || {
                assert_eq!(tiny(1).engine(), MtaEngine::Trace);
            });
            assert_eq!(tiny(1).engine(), MtaEngine::SingleStep);
        });
        assert_eq!(tiny(1).engine(), ambient);
    }

    #[test]
    fn trace_engine_exact_cycles_pinned() {
        // Straight-line: 8 ALU ops + store + halt on one stream. ALU ops
        // issue back-to-back (1 cycle each); the store drains before halt
        // retires the region.
        let mut b = ProgramBuilder::new();
        let x = Reg(2);
        b.li(x, 0);
        for k in 0..7 {
            b.addi(x, x, k);
        }
        b.store(x, Reg(0), 0).halt();
        let prog = b.build();
        let mut m = tiny(1);
        m.memory_mut().alloc(1);
        let cycles = m.run(&prog, 1, |_, _| {}).cycles;
        let latency = MtaParams::tiny_for_tests().mem_latency;
        // Time is accounted in thirds of a cycle: the 8 ALU ops fill
        // thirds 0..8, the store issues at third 8, and the region drains
        // when it lands, `3 × mem_latency` thirds later.
        assert_eq!(cycles, (8 + 3 * latency).div_ceil(3));
    }

    #[test]
    fn engine_spellings_round_trip_and_typos_are_rejected() {
        use MtaEngine::*;
        for e in [Trace, SingleStep, Compiled, Partitioned] {
            assert_eq!(MtaEngine::parse(e.name()), Some(e));
        }
        for (alias, e) in [
            ("single_step", SingleStep),
            ("oracle", SingleStep),
            ("threaded", Compiled),
            ("parallel", Partitioned),
        ] {
            assert_eq!(MtaEngine::parse(alias), Some(e));
        }
        // Near misses must not parse: the wire turns `None` into an error.
        for typo in ["singlestep", "Trace", "trace ", ""] {
            assert_eq!(MtaEngine::parse(typo), None, "{typo:?}");
        }
    }
}
