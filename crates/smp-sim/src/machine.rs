//! The SPMD phase machine: per-processor cache stacks, a shared bus, and
//! software barriers.
//!
//! Time accounting follows the cost model's structure: within a phase each
//! processor accumulates cycles independently (compute + memory stalls);
//! the phase costs the machine the *slowest* processor's time, stretched
//! to the bus-transfer time if the phase moved more lines than the shared
//! bus could carry; and each [`SmpMachine::phase`] ends in one software
//! barrier whose cost grows with `p` (§2.1: "locks and barriers are
//! typically implemented in software").
//!
//! Reached by: every SMP suite cell.

use crate::cache::Cache;
use crate::prefetch::Prefetcher;
use crate::stats::RunStats;
use crate::tlb::Tlb;
use archgraph_core::{FaultPlan, RunConfig, SimError, SmpParams};

/// Base address and element size of a simulated array allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayAddr {
    /// Byte address of element 0.
    pub base: u64,
    /// Size of one element in bytes.
    pub elem_bytes: u64,
}

impl ArrayAddr {
    /// Byte address of element `idx`.
    pub fn addr(&self, idx: usize) -> u64 {
        self.base + self.elem_bytes * idx as u64
    }
}

/// Per-processor simulation state: the cache hierarchy and cycle clock.
#[derive(Debug)]
pub struct ProcCtx {
    l1: Cache,
    l2: Cache,
    prefetch: Prefetcher,
    tlb: Tlb,
    /// The machine's latencies in cycles and its CPI, as the `f64`s the
    /// clock adds: converted once here, not on every access.
    l1_latency: f64,
    l2_latency: f64,
    mem_latency: f64,
    tlb_miss_cycles: f64,
    store_miss_cycles: f64,
    compute_cpi: f64,
    /// This processor's machine-wide index (stall windows key on it).
    proc: usize,
    /// The structural subset of the run scope's fault plan: per-processor
    /// stalls and brownouts apply to the SMP machine; the address-keyed
    /// axis and degraded links are MTA-only (the SMP model has no
    /// tag bits and no per-shard network). Captured at machine
    /// construction.
    fault: Option<FaultPlan>,
    /// Cycle clock (monotone across the whole run; phases diff it).
    clock: f64,
    compute_cycles: f64,
    mem_stall_cycles: f64,
    tlb_stall_cycles: f64,
    instructions: u64,
    loads: u64,
    stores: u64,
    l1_hits: u64,
    l2_hits: u64,
    mem_accesses: u64,
    bus_lines: u64,
}

impl ProcCtx {
    fn new(params: &SmpParams, proc: usize, fault: Option<FaultPlan>) -> Self {
        ProcCtx {
            l1: Cache::new(params.l1_bytes, params.line_bytes, params.l1_assoc),
            l2: Cache::new(params.l2_bytes, params.line_bytes, params.l2_assoc),
            prefetch: Prefetcher::new(params.prefetch_streams, params.prefetch_trigger),
            tlb: Tlb::new(params.tlb_entries, params.page_bytes),
            l1_latency: params.l1_latency as f64,
            l2_latency: params.l2_latency as f64,
            mem_latency: params.mem_latency as f64,
            tlb_miss_cycles: params.tlb_miss_cycles as f64,
            store_miss_cycles: params.store_miss_cycles as f64,
            compute_cpi: params.compute_cpi,
            proc,
            fault,
            clock: 0.0,
            compute_cycles: 0.0,
            mem_stall_cycles: 0.0,
            tlb_stall_cycles: 0.0,
            instructions: 0,
            loads: 0,
            stores: 0,
            l1_hits: 0,
            l2_hits: 0,
            mem_accesses: 0,
            bus_lines: 0,
        }
    }

    /// Push the clock to the end of the current stall window, if this
    /// processor sits in one. Stalled time is idle time: it stretches the
    /// clock but lands in none of the busy-cycle buckets.
    #[inline]
    fn fault_stall(&mut self) {
        if let Some(f) = &self.fault {
            if f.has_stalls() {
                self.clock = f.stall_adjust_cycles(self.proc, self.clock);
            }
        }
    }

    /// The machine-wide brownout multiplier on main-memory charges at the
    /// current clock (1.0 when no brownout is in effect).
    #[inline]
    fn brownout_mult(&self) -> f64 {
        self.fault
            .as_ref()
            .map_or(1.0, |f| f.brownout_mult_at_cycle(self.clock))
    }

    /// The TLB's part of an access: a miss costs a software trap, kept out
    /// of the memory-stall bucket.
    #[inline]
    fn translate(&mut self, addr: u64) {
        if !self.tlb.access(addr) {
            self.clock += self.tlb_miss_cycles;
            self.tlb_stall_cycles += self.tlb_miss_cycles;
        }
    }

    /// Simulated load from a byte address. Charges L1/L2/memory latency
    /// according to residency (plus a TLB-miss trap when the page is not
    /// mapped); trains the stream prefetcher on misses. A cache that
    /// misses has installed the line by the time `access` returns, so a
    /// fill from below needs no second call.
    pub fn read(&mut self, addr: u64) {
        self.fault_stall();
        self.loads += 1;
        self.translate(addr);
        let stall0 = self.clock;
        if self.l1.access(addr) {
            self.l1_hits += 1;
            self.clock += self.l1_latency;
        } else if self.l2.access(addr) {
            self.l2_hits += 1;
            self.clock += self.l2_latency;
        } else {
            self.mem_accesses += 1;
            self.bus_lines += 1;
            // Main-memory charges stretch under a brownout; cache hits
            // do not (the brownout models the memory system, not the
            // processor-side hierarchy).
            let mult = self.brownout_mult();
            if self.prefetch.on_miss(self.l1.line_of(addr)) {
                // The stream prefetcher had the line in flight; the
                // processor sees roughly an L2 fill.
                self.clock += self.l2_latency * mult;
            } else {
                self.clock += self.mem_latency * mult;
            }
        }
        self.mem_stall_cycles += self.clock - stall0;
    }

    /// Simulated store to a byte address (write-allocate, write-back; a
    /// store missing all caches stalls for `store_miss_cycles` — store
    /// buffers hide part of the round trip — and moves two bus lines:
    /// the allocation fill and the eventual write-back).
    pub fn write(&mut self, addr: u64) {
        self.fault_stall();
        self.stores += 1;
        self.translate(addr);
        let stall0 = self.clock;
        if self.l1.access(addr) {
            self.l1_hits += 1;
            self.clock += self.l1_latency;
        } else if self.l2.access(addr) {
            self.l2_hits += 1;
            self.clock += self.l2_latency;
        } else {
            self.mem_accesses += 1;
            self.bus_lines += 2;
            self.clock += self.store_miss_cycles * self.brownout_mult();
        }
        self.mem_stall_cycles += self.clock - stall0;
    }

    /// Load element `idx` of a simulated array.
    pub fn read_elem(&mut self, arr: ArrayAddr, idx: usize) {
        self.read(arr.addr(idx));
    }

    /// Store to element `idx` of a simulated array.
    pub fn write_elem(&mut self, arr: ArrayAddr, idx: usize) {
        self.write(arr.addr(idx));
    }

    /// Charge `n` non-memory instructions at the effective CPI.
    pub fn compute(&mut self, n: u64) {
        self.fault_stall();
        self.instructions += n;
        self.clock += n as f64 * self.compute_cpi;
        self.compute_cycles += n as f64 * self.compute_cpi;
    }
}

/// Record of a completed phase, for diagnostics and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    /// Phase label.
    pub name: String,
    /// Cycles the phase took (slowest processor or bus, whichever larger).
    pub cycles: f64,
    /// True when bus bandwidth, not processor time, set the duration.
    pub bus_limited: bool,
    /// Slowest processor's cycles within the phase.
    pub max_proc_cycles: f64,
    /// Cache lines moved during the phase (all processors).
    pub bus_lines: u64,
}

/// A simulated `p`-processor SMP.
#[derive(Debug)]
pub struct SmpMachine {
    params: SmpParams,
    procs: Vec<ProcCtx>,
    /// Machine time in cycles.
    time_cycles: f64,
    barriers: u64,
    phases: Vec<PhaseRecord>,
    next_addr: u64,
    /// Watchdog budget in simulated cycles, the run scope's at
    /// construction: the first phase that pushes the machine clock past it
    /// returns [`SimError::CycleBudgetExceeded`].
    max_cycles: u64,
}

impl SmpMachine {
    /// Build a machine with `p` processors under the fault plan and cycle
    /// budget of the run scope ([`RunConfig::current`]). Panics when `p`
    /// exceeds the configuration's `max_processors` or is zero.
    pub fn new(params: SmpParams, p: usize) -> Self {
        assert!(p >= 1, "need at least one processor");
        assert!(
            p <= params.max_processors,
            "machine has only {} processors",
            params.max_processors
        );
        let RunConfig { faults, max_cycles } = RunConfig::current();
        let procs = (0..p)
            .map(|i| ProcCtx::new(&params, i, faults.clone()))
            .collect();
        SmpMachine {
            params,
            procs,
            time_cycles: 0.0,
            barriers: 0,
            phases: Vec::new(),
            next_addr: 0x1000,
            max_cycles,
        }
    }

    /// Number of processors.
    pub fn p(&self) -> usize {
        self.procs.len()
    }

    /// Machine parameters.
    #[cfg(test)]
    pub(crate) fn params(&self) -> &SmpParams {
        &self.params
    }

    /// Allocate a simulated array of `len` elements of `elem_bytes` each,
    /// line-aligned. Returns its address descriptor.
    pub fn alloc(&mut self, len: usize, elem_bytes: usize) -> ArrayAddr {
        let line = self.params.line_bytes as u64;
        let base = self.next_addr;
        let bytes = (len as u64 * elem_bytes as u64).max(1);
        self.next_addr = (base + bytes).div_ceil(line) * line + line;
        ArrayAddr {
            base,
            elem_bytes: elem_bytes as u64,
        }
    }

    /// Allocate a simulated array sized for `len` elements of type `T`.
    pub fn alloc_elems<T>(&mut self, len: usize) -> ArrayAddr {
        self.alloc(len, std::mem::size_of::<T>())
    }

    /// Run one SPMD phase followed by a software barrier: `f(proc, ctx)`
    /// is invoked once per processor. Returns the phase record. Panics
    /// with the [`SimError`] display text if the machine clock passes
    /// the watchdog budget; use [`Self::try_phase`] to handle it.
    ///
    /// Reached by: the crate-level example, this crate's
    /// `tests/cache_properties.rs` and frozen benchmarks/src (`probes.rs`,
    /// the `smp-sim.*_read_ns` rows).
    pub fn phase<F: FnMut(usize, &mut ProcCtx)>(&mut self, name: &str, f: F) -> &PhaseRecord {
        match self.phase_inner(name, f, true) {
            Ok(()) => self.last_phase(),
            Err(e) => panic!("smp phase failed: {e}"),
        }
    }

    /// [`Self::phase`], but a phase that pushes the machine clock past
    /// the cycle budget returns [`SimError::CycleBudgetExceeded`]
    /// instead of panicking. The offending phase's time and stats stay
    /// recorded (the simulation stopped *after* it, as close to the
    /// budget as phase granularity allows).
    pub fn try_phase<F: FnMut(usize, &mut ProcCtx)>(
        &mut self,
        name: &str,
        f: F,
    ) -> Result<&PhaseRecord, SimError> {
        self.phase_inner(name, f, true)?;
        Ok(self.last_phase())
    }

    /// [`Self::try_phase`] without the trailing barrier (e.g. the final
    /// phase of an algorithm, or sequential code on processor 0).
    pub fn try_phase_no_barrier<F: FnMut(usize, &mut ProcCtx)>(
        &mut self,
        name: &str,
        f: F,
    ) -> Result<&PhaseRecord, SimError> {
        self.phase_inner(name, f, false)?;
        Ok(self.last_phase())
    }

    fn last_phase(&self) -> &PhaseRecord {
        self.phases
            .last()
            .expect("phase_inner pushed a record before returning")
    }

    fn phase_inner<F: FnMut(usize, &mut ProcCtx)>(
        &mut self,
        name: &str,
        mut f: F,
        barrier: bool,
    ) -> Result<(), SimError> {
        let mut max_elapsed = 0.0f64;
        let mut lines = 0u64;
        for (i, ctx) in self.procs.iter_mut().enumerate() {
            let c0 = ctx.clock;
            let b0 = ctx.bus_lines;
            f(i, ctx);
            max_elapsed = max_elapsed.max(ctx.clock - c0);
            lines += ctx.bus_lines - b0;
        }
        let bus_cycles =
            lines as f64 * self.params.line_bytes as f64 / self.params.bus_bytes_per_cycle;
        let bus_limited = bus_cycles > max_elapsed;
        let mut cycles = max_elapsed.max(bus_cycles);
        if barrier {
            cycles += self.params.barrier_cycles(self.procs.len()) as f64;
            self.barriers += 1;
        }
        self.time_cycles += cycles;
        self.phases.push(PhaseRecord {
            name: name.to_string(),
            cycles,
            bus_limited,
            max_proc_cycles: max_elapsed,
            bus_lines: lines,
        });
        // Phases are closure-driven, so the finest watchdog granularity
        // is one phase: charge it, then fail if the clock ran past the
        // budget — a runaway iteration loop dies on its first over-budget
        // phase instead of spinning forever.
        if self.time_cycles > self.max_cycles as f64 {
            return Err(SimError::CycleBudgetExceeded {
                budget: self.max_cycles,
                spent: self.time_cycles.ceil() as u64,
                what: "smp cycles",
            });
        }
        Ok(())
    }

    /// Elapsed simulated time in cycles.
    ///
    /// Reached by: this crate's `tests/cache_properties.rs`.
    pub fn cycles(&self) -> f64 {
        self.time_cycles
    }

    /// Elapsed simulated time in seconds.
    pub fn seconds(&self) -> f64 {
        self.time_cycles * self.params.cycle_seconds()
    }

    /// Aggregate statistics across processors and phases.
    pub fn stats(&self) -> RunStats {
        let mut s = RunStats {
            cycles: self.time_cycles,
            barriers: self.barriers,
            phases: self.phases.len() as u64,
            bus_limited_phases: self.phases.iter().filter(|p| p.bus_limited).count() as u64,
            ..Default::default()
        };
        for p in &self.procs {
            s.instructions += p.instructions;
            s.loads += p.loads;
            s.stores += p.stores;
            s.l1_hits += p.l1_hits;
            s.l2_hits += p.l2_hits;
            s.mem_accesses += p.mem_accesses;
            s.prefetch_hits += p.prefetch.hits;
            s.tlb_misses += p.tlb.misses;
            s.bus_lines += p.bus_lines;
            s.compute_cycles += p.compute_cycles;
            s.mem_stall_cycles += p.mem_stall_cycles;
            s.tlb_stall_cycles += p.tlb_stall_cycles;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(p: usize) -> SmpMachine {
        SmpMachine::new(SmpParams::tiny_for_tests(), p)
    }

    /// [`tiny`] built in a scope with a `max_cycles` budget.
    fn budgeted(p: usize, max_cycles: u64) -> SmpMachine {
        let config = RunConfig {
            max_cycles,
            ..RunConfig::CLEAN
        };
        config.scope(|| tiny(p))
    }

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut m = tiny(1);
        let a = m.alloc_elems::<u32>(100);
        let b = m.alloc_elems::<u64>(50);
        assert!(a.base.is_multiple_of(m.params().line_bytes as u64));
        assert!(b.base >= a.addr(100));
        assert_eq!(a.addr(3) - a.addr(0), 12);
        assert_eq!(b.elem_bytes, 8);
    }

    #[test]
    fn sequential_scan_cheaper_than_random() {
        let params = SmpParams::tiny_for_tests();
        let n = 4096usize;
        let mut seq = SmpMachine::new(params.clone(), 1);
        let a = seq.alloc_elems::<u32>(n);
        seq.phase("seq", |_, ctx| {
            for i in 0..n {
                ctx.read_elem(a, i);
            }
        });
        let mut rnd = SmpMachine::new(params, 1);
        let b = rnd.alloc_elems::<u32>(n);
        rnd.phase("rnd", |_, ctx| {
            let mut idx = 1usize;
            for _ in 0..n {
                idx = (idx * 1_664_525 + 1_013_904_223) % n;
                ctx.read_elem(b, idx);
            }
        });
        assert!(
            rnd.cycles() > 2.0 * seq.cycles(),
            "random {} vs sequential {}",
            rnd.cycles(),
            seq.cycles()
        );
    }

    #[test]
    fn phase_time_is_critical_path() {
        let mut m = tiny(2);
        m.phase("skewed", |proc, ctx| {
            // Processor 1 does 10x the compute of processor 0.
            ctx.compute(if proc == 0 { 100 } else { 1000 });
        });
        let rec = &m.phases[0];
        let barrier = m.params().barrier_cycles(2) as f64;
        assert_eq!(rec.cycles, 1000.0 + barrier);
    }

    #[test]
    fn barrier_charged_per_phase() {
        let mut m = tiny(4);
        m.phase("a", |_, ctx| ctx.compute(1));
        m.phase("b", |_, ctx| ctx.compute(1));
        assert_eq!(m.stats().barriers, 2);
        let mut m2 = tiny(4);
        m2.try_phase_no_barrier("a", |_, ctx| ctx.compute(1))
            .unwrap();
        assert_eq!(m2.stats().barriers, 0);
        assert!(m.cycles() > m2.cycles());
    }

    #[test]
    fn bus_limits_bandwidth_heavy_phases() {
        // All processors miss every access: lines = accesses, and with
        // 8 procs the demanded bytes/cycle exceed the bus.
        let mut m = tiny(8);
        let n = 2048usize;
        let arrs: Vec<ArrayAddr> = (0..8).map(|_| m.alloc_elems::<u64>(n)).collect();
        m.phase("thrash", |proc, ctx| {
            let a = arrs[proc];
            // Stride by a line so every access misses (32B lines, 8B elems).
            let stride = 4usize;
            let mut i = 0usize;
            for _ in 0..n / stride {
                ctx.read_elem(a, i);
                i += stride;
            }
        });
        let rec = &m.phases[0];
        assert!(rec.bus_lines >= 8 * (n / 4) as u64 - 8);
        // tiny params: 100-cycle memory, 32B line, 4 B/cyc bus: 8 procs
        // generate one line per ~100 cycles each = 8*32/100 = 2.56 B/cyc,
        // under the 4 B/cyc bus -- so not bus limited. Crank it with a
        // custom config instead:
        let mut params = SmpParams::tiny_for_tests();
        params.bus_bytes_per_cycle = 0.5;
        let mut m = SmpMachine::new(params, 8);
        let arrs: Vec<ArrayAddr> = (0..8).map(|_| m.alloc_elems::<u64>(n)).collect();
        m.phase("thrash", |proc, ctx| {
            let a = arrs[proc];
            let mut i = 0usize;
            for _ in 0..n / 4 {
                ctx.read_elem(a, i);
                i += 4;
            }
        });
        assert!(m.phases[0].bus_limited, "narrow bus must limit");
        assert_eq!(m.stats().bus_limited_phases, 1);
    }

    #[test]
    fn caches_persist_across_phases() {
        let mut m = tiny(1);
        let a = m.alloc_elems::<u32>(8);
        m.phase("warm", |_, ctx| {
            for i in 0..8 {
                ctx.read_elem(a, i);
            }
        });
        let miss_before = m.stats().mem_accesses;
        m.phase("reuse", |_, ctx| {
            for i in 0..8 {
                ctx.read_elem(a, i);
            }
        });
        assert_eq!(m.stats().mem_accesses, miss_before, "second pass all hits");
    }

    #[test]
    fn stats_conservation_laws() {
        let mut m = tiny(2);
        let a = m.alloc_elems::<u32>(512);
        m.phase("mix", |proc, ctx| {
            for i in 0..256 {
                let idx = (i * 37 + proc * 11) % 512;
                if i % 3 == 0 {
                    ctx.write_elem(a, idx);
                } else {
                    ctx.read_elem(a, idx);
                }
                ctx.compute(2);
            }
        });
        let s = m.stats();
        assert_eq!(s.accesses(), 512);
        assert_eq!(s.l1_hits + s.l2_hits + s.mem_accesses, s.accesses());
        assert!(s.prefetch_hits <= s.mem_accesses);
        assert!(s.cycles > 0.0);
        assert_eq!(s.phases, 1);
    }

    #[test]
    fn seconds_track_clock_rate() {
        let mut m = tiny(1);
        m.try_phase_no_barrier("c", |_, ctx| ctx.compute(1000))
            .unwrap();
        // tiny params: CPI 1.0 at 100 MHz.
        assert!((m.seconds() - 1000.0 / 100.0e6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "only")]
    fn too_many_processors_rejected() {
        SmpMachine::new(SmpParams::tiny_for_tests(), 9);
    }

    #[test]
    fn stall_breakdown_accounts_for_all_busy_time() {
        let mut m = tiny(2);
        let a = m.alloc_elems::<u32>(4096);
        m.phase("mixed", |proc, ctx| {
            for i in 0..1024usize {
                let idx = (i * 31 + proc * 7) % 4096;
                if i % 4 == 0 {
                    ctx.write_elem(a, idx);
                } else {
                    ctx.read_elem(a, idx);
                }
                ctx.compute(3);
            }
        });
        let s = m.stats();
        let (fc, fm, ft) = s.stall_breakdown();
        assert!((fc + fm + ft - 1.0).abs() < 1e-9, "fractions sum to 1");
        assert!(fc > 0.0 && fm > 0.0, "both compute and memory time present");
        // Busy cycles never exceed machine time x processors (barriers and
        // bus stretching only add).
        assert!(s.busy_cycles() <= s.cycles * 2.0 + 1e-6);
    }

    #[test]
    fn watchdog_converts_runaway_phase_to_structured_error() {
        let mut m = budgeted(1, 100);
        let err = m
            .try_phase("runaway", |_, ctx| ctx.compute(1_000_000))
            .unwrap_err();
        match err {
            SimError::CycleBudgetExceeded {
                budget,
                spent,
                what,
            } => {
                assert_eq!(budget, 100);
                assert!(spent > 100);
                assert_eq!(what, "smp cycles");
            }
            other => panic!("expected a budget error, got {other}"),
        }
        // The over-budget phase itself stays recorded.
        assert_eq!(m.phases.len(), 1);

        let mut ok = budgeted(1, 1 << 30);
        assert!(ok.try_phase("fits", |_, ctx| ctx.compute(10)).is_ok());
    }

    #[test]
    #[should_panic(expected = "smp phase failed")]
    fn panicking_phase_wrapper_reports_budget_error() {
        let mut m = budgeted(1, 1);
        m.phase("runaway", |_, ctx| ctx.compute(1_000_000));
    }

    #[test]
    fn structural_faults_stall_and_brown_out_the_clock() {
        use archgraph_core::{with_fault_plan, FaultPlan};
        let run = |plan: Option<FaultPlan>| {
            with_fault_plan(plan, || {
                let mut m = tiny(2);
                let a = m.alloc_elems::<u32>(4096);
                m.phase("mixed", |proc, ctx| {
                    for i in 0..2048usize {
                        let idx = (i * 31 + proc * 7) % 4096;
                        if i % 4 == 0 {
                            ctx.write_elem(a, idx);
                        } else {
                            ctx.read_elem(a, idx);
                        }
                        ctx.compute(3);
                    }
                });
                (m.cycles(), m.stats())
            })
        };
        let (clean, cs) = run(None);
        // Stalls stretch the clock but leave the work counters alone.
        let stall = FaultPlan::parse("stall=300,stall-period=3000:7").unwrap();
        let (stalled, ss) = run(Some(stall));
        assert!(stalled > clean, "stall windows must cost time");
        assert_eq!(ss.instructions, cs.instructions);
        assert_eq!(ss.accesses(), cs.accesses());
        assert_eq!(ss.mem_accesses, cs.mem_accesses);
        // A brownout quadruples main-memory charges from cycle 0 on.
        let (browned, bs) = run(Some(FaultPlan::parse("brownout=4:7").unwrap()));
        assert!(browned > clean, "brownout must cost time");
        assert_eq!(bs.accesses(), cs.accesses());
        // The address-keyed axis is MTA-only: no SMP effect at all.
        let spike = FaultPlan::parse("mem-latency=300,rate=0:7").unwrap();
        let (spiked, _) = run(Some(spike));
        assert_eq!(spiked, clean);
        // Determinism: the same plan costs the same cycles again.
        let (stalled2, _) = run(Some(
            FaultPlan::parse("stall=300,stall-period=3000:7").unwrap(),
        ));
        assert_eq!(stalled2, stalled);
    }

    #[test]
    fn write_misses_move_two_lines() {
        let mut m = tiny(1);
        let a = m.alloc_elems::<u64>(64);
        m.try_phase_no_barrier("w", |_, ctx| {
            // One store per 32B line: 16 store misses.
            for i in (0..64).step_by(4) {
                ctx.write_elem(a, i);
            }
        })
        .unwrap();
        let s = m.stats();
        assert_eq!(s.mem_accesses, 16);
        assert_eq!(s.bus_lines, 32);
    }
}
