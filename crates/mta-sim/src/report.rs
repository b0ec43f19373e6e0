//! Run reports: cycles, issue counts, and utilization.
//!
//! Reached by: every MTA suite cell (its fingerprint).

use crate::isa::N_OP_CLASSES;
use crate::memory::MemCounters;

/// The outcome of one parallel region executed on the simulated MTA.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Region duration in cycles (max over processors, including the
    /// drain of in-flight memory operations).
    pub cycles: u64,
    /// Instructions issued across all processors.
    pub issued: u64,
    /// Issue-slot thirds consumed (memory ops fill 3, others 1) — the
    /// numerator of [`RunReport::utilization`].
    pub issued_thirds: u64,
    /// Instruction-mix histogram indexed by [`crate::isa::OpClass::index`].
    pub op_mix: [u64; N_OP_CLASSES],
    /// Processors used.
    pub processors: usize,
    /// Streams per processor used.
    pub streams_per_processor: usize,
    /// Issue-slot utilization: `issued / (cycles × processors)` — the
    /// quantity reported in the paper's Table 1.
    pub utilization: f64,
    /// Memory traffic during the region.
    pub mem: MemCounters,
    /// Synchronous-operation retries observed (bounced FEB ops).
    pub sync_retries: u64,
    /// Region duration in seconds at the configured clock.
    pub seconds: f64,
}

impl RunReport {
    /// Count of issued operations in a class.
    #[cfg(test)]
    pub(crate) fn ops(&self, class: crate::isa::OpClass) -> u64 {
        self.op_mix[class.index()]
    }
}

/// Issue-loop accounting: *host-side* measurement of the interpreter
/// itself, deliberately not part of [`RunReport`]. Only `events` is live;
/// the other fields count paths that were removed and stay at 0 only
/// because the frozen `benchmarks/` package reads them (ROADMAP 11(b)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Scheduler visits (events popped), including stall re-queues.
    pub events: u64,
    /// Always 0: counted trace batches (removed, DESIGN.md §3.4).
    pub batches: u64,
    /// Always 0: counted instructions issued inside trace batches.
    pub batched_instrs: u64,
    /// Always 0: counted the window-merge rounds of the removed windowed
    /// engine (see `MtaEngine::Partitioned`), read for
    /// `mta-sim.windows_per_kcycle`.
    pub windows: u64,
}

impl EngineStats {
    /// Always 0: the fraction of `issued` instructions that went through
    /// trace batches.
    ///
    /// Reached by: frozen benchmarks/src (`probes.rs`), until ROADMAP 11(b).
    pub fn batched_fraction(&self, issued: u64) -> f64 {
        if issued == 0 {
            0.0
        } else {
            self.batched_instrs as f64 / issued as f64
        }
    }
}

impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, rhs: EngineStats) {
        self.events += rhs.events;
        self.batches += rhs.batches;
        self.batched_instrs += rhs.batched_instrs;
        self.windows += rhs.windows;
    }
}

/// Sum of several region reports (for whole-algorithm accounting).
pub fn combine(reports: &[RunReport]) -> RunReport {
    assert!(!reports.is_empty(), "cannot combine zero reports");
    let processors = reports[0].processors;
    let streams = reports[0].streams_per_processor;
    let cycles: u64 = reports.iter().map(|r| r.cycles).sum();
    let issued: u64 = reports.iter().map(|r| r.issued).sum();
    let issued_thirds: u64 = reports.iter().map(|r| r.issued_thirds).sum();
    let mut op_mix = [0u64; N_OP_CLASSES];
    for r in reports {
        for (k, v) in r.op_mix.iter().enumerate() {
            op_mix[k] += v;
        }
    }
    let seconds: f64 = reports.iter().map(|r| r.seconds).sum();
    let sync_retries: u64 = reports.iter().map(|r| r.sync_retries).sum();
    let mut mem = MemCounters::default();
    for r in reports {
        mem.loads += r.mem.loads;
        mem.stores += r.mem.stores;
        mem.sync_ops += r.mem.sync_ops;
        mem.sync_retries += r.mem.sync_retries;
        mem.fetch_adds += r.mem.fetch_adds;
    }
    let utilization = if cycles == 0 {
        0.0
    } else {
        issued_thirds as f64 / (3.0 * cycles as f64 * processors as f64)
    };
    RunReport {
        cycles,
        issued,
        issued_thirds,
        op_mix,
        processors,
        streams_per_processor: streams,
        utilization,
        mem,
        sync_retries,
        seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(cycles: u64, issued: u64, p: usize) -> RunReport {
        RunReport {
            cycles,
            issued,
            issued_thirds: 3 * issued,
            op_mix: [0; N_OP_CLASSES],
            processors: p,
            streams_per_processor: 8,
            utilization: issued as f64 / (cycles as f64 * p as f64),
            mem: MemCounters::default(),
            sync_retries: 0,
            seconds: cycles as f64 * 1e-8,
        }
    }

    #[test]
    fn combine_sums_and_reweights() {
        let a = r(100, 100, 2);
        let b = r(300, 60, 2);
        let c = combine(&[a, b]);
        assert_eq!(c.cycles, 400);
        assert_eq!(c.issued, 160);
        assert!((c.utilization - 160.0 / 800.0).abs() < 1e-12);
        assert!((c.seconds - 4e-6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero reports")]
    fn combine_empty_panics() {
        combine(&[]);
    }

    #[test]
    fn zero_cycles_guarded() {
        assert_eq!(combine(&[r(0, 0, 1)]).utilization, 0.0);
    }
}
