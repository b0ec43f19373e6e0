//! Machine parameter records for the two architecture classes in the paper.
//!
//! These are the *single source of truth* for both the analytic predictions
//! ([`crate::predict`]) and the cycle-accounting simulators
//! (`archgraph-smp-sim`, `archgraph-mta-sim`). The presets encode the
//! hardware described in §2 of the paper: a Sun Enterprise E4500-class SMP
//! and the Cray MTA-2.
//!
//! Reached by: every simulated suite cell (the machine parameters).

use serde::{Deserialize, Serialize};

/// Parameters of a cache-based symmetric multiprocessor (paper §2.1).
///
/// The preset [`SmpParams::sun_e4500`] matches the evaluation platform: a
/// 14-way UMA machine with 400 MHz UltraSPARC-II processors, 16 KB
/// direct-mapped L1 data caches and 4 MB external L2 caches. There is no
/// prefetch parameter: the UltraSPARC-II has no hardware prefetcher, and
/// the paper's codes issue no software prefetch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmpParams {
    /// Processor clock in Hz.
    pub clock_hz: f64,
    /// Number of processors physically present.
    pub max_processors: usize,
    /// L1 data cache capacity in bytes.
    pub l1_bytes: usize,
    /// L1 associativity (1 = direct mapped, as on the UltraSPARC-II).
    pub l1_assoc: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 cache capacity in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// L2 hit latency in cycles (paper: 20–30 cycles).
    pub l2_latency: u64,
    /// Cache line size in bytes (both levels).
    pub line_bytes: usize,
    /// Main-memory latency in cycles (paper: "hundreds of cycles").
    pub mem_latency: u64,
    /// Sustained main-memory bandwidth in bytes per cycle for the whole
    /// shared bus (paper: 1–2 GB/s total at 400 MHz ≈ 2.5–5 B/cycle).
    pub bus_bytes_per_cycle: f64,
    /// Fixed cost of a software barrier in cycles.
    pub barrier_base_cycles: u64,
    /// Additional per-processor cost of a software barrier in cycles
    /// (centralized-counter barriers serialize on the counter).
    pub barrier_per_proc_cycles: u64,
    /// Effective cycles per non-memory instruction. Irregular pointer codes
    /// run well below the 4-way superscalar peak; the paper's performance
    /// band implies an effective CPI near 2 on the UltraSPARC-II.
    pub compute_cpi: f64,
    /// Data-TLB entries (UltraSPARC-II: 64; at least 1).
    pub tlb_entries: usize,
    /// Page size in bytes (Solaris/UltraSPARC base pages: 8 KB).
    pub page_bytes: usize,
    /// Cycles charged per TLB miss. The UltraSPARC-II handles data-TLB
    /// misses in a software trap handler whose TSB lookup itself misses
    /// the caches under pointer-chasing workloads: a few hundred cycles.
    pub tlb_miss_cycles: u64,
    /// Stall cycles charged to a store that misses all caches. Store
    /// buffers hide part (but not all) of the memory round trip.
    pub store_miss_cycles: u64,
}

impl SmpParams {
    /// The Sun Enterprise E4500 configuration used in the paper's
    /// experiments (§2.1): 400 MHz UltraSPARC-II, 16 KB direct-mapped L1,
    /// 4 MB L2, UMA shared bus.
    pub fn sun_e4500() -> Self {
        SmpParams {
            clock_hz: 400.0e6,
            max_processors: 14,
            l1_bytes: 16 * 1024,
            l1_assoc: 1,
            l1_latency: 1,
            l2_bytes: 4 * 1024 * 1024,
            l2_assoc: 2,
            l2_latency: 25,
            line_bytes: 64,
            mem_latency: 300,
            bus_bytes_per_cycle: 4.0,
            barrier_base_cycles: 2_000,
            barrier_per_proc_cycles: 400,
            compute_cpi: 2.0,
            tlb_entries: 64,
            page_bytes: 8 * 1024,
            tlb_miss_cycles: 270,
            store_miss_cycles: 120,
        }
    }

    /// A small configuration handy for fast unit tests: tiny caches so that
    /// capacity effects appear at toy problem sizes.
    ///
    /// Reached by: the unit and integration tests of the SMP kernels and
    /// `smp-sim`.
    pub fn tiny_for_tests() -> Self {
        SmpParams {
            clock_hz: 100.0e6,
            max_processors: 8,
            l1_bytes: 256,
            l1_assoc: 1,
            l1_latency: 1,
            l2_bytes: 4096,
            l2_assoc: 2,
            l2_latency: 10,
            line_bytes: 32,
            mem_latency: 100,
            bus_bytes_per_cycle: 4.0,
            barrier_base_cycles: 50,
            barrier_per_proc_cycles: 10,
            compute_cpi: 1.0,
            tlb_entries: 8,
            page_bytes: 256,
            tlb_miss_cycles: 30,
            store_miss_cycles: 50,
        }
    }

    /// Seconds per cycle.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / self.clock_hz
    }

    /// Total cost in cycles of one software barrier across `p` processors.
    pub fn barrier_cycles(&self, p: usize) -> u64 {
        self.barrier_base_cycles + self.barrier_per_proc_cycles * p as u64
    }
}

/// Parameters of a Cray MTA-2 class multithreaded machine (paper §2.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MtaParams {
    /// Processor clock in Hz (MTA-2: 220 MHz).
    pub clock_hz: f64,
    /// Hardware streams per processor (MTA-2: 128).
    pub streams_per_processor: usize,
    /// Maximum outstanding memory operations per stream (MTA-2: 8).
    pub lookahead: usize,
    /// Memory latency in cycles (paper: about 100).
    pub mem_latency: u64,
    /// Retry interval, in cycles, for a blocked synchronous (full/empty)
    /// memory operation.
    pub sync_retry_cycles: u64,
    /// Instructions a stream can typically issue before stalling on an
    /// outstanding memory operation (paper: two or three).
    pub issue_lookahead_instrs: f64,
}

impl MtaParams {
    /// The Cray MTA-2 configuration from §2.2 of the paper.
    pub fn mta2() -> Self {
        MtaParams {
            clock_hz: 220.0e6,
            streams_per_processor: 128,
            lookahead: 8,
            mem_latency: 100,
            sync_retry_cycles: 16,
            issue_lookahead_instrs: 2.5,
        }
    }

    /// A reduced configuration for fast unit tests (fewer streams, shorter
    /// latency) that keeps every mechanism active.
    ///
    /// Reached by: the unit and integration tests of the MTA kernels and
    /// `mta-sim`.
    pub fn tiny_for_tests() -> Self {
        MtaParams {
            clock_hz: 100.0e6,
            streams_per_processor: 8,
            lookahead: 2,
            mem_latency: 10,
            sync_retry_cycles: 4,
            issue_lookahead_instrs: 2.0,
        }
    }

    /// Seconds per cycle.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / self.clock_hz
    }

    /// The number of concurrently ready streams needed to fully hide memory
    /// latency: latency / instructions-issuable-before-stall (paper §2.2:
    /// "40 to 80 threads per processor are usually sufficient").
    pub fn streams_to_saturate(&self) -> usize {
        (self.mem_latency as f64 / self.issue_lookahead_instrs).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4500_matches_paper_headlines() {
        let p = SmpParams::sun_e4500();
        assert_eq!(p.clock_hz, 400.0e6);
        assert_eq!(p.l1_bytes, 16 * 1024);
        assert_eq!(p.l1_assoc, 1, "UltraSPARC-II L1 is direct mapped");
        assert_eq!(p.l2_bytes, 4 * 1024 * 1024);
        assert_eq!(p.max_processors, 14);
        assert!(p.mem_latency >= 100, "main memory is hundreds of cycles");
    }

    #[test]
    fn mta2_matches_paper_headlines() {
        let p = MtaParams::mta2();
        assert_eq!(p.clock_hz, 220.0e6);
        assert_eq!(p.streams_per_processor, 128);
        assert_eq!(p.lookahead, 8);
        assert_eq!(p.mem_latency, 100);
    }

    #[test]
    fn saturation_threshold_in_paper_band() {
        // Paper: 40 to 80 threads per processor usually suffice.
        let s = MtaParams::mta2().streams_to_saturate();
        assert!(
            (30..=90).contains(&s),
            "saturation threshold {s} outside the plausible band"
        );
    }

    #[test]
    fn barrier_cost_grows_with_processors() {
        let p = SmpParams::sun_e4500();
        assert!(p.barrier_cycles(8) > p.barrier_cycles(1));
        assert_eq!(
            p.barrier_cycles(4) - p.barrier_cycles(2),
            2 * p.barrier_per_proc_cycles
        );
    }

    #[test]
    fn cycle_seconds_are_reciprocal_clocks() {
        assert!((SmpParams::sun_e4500().cycle_seconds() - 2.5e-9).abs() < 1e-15);
        let mta = MtaParams::mta2();
        assert!((mta.cycle_seconds() * mta.clock_hz - 1.0).abs() < 1e-12);
    }

    #[test]
    fn presets_roundtrip_through_serde() {
        let p = SmpParams::sun_e4500();
        let s = serde_json_like(&p);
        assert!(s.contains("l1_bytes"));
        let m = MtaParams::mta2();
        let s = serde_json_like(&m);
        assert!(s.contains("streams_per_processor"));
    }

    /// Poor-man's structural check without pulling serde_json: Debug output
    /// exercises all fields; serde derive compiles against the same fields.
    fn serde_json_like<T: std::fmt::Debug>(v: &T) -> String {
        format!("{v:?}")
    }
}
