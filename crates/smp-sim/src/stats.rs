//! Aggregated run statistics for the SMP simulator.
//!
//! Reached by: every SMP suite cell (its fingerprint).

/// Counters accumulated over a whole simulated run (all processors, all
/// phases).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Total simulated time in cycles (critical path over processors,
    /// including bus stretching and barriers).
    pub cycles: f64,
    /// Instructions retired (compute operations charged).
    pub instructions: u64,
    /// Simulated load operations.
    pub loads: u64,
    /// Simulated store operations.
    pub stores: u64,
    /// L1 hits (loads + stores).
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Accesses that went to main memory.
    pub mem_accesses: u64,
    /// Memory accesses covered by the stream prefetcher.
    pub prefetch_hits: u64,
    /// Data-TLB misses (each costing a software trap).
    pub tlb_misses: u64,
    /// Cache lines moved over the shared bus.
    pub bus_lines: u64,
    /// Barrier synchronizations executed.
    pub barriers: u64,
    /// Number of phases run.
    pub phases: u64,
    /// Phases whose duration was set by bus bandwidth, not processor time.
    pub bus_limited_phases: u64,
    /// Processor cycles spent in compute (all processors summed).
    pub compute_cycles: f64,
    /// Processor cycles stalled on cache/memory fills.
    pub mem_stall_cycles: f64,
    /// Processor cycles lost to TLB-miss traps.
    pub tlb_stall_cycles: f64,
}

impl RunStats {
    /// Total memory operations issued.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Fraction of accesses that hit in L1.
    pub fn l1_hit_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.l1_hits as f64 / a as f64
        }
    }

    /// Fraction of accesses served from main memory — the `T_M`-like
    /// quantity of the cost model.
    pub fn mem_access_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.mem_accesses as f64 / a as f64
        }
    }

    /// Fraction of memory-bound accesses that prefetching converted to
    /// L2-latency fills.
    pub fn prefetch_coverage(&self) -> f64 {
        if self.mem_accesses == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.mem_accesses as f64
        }
    }

    /// Total busy processor cycles (compute + memory stall + TLB stall),
    /// summed over processors. Idle/barrier/bus-stretch time is the
    /// machine-level remainder.
    pub fn busy_cycles(&self) -> f64 {
        self.compute_cycles + self.mem_stall_cycles + self.tlb_stall_cycles
    }

    /// Where did the time go? `(compute, memory, tlb)` fractions of the
    /// busy cycles — the stall breakdown behind the Ordered/Random gap.
    pub fn stall_breakdown(&self) -> (f64, f64, f64) {
        let b = self.busy_cycles();
        if b == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.compute_cycles / b,
            self.mem_stall_cycles / b,
            self.tlb_stall_cycles / b,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = RunStats {
            loads: 80,
            stores: 20,
            l1_hits: 50,
            mem_accesses: 40,
            prefetch_hits: 10,
            ..Default::default()
        };
        assert_eq!(s.accesses(), 100);
        assert!((s.l1_hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.mem_access_rate() - 0.4).abs() < 1e-12);
        assert!((s.prefetch_coverage() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_guarded() {
        let s = RunStats::default();
        assert_eq!(s.l1_hit_rate(), 0.0);
        assert_eq!(s.mem_access_rate(), 0.0);
        assert_eq!(s.prefetch_coverage(), 0.0);
    }
}
