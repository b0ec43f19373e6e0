//! Analytic running-time predictions from the cost model.
//!
//! The paper's argument has a quantitative skeleton: on the SMP, time is
//! dominated by `T_M` non-contiguous accesses, each costing a main-memory
//! round trip, plus barriers; on the MTA, with sufficient parallelism the
//! memory and synchronization terms vanish and time collapses to
//! `T_C × cycle_time`. This module turns a [`Complexity`] triplet plus a
//! machine description into predicted seconds, so the event-driven
//! simulators can be sanity-checked against closed forms.
//!
//! Reached by: `tests/cross_validation.rs`.

use crate::cost::Complexity;
use crate::machine::{MtaParams, SmpParams};

/// Fraction of `T_C` compute operations that hit in L1 on a cache-friendly
/// SMP code (the model charges only `T_M` accesses with the full memory
/// latency; everything else is near-register work at ~1 cycle).
const SMP_COMPUTE_CPI: f64 = 1.0;

/// Predict SMP running time in seconds for a cost triplet.
///
/// `time = (T_M · mem_latency + T_C · CPI + B · barrier(p)) / clock`.
///
/// Reached by: `tests/cross_validation.rs`
/// (`analytic_model_tracks_simulator_scaling`); ROADMAP item 8 keeps or
/// deletes this module.
pub fn smp_seconds(c: &Complexity, params: &SmpParams, p: usize) -> f64 {
    let cycles = c.t_m * params.mem_latency as f64
        + c.t_c * SMP_COMPUTE_CPI
        + c.barriers * params.barrier_cycles(p) as f64;
    cycles * params.cycle_seconds()
}

/// Predict MTA running time in seconds for a cost triplet, given the amount
/// of logical parallelism (`threads`) the program exposes per processor.
///
/// With enough ready streams the processor issues one instruction per cycle
/// and `time = T_C / clock`. With too few threads the processor idles while
/// memory operations complete, which we model with the saturation ratio
/// `min(1, threads / streams_to_saturate)` applied to issue efficiency.
///
/// Reached by: `predict`'s unit tests, until ROADMAP item 8.
pub fn mta_seconds(c: &Complexity, params: &MtaParams, threads_per_proc: usize) -> f64 {
    let sat = params.streams_to_saturate().max(1);
    let efficiency = (threads_per_proc as f64 / sat as f64).min(1.0);
    // Memory term and barriers are reduced by multithreading in proportion
    // to how far below saturation we are (paper §2.2: "if sufficient
    // parallelism exists, these costs are reduced to zero").
    let hidden = 1.0 - efficiency;
    let cycles = c.t_c + hidden * (c.t_m * params.mem_latency as f64);
    let issue_cycles = cycles / efficiency.max(1e-9);
    issue_cycles * params.cycle_seconds()
}

/// Predicted MTA utilization for a parallel region exposing
/// `threads_per_proc` concurrently ready streams per processor.
///
/// Reached by: `predict`'s unit tests, until ROADMAP item 8.
pub fn mta_utilization(params: &MtaParams, threads_per_proc: usize) -> f64 {
    let sat = params.streams_to_saturate().max(1);
    (threads_per_proc as f64 / sat as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::formulas;

    #[test]
    fn smp_time_scales_down_with_processors() {
        let params = SmpParams::sun_e4500();
        let t1 = smp_seconds(&formulas::hj_list_ranking(1 << 22, 1), &params, 1);
        let t8 = smp_seconds(&formulas::hj_list_ranking(1 << 22, 8), &params, 8);
        let s = t1 / t8;
        assert!(s > 6.0 && s < 8.5, "speedup {s} not near-linear");
    }

    #[test]
    fn mta_beats_smp_on_pointer_chasing_at_equal_p() {
        // The core claim: the same O(n) work costs the SMP a memory round
        // trip per access but costs the saturated MTA one issue slot.
        let smp = SmpParams::sun_e4500();
        let mta = MtaParams::mta2();
        let n = 1 << 22;
        let t_smp = smp_seconds(&formulas::hj_list_ranking(n, 8), &smp, 8);
        let t_mta = mta_seconds(&formulas::mta_list_ranking_effective(n, 8), &mta, 100);
        let ratio = t_smp / t_mta;
        assert!(
            ratio > 5.0,
            "MTA should be several times faster; got ratio {ratio}"
        );
    }

    #[test]
    fn mta_unsaturated_is_slower_than_saturated() {
        let mta = MtaParams::mta2();
        let c = formulas::mta_list_ranking_effective(1 << 20, 1);
        let starved = mta_seconds(&c, &mta, 2);
        let full = mta_seconds(&c, &mta, 128);
        assert!(starved > full * 5.0);
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mta = MtaParams::mta2();
        assert!((mta_utilization(&mta, 1000) - 1.0).abs() < 1e-12);
        assert!(mta_utilization(&mta, 1) < 0.1);
        let u40 = mta_utilization(&mta, 40);
        assert!(u40 > 0.9, "paper: ~40 streams nearly saturate; got {u40}");
    }

    #[test]
    fn barrier_term_matters_for_many_iterations() {
        // SV with log n iterations pays 4 log n barriers; removing them
        // must strictly reduce predicted time.
        let params = SmpParams::sun_e4500();
        let full = formulas::sv_total(1 << 20, 1 << 22, 8);
        let no_barriers = crate::cost::Complexity {
            barriers: 0.0,
            ..full
        };
        assert!(smp_seconds(&full, &params, 8) > smp_seconds(&no_barriers, &params, 8));
    }
}
