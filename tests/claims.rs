//! The paper's six headline claims (DESIGN.md C1–C6), asserted as ratio
//! bands on the simulated architectures, and the §3 walk-grain ablation
//! (ABL-GRAIN) as the shape of its sweep.
//!
//! To keep these fast enough for `cargo test` we shrink the SMP's cache
//! and TLB geometry by 32× and the problem by the same factor: the
//! *regime* (working set ≫ caches, ≫ TLB reach) is what produces the
//! paper's shapes, and it is scale-invariant. The full-parameter,
//! full-size check is the `calibrate` binary (see EXPERIMENTS.md for its
//! recorded output).

use archgraph::concomp::{sim_mta as cc_mta, sim_smp as cc_smp};
use archgraph::core::machine::{MtaParams, SmpParams};
use archgraph::graph::gen;
use archgraph::graph::list::LinkedList;
use archgraph::graph::rng::Rng;
use archgraph::listrank::{sequential_rank, sim_mta as lr_mta, sim_smp as lr_smp};
use archgraph_bench::workloads::{make_list, ListKind};

/// Sun E4500 parameters with cache/TLB geometry shrunk 32× (latencies and
/// clock unchanged), so a 2^16-element list is as far beyond the caches
/// as the paper's 20M-element list was beyond the real ones.
fn e4500_scaled() -> SmpParams {
    let mut p = SmpParams::sun_e4500();
    p.l1_bytes /= 32;
    p.l2_bytes /= 32;
    p.tlb_entries = 8;
    p.page_bytes = 1024;
    p
}

const N: usize = 1 << 16;
const P: usize = 8;
const STREAMS: usize = 100;

fn lists() -> (LinkedList, LinkedList) {
    (
        LinkedList::ordered(N),
        LinkedList::random(N, &mut Rng::new(1)),
    )
}

#[test]
fn c1_both_machines_scale_with_processors() {
    let (_, rnd) = lists();
    let smp = e4500_scaled();
    let mta = MtaParams::mta2();
    let s1 = lr_smp::simulate_hj(&rnd, &smp, 1, 8, 1).seconds;
    let s8 = lr_smp::simulate_hj(&rnd, &smp, 8, 8, 1).seconds;
    let m1 = lr_mta::simulate_walk_ranking(&rnd, &mta, 1, STREAMS, N / 10).seconds;
    let m8 = lr_mta::simulate_walk_ranking(&rnd, &mta, 8, STREAMS, N / 10).seconds;
    let smp_speedup = s1 / s8;
    let mta_speedup = m1 / m8;
    assert!(
        smp_speedup > 3.5,
        "SMP speedup at p=8 should be substantial: {smp_speedup}"
    );
    assert!(
        mta_speedup > 5.0,
        "MTA speedup at p=8 should be near-linear: {mta_speedup}"
    );
}

#[test]
fn c2_smp_ordered_beats_random_by_3_to_4x() {
    let (ord, rnd) = lists();
    let smp = e4500_scaled();
    let t_ord = lr_smp::simulate_hj(&ord, &smp, P, 8, 1).seconds;
    let t_rnd = lr_smp::simulate_hj(&rnd, &smp, P, 8, 1).seconds;
    let ratio = t_rnd / t_ord;
    assert!(
        (2.0..8.0).contains(&ratio),
        "SMP Random/Ordered ratio {ratio} outside the paper band (3-4x, we accept 2-8)"
    );
}

#[test]
fn c3_mta_is_layout_insensitive() {
    let (ord, rnd) = lists();
    let mta = MtaParams::mta2();
    let t_ord = lr_mta::simulate_walk_ranking(&ord, &mta, P, STREAMS, N / 10).seconds;
    let t_rnd = lr_mta::simulate_walk_ranking(&rnd, &mta, P, STREAMS, N / 10).seconds;
    let ratio = t_rnd / t_ord;
    assert!(
        (0.9..1.15).contains(&ratio),
        "MTA Random/Ordered ratio {ratio} should be ~1"
    );
}

#[test]
fn c4_mta_beats_smp_more_on_random_than_ordered() {
    let (ord, rnd) = lists();
    let smp = e4500_scaled();
    let mta = MtaParams::mta2();
    let r_ord = lr_smp::simulate_hj(&ord, &smp, P, 8, 1).seconds
        / lr_mta::simulate_walk_ranking(&ord, &mta, P, STREAMS, N / 10).seconds;
    let r_rnd = lr_smp::simulate_hj(&rnd, &smp, P, 8, 1).seconds
        / lr_mta::simulate_walk_ranking(&rnd, &mta, P, STREAMS, N / 10).seconds;
    assert!(
        r_ord > 3.0,
        "MTA should win clearly even on ordered lists: {r_ord}"
    );
    assert!(
        r_rnd > 15.0,
        "MTA should win by tens of x on random lists: {r_rnd}"
    );
    assert!(
        r_rnd > 2.0 * r_ord,
        "the random-list advantage must exceed the ordered one: {r_rnd} vs {r_ord}"
    );
}

#[test]
fn c5_mta_wins_connected_components_by_about_5x() {
    // Unlike the list kernels, CC's D-array working set interacts with
    // the TLB reach non-linearly, so shrunken geometry distorts the
    // ratio; use the real E4500 parameters at the calibration scale.
    let n = 1 << 14;
    let g = gen::random_gnm(n, 12 * n, 2);
    let smp = SmpParams::sun_e4500();
    let mta = MtaParams::mta2();
    let t_smp = cc_smp::simulate_sv(&g, &smp, P).seconds;
    let t_mta = cc_mta::simulate_sv_mta(&g, &mta, P, STREAMS).seconds;
    let ratio = t_smp / t_mta;
    assert!(
        (2.5..12.0).contains(&ratio),
        "MTA/SMP CC ratio {ratio} outside the accepted band around the paper's 5-6x"
    );
}

#[test]
fn c6_mta_utilization_is_high_and_falls_with_p() {
    let (_, rnd) = lists();
    let mta = MtaParams::mta2();
    let u1 = lr_mta::simulate_walk_ranking(&rnd, &mta, 1, STREAMS, N / 10)
        .report
        .utilization;
    let u8 = lr_mta::simulate_walk_ranking(&rnd, &mta, 8, STREAMS, N / 10)
        .report
        .utilization;
    assert!(u1 > 0.8, "p=1 utilization should be near full: {u1}");
    assert!(u8 > 0.5, "p=8 utilization should stay high: {u8}");
    assert!(
        u8 <= u1 + 0.02,
        "utilization should not rise with p: {u1} -> {u8}"
    );

    let n = 1 << 12;
    let g = gen::random_gnm(n, 20 * n, 3);
    let ucc = cc_mta::simulate_sv_mta(&g, &mta, 4, STREAMS)
        .report
        .utilization;
    assert!(ucc > 0.6, "CC utilization should be high: {ucc}");
}

/// ABL-GRAIN (§3): "100 streams per processor and approximately 10 list
/// nodes per walk" give "almost 100% utilization". Sweeping the grain at
/// p = 1 separates work from time. Claiming a walk is issued work, so
/// finer walks issue more and look busier: utilization and `issued` both
/// fall strictly as walks grow. Simulated time does not follow: it falls
/// to 40 nodes/walk, then rises as too few walks remain for 100 streams.
#[test]
fn abl_grain_finer_walks_look_busier_and_time_is_lowest_at_40_nodes() {
    const GRAINS: [usize; 6] = [2, 5, 10, 40, 160, 640];
    let n = 1 << 14;
    let list = make_list(ListKind::Random, n, 29);
    let oracle = sequential_rank(&list);
    let mta = MtaParams::mta2();
    let runs: Vec<lr_mta::MtaSimResult> = GRAINS
        .iter()
        .map(|&grain| {
            let r = lr_mta::simulate_walk_ranking(&list, &mta, 1, STREAMS, n / grain);
            assert!(
                r.rank == oracle,
                "{grain} nodes/walk: ranks differ from the oracle"
            );
            r
        })
        .collect();
    let readings: Vec<String> = GRAINS
        .iter()
        .zip(&runs)
        .map(|(grain, r)| {
            let (cycles, issued, util) = (r.report.cycles, r.report.issued, r.report.utilization);
            format!("{grain} nodes/walk: ({cycles}, {issued}, {util:.4})")
        })
        .collect();
    let falls = |xs: &[f64]| xs.windows(2).all(|w| w[1] < w[0]);
    let rises = |xs: &[f64]| xs.windows(2).all(|w| w[1] > w[0]);
    let util: Vec<f64> = runs.iter().map(|r| r.report.utilization).collect();
    let issued: Vec<f64> = runs.iter().map(|r| r.report.issued as f64).collect();
    let secs: Vec<f64> = runs.iter().map(|r| r.seconds).collect();
    // GRAINS[3] is 40 nodes/walk.
    assert!(
        falls(&util) && falls(&issued) && falls(&secs[..=3]) && rises(&secs[3..]),
        "(cycles, issued, utilization) off the ABL-GRAIN shape:\n{}",
        readings.join("\n")
    );
}
