//! Reproducibility: everything keyed by a seed must be bit-identical
//! across runs — workloads, simulated times, and figure series.

use archgraph_bench::workloads::{make_graph, make_list, ListKind};
use archgraph_bench::{fig1, fig2, table1, MachineKind, PanelSweep, Scale};
use archgraph_core::machine::{MtaParams, SmpParams};
use archgraph_listrank::{sim_mta, sim_smp};

#[test]
fn workloads_are_seed_deterministic() {
    assert_eq!(
        make_list(ListKind::Random, 5000, 9),
        make_list(ListKind::Random, 5000, 9)
    );
    assert_ne!(
        make_list(ListKind::Random, 5000, 9),
        make_list(ListKind::Random, 5000, 10)
    );
    assert_eq!(make_graph(500, 2000, 3), make_graph(500, 2000, 3));
}

#[test]
fn simulated_times_are_deterministic() {
    let list = make_list(ListKind::Random, 4096, 4);
    let smp = SmpParams::sun_e4500();
    let mta = MtaParams::mta2();
    let a = sim_smp::simulate_hj(&list, &smp, 4, 8, 4);
    let b = sim_smp::simulate_hj(&list, &smp, 4, 8, 4);
    assert_eq!(a.seconds, b.seconds);
    assert_eq!(a.stats, b.stats);
    let a = sim_mta::simulate_walk_ranking(&list, &mta, 2, 16, 400);
    let b = sim_mta::simulate_walk_ranking(&list, &mta, 2, 16, 400);
    assert_eq!(a.report.cycles, b.report.cycles);
    assert_eq!(a.report.issued, b.report.issued);
    assert_eq!(a.rank, b.rank);
}

#[test]
fn figure_series_are_deterministic() {
    let series = |sw: PanelSweep| {
        assert!(sw.failures.is_empty(), "{:?}", sw.failures);
        sw.series
    };
    let fig1_smp = || series(fig1::sweep(Scale::Smoke, MachineKind::Smp));
    assert_eq!(fig1_smp(), fig1_smp());
    let fig2_mta = || series(fig2::sweep(Scale::Smoke, MachineKind::Mta));
    assert_eq!(fig2_mta(), fig2_mta());
    let table = || series(table1::sweep(Scale::Smoke));
    assert_eq!(table(), table());
}

#[test]
fn native_racy_algorithms_still_give_stable_partitions() {
    // The native SV uses relaxed atomics, so the order of its writes
    // varies run to run, but every write lowers a label and a root is its
    // tree's minimum: the labels come out as the component minima, the
    // same on every run.
    let g = make_graph(2000, 8000, 7);
    let a = archgraph::concomp::shiloach_vishkin(&g);
    let b = archgraph::concomp::shiloach_vishkin(&g);
    assert_eq!(a, b);
    assert_eq!(a, archgraph::graph::unionfind::connected_components(&g));
}
