//! Engine-differential sweep for the ladder kernels: speculative
//! coloring and frontier BFS must be **bit-identical** on both MTA
//! engines (SingleStep, Trace) — same outputs (colors / levels), same
//! round and level counts, and the same full [`RunReport`] (cycles,
//! issued, op mix, memory counters).
//!
//! This is the kernel-level echo of the ISA-level differential suite in
//! `crates/mta-sim/tests/trace_differential.rs`: the ISA suite proves the
//! engines agree on arbitrary programs; this one proves the *kernels we
//! actually benchmark* exercise no path that breaks the contract — the
//! bench baseline's per-engine fingerprint identity is a consequence.

use proptest::prelude::*;

use archgraph::bfs::sim_mta::{try_simulate_bfs_mta_scheduled, BfsSchedule};
use archgraph::coloring::seq::validate_coloring;
use archgraph::coloring::sim_mta::simulate_coloring_mta;
use archgraph::core::machine::MtaParams;
use archgraph::graph::bfs::bfs_levels;
use archgraph::graph::csr::Csr;
use archgraph::graph::edgelist::EdgeList;
use archgraph::graph::gen;
use archgraph::mta::machine::{with_engine, MtaEngine};

fn assert_coloring_engine_invariant(g: &EdgeList, p: usize, streams: usize) {
    let params = MtaParams::tiny_for_tests();
    let run = |eng: MtaEngine| with_engine(eng, || simulate_coloring_mta(g, &params, p, streams));
    let oracle = run(MtaEngine::SingleStep);
    validate_coloring(&Csr::from_edge_list(g), &oracle.colors).expect("oracle colors proper");
    let r = run(MtaEngine::Trace);
    assert_eq!(r.colors, oracle.colors, "Trace colors diverged");
    assert_eq!(r.rounds, oracle.rounds, "Trace rounds diverged");
    assert_eq!(r.report, oracle.report, "Trace report diverged");
}

fn assert_bfs_engine_invariant(g: &EdgeList, src: u32, p: usize, streams: usize) {
    let params = MtaParams::tiny_for_tests();
    let run = |eng: MtaEngine, sched: BfsSchedule| {
        with_engine(eng, || {
            try_simulate_bfs_mta_scheduled(g, src, &params, p, streams, sched)
                .expect("clean BFS run")
        })
    };
    for sched in [BfsSchedule::Dynamic, BfsSchedule::Block] {
        let oracle = run(MtaEngine::SingleStep, sched);
        assert_eq!(
            oracle.levels,
            bfs_levels(&Csr::from_edge_list(g), src),
            "oracle levels wrong under {sched:?}"
        );
        let r = run(MtaEngine::Trace, sched);
        assert_eq!(r.levels, oracle.levels, "Trace/{sched:?} levels diverged");
        assert_eq!(
            r.level_count, oracle.level_count,
            "Trace/{sched:?} level count diverged"
        );
        assert_eq!(r.report, oracle.report, "Trace/{sched:?} report diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random G(n, m) graphs across machine shapes: coloring is
    /// bit-identical on both engines.
    #[test]
    fn coloring_is_engine_invariant_on_random_graphs(
        n in 16usize..80,
        density in 0usize..4,
        seed in 0u64..1000,
        shape in 0usize..3,
    ) {
        let m = n * density / 2;
        let g = gen::random_gnm(n, m, seed);
        let (p, streams) = [(1, 4), (2, 3), (2, 8)][shape];
        assert_coloring_engine_invariant(&g, p, streams);
    }

    /// Random G(n, m) graphs across machine shapes: BFS is bit-identical
    /// on both engines, under both frontier schedules.
    #[test]
    fn bfs_is_engine_invariant_on_random_graphs(
        n in 16usize..80,
        density in 0usize..4,
        seed in 0u64..1000,
        shape in 0usize..3,
    ) {
        let m = n * density / 2;
        let g = gen::random_gnm(n, m, seed);
        let (p, streams) = [(1, 4), (2, 3), (2, 8)][shape];
        assert_bfs_engine_invariant(&g, (seed % n as u64) as u32, p, streams);
    }
}

/// Structured graphs hit the degenerate schedules (empty rows, one huge
/// row, long dependence chains) that random G(n, m) rarely produces.
#[test]
fn structured_graphs_are_engine_invariant() {
    for g in [
        gen::path(60),
        gen::star(48),
        gen::complete(10),
        gen::mesh2d(7, 7),
        gen::with_isolated(&gen::path(20), 6),
        EdgeList::empty(24),
    ] {
        assert_coloring_engine_invariant(&g, 2, 5);
        assert_bfs_engine_invariant(&g, 0, 2, 5);
    }
}

/// The exact bench-cell shape (scaled down): the per-engine fingerprint
/// identity that `BENCH_archgraph.json` pins is reproduced here as a
/// standing regression.
#[test]
fn bench_cell_shape_is_engine_invariant() {
    let g = archgraph_bench::workloads::make_graph(256, 640, archgraph_bench::kernels::GRAPH_SEED);
    assert_coloring_engine_invariant(&g, 4, 8);
    assert_bfs_engine_invariant(&g, 0, 4, 8);
}
