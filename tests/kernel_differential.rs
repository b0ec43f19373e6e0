//! Kernel sweep for the ladder kernels on the simulated MTA: speculative
//! coloring must come out proper and frontier BFS must reproduce the host
//! oracle's levels under both frontier schedules, on random and structured
//! graphs across machine shapes.
//!
//! This is the kernel-level echo of the ISA-level loop goldens in
//! `crates/mta-sim/tests/trace_differential.rs`: that suite pins the issue
//! loop on small programs; this one checks the *kernels we actually
//! benchmark* against their oracles off the suite's fixed inputs. (Test
//! names that say "engine invariant" date from when each check ran under
//! two issue loops; they are kept so the tier-1 test list does not move.)

use proptest::prelude::*;

use archgraph::bfs::sim_mta::{try_simulate_bfs_mta_scheduled, BfsSchedule};
use archgraph::coloring::seq::validate_coloring;
use archgraph::coloring::sim_mta::simulate_coloring_mta;
use archgraph::core::machine::MtaParams;
use archgraph::graph::bfs::bfs_levels;
use archgraph::graph::csr::Csr;
use archgraph::graph::edgelist::EdgeList;
use archgraph::graph::gen;

fn assert_coloring_proper(g: &EdgeList, p: usize, streams: usize) {
    let r = simulate_coloring_mta(g, &MtaParams::tiny_for_tests(), p, streams);
    validate_coloring(&Csr::from_edge_list(g), &r.colors).expect("colors proper");
    assert!(r.rounds >= 1);
}

fn assert_bfs_matches_the_oracle(g: &EdgeList, src: u32, p: usize, streams: usize) {
    let params = MtaParams::tiny_for_tests();
    let want = bfs_levels(&Csr::from_edge_list(g), src);
    let run = |sched| {
        try_simulate_bfs_mta_scheduled(g, src, &params, p, streams, sched).expect("clean BFS run")
    };
    let dynamic = run(BfsSchedule::Dynamic);
    let block = run(BfsSchedule::Block);
    assert_eq!(dynamic.levels, want, "levels wrong under Dynamic");
    assert_eq!(block.levels, want, "levels wrong under Block");
    assert_eq!(dynamic.level_count, block.level_count);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random G(n, m) graphs across machine shapes: coloring is proper.
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
        assert_coloring_proper(&g, p, streams);
    }

    /// Random G(n, m) graphs across machine shapes: BFS levels are the
    /// host oracle's under both frontier schedules.
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
        assert_bfs_matches_the_oracle(&g, (seed % n as u64) as u32, p, streams);
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
        assert_coloring_proper(&g, 2, 5);
        assert_bfs_matches_the_oracle(&g, 0, 2, 5);
    }
}

/// The exact bench-cell shape (scaled down).
#[test]
fn bench_cell_shape_is_engine_invariant() {
    let g = archgraph_bench::workloads::make_graph(256, 640, archgraph_bench::kernels::GRAPH_SEED);
    assert_coloring_proper(&g, 4, 8);
    assert_bfs_matches_the_oracle(&g, 0, 4, 8);
}
