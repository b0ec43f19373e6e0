//! Kernel sweep for the ladder kernels on the simulated MTA: speculative
//! coloring must come out proper and frontier BFS must reproduce the host
//! oracle's levels under both frontier schedules, on random and structured
//! graphs across machine shapes. The native kernels are held to the same
//! oracles on generated G(n, m) graphs, and named shapes pin when native
//! BFS goes bottom-up.
//!
//! This is the kernel-level echo of the ISA-level loop goldens in
//! `crates/mta-sim/tests/loop_golden.rs`: that suite pins the issue
//! loop on small programs; this one checks the *kernels we actually
//! benchmark* against their oracles off the suite's fixed inputs.

use proptest::prelude::*;

use archgraph::bfs::native::{parallel_bfs, NativeBfs};
use archgraph::bfs::sim_mta::{try_simulate_bfs_mta, BfsSchedule};
use archgraph::coloring::native::speculative_coloring;
use archgraph::coloring::seq::validate_coloring;
use archgraph::coloring::sim_mta::simulate_coloring_mta;
use archgraph::core::machine::MtaParams;
use archgraph::graph::bfs::{bfs_levels, level_count};
use archgraph::graph::csr::Csr;
use archgraph::graph::edgelist::{Edge, EdgeList};
use archgraph::graph::gen;

fn assert_coloring_proper(g: &EdgeList, p: usize, streams: usize) {
    let r = simulate_coloring_mta(g, &MtaParams::tiny_for_tests(), p, streams);
    validate_coloring(&Csr::from_edge_list(g), &r.colors).expect("colors proper");
    assert!(r.rounds >= 1);
}

fn assert_bfs_matches_the_oracle(g: &EdgeList, src: u32, p: usize, streams: usize) {
    let params = MtaParams::tiny_for_tests();
    let want = bfs_levels(&Csr::from_edge_list(g), src);
    let run =
        |sched| try_simulate_bfs_mta(g, src, &params, p, streams, sched).expect("clean BFS run");
    let dynamic = run(BfsSchedule::Dynamic);
    let block = run(BfsSchedule::Block);
    assert_eq!(dynamic.levels, want, "levels wrong under Dynamic");
    assert_eq!(block.levels, want, "levels wrong under Block");
    assert_eq!(dynamic.level_count, block.level_count);
}

/// Native BFS from `src` against the queue oracle; returns the run.
fn native_bfs_matches_the_oracle(g: &EdgeList, src: u32) -> NativeBfs {
    let csr = Csr::from_edge_list(g);
    let want = bfs_levels(&csr, src);
    let r = parallel_bfs(&csr, src);
    assert_eq!(r.levels, want, "native levels wrong from {src}");
    assert_eq!(r.level_count, level_count(&want));
    assert!(r.bottom_up_levels <= r.level_count);
    r
}

/// Native coloring is proper, within Δ + 1 colors, in at most n rounds.
fn native_coloring_is_proper(g: &EdgeList) {
    let csr = Csr::from_edge_list(g);
    let r = speculative_coloring(&csr);
    validate_coloring(&csr, &r.colors).expect("native colors proper and ≤ Δ + 1");
    assert!(r.rounds <= g.n, "{} rounds for {} vertices", r.rounds, g.n);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random G(n, m) graphs from a random source: native BFS (either
    /// direction, whichever the run picks) gives the oracle's levels.
    #[test]
    fn native_bfs_matches_the_oracle_on_random_graphs(
        n in 1usize..3000,
        density in 0usize..24,
        seed in 0u64..1000,
        src in 0usize..3000,
    ) {
        let g = gen::random_gnm(n, (n * density / 2).min(gen::max_edges(n)), seed);
        native_bfs_matches_the_oracle(&g, (src % n) as u32);
    }

    /// Random G(n, m) graphs: native coloring is proper.
    #[test]
    fn native_coloring_is_proper_on_random_graphs(
        n in 1usize..3000,
        density in 0usize..24,
        seed in 0u64..1000,
    ) {
        let g = gen::random_gnm(n, (n * density / 2).min(gen::max_edges(n)), seed);
        native_coloring_is_proper(&g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random G(n, m) graphs across machine shapes: coloring is proper.
    #[test]
    fn coloring_is_proper_on_random_graphs(
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
    fn bfs_matches_the_oracle_on_random_graphs(
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
fn structured_graphs_color_properly_and_match_the_bfs_oracle() {
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
fn bench_cell_shape_colors_properly_and_matches_the_bfs_oracle() {
    let g = archgraph_bench::workloads::make_graph(256, 640, archgraph_bench::kernels::GRAPH_SEED);
    assert_coloring_proper(&g, 4, 8);
    assert_bfs_matches_the_oracle(&g, 0, 4, 8);
}

/// A path has no wide level: native BFS never leaves top-down.
#[test]
fn native_bfs_keeps_a_path_top_down() {
    for src in [0, 150, 299] {
        let r = native_bfs_matches_the_oracle(&gen::path(300), src);
        assert_eq!(r.bottom_up_levels, 0, "from {src}");
    }
}

/// From its centre a star's first expansion is every arc: it runs
/// bottom-up, and so does the empty expansion after it.
#[test]
fn native_bfs_takes_a_star_bottom_up_at_level_one() {
    let r = native_bfs_matches_the_oracle(&gen::star(5000), 0);
    assert_eq!((r.level_count, r.bottom_up_levels), (2, 2));
}

/// G(2^14, 8·2^14) with a 200-vertex path hung off it: the wide middle
/// levels run bottom-up, and the tail's one-vertex frontiers top-down again.
#[test]
fn native_bfs_returns_top_down_for_a_thin_tail() {
    let (n, tail) = (1 << 14, 200);
    let mut g = gen::random_gnm(n, 8 * n, 11);
    g.append_shifted(&gen::path(tail), n);
    g.edges.push(Edge::new(1, n as u32));
    let r = native_bfs_matches_the_oracle(&g, 0);
    assert!(r.bottom_up_levels > 0, "never went bottom-up");
    assert!(
        r.level_count - r.bottom_up_levels >= tail,
        "{} of {} levels bottom-up: the tail did not run top-down",
        r.bottom_up_levels,
        r.level_count
    );
}

/// The structured shapes and the bench-cell shape, natively.
#[test]
fn native_kernels_handle_structured_graphs() {
    for g in [
        gen::path(60),
        gen::star(48),
        gen::complete(10),
        gen::mesh2d(7, 7),
        gen::binary_tree(255),
        gen::with_isolated(&gen::path(20), 6),
        EdgeList::empty(24),
        archgraph_bench::workloads::make_graph(256, 640, archgraph_bench::kernels::GRAPH_SEED),
    ] {
        native_coloring_is_proper(&g);
        for src in [0, (g.n / 2) as u32] {
            native_bfs_matches_the_oracle(&g, src);
        }
    }
}
