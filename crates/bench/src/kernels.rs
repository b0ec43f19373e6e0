//! Kernel-ladder cells: speculative graph coloring, frontier BFS, and
//! the promoted application kernels (Euler-tour ranking, minimum
//! spanning forest, biconnected components).
//!
//! These follow the `fig1`/`fig2` cell conventions — a deterministically
//! seeded workload, the paper's machine parameters, and an oracle check
//! inside every cell (a `debug_assert` in the simulated cells; an `assert`
//! in the native ones, whose fingerprints are counts a release build would
//! otherwise pin unchecked) — and feed the `bench` regression
//! driver, which pins their exact simulated fingerprints in
//! `BENCH_archgraph.json`.
//!
//! Reached by: the `color/*`, `bfs/*`, `sync/*`, `euler/*`, `msf/*` and `biconn/*` suite cells.

use archgraph_apps::biconn::{biconnected_components, biconnected_oracle};
use archgraph_apps::euler::Ranker;
use archgraph_apps::msf::{kruskal_weight, minimum_spanning_forest};
use archgraph_apps::sim::{simulate_euler_mta, simulate_euler_smp, EulerMtaSim, EulerSmpSim};
use archgraph_apps::tree::Tree;
use archgraph_apps::EulerTour;
use archgraph_bfs::sim_mta::{simulate_bfs_mta, BfsMtaSimResult};
use archgraph_bfs::sim_smp::{simulate_bfs_smp, BfsSmpSimResult};
use archgraph_coloring::seq::validate_coloring;
use archgraph_coloring::sim_mta::{simulate_coloring_mta, ColorMtaSimResult};
use archgraph_coloring::sim_smp::{simulate_coloring_smp, ColorSmpSimResult};
use archgraph_core::machine::{MtaParams, SmpParams};
use archgraph_graph::bfs::bfs_levels;
use archgraph_graph::csr::Csr;
use archgraph_graph::rng::Rng;
use archgraph_graph::unionfind::same_partition;
use archgraph_mta_sim::isa::Reg;
use archgraph_mta_sim::machine::MtaMachine;
use archgraph_mta_sim::parloop::{dynamic_loop_grained_mem, LoopRegs};
use archgraph_mta_sim::report::{combine, RunReport};

use crate::fig1::MTA_STREAMS;
use crate::workloads::make_graph;

/// Seed for the cells' random graphs.
pub const GRAPH_SEED: u64 = 0xC010;

/// Seed for the Euler-tour tree and the MSF edge weights.
pub const APP_SEED: u64 = 0xA995;

/// BFS source vertex (fixed; the graphs are seeded, so levels are too).
pub const BFS_SRC: u32 = 0;

/// Simulate one speculative-coloring MTA cell.
pub fn color_mta_cell(p: usize, n: usize, m: usize) -> ColorMtaSimResult {
    let params = MtaParams::mta2();
    let g = make_graph(n, m, GRAPH_SEED);
    let r = simulate_coloring_mta(&g, &params, p, MTA_STREAMS);
    debug_assert!(validate_coloring(&Csr::from_edge_list(&g), &r.colors).is_ok());
    r
}

/// Simulate one speculative-coloring SMP cell.
pub fn color_smp_cell(p: usize, n: usize, m: usize) -> ColorSmpSimResult {
    let params = SmpParams::sun_e4500();
    let g = make_graph(n, m, GRAPH_SEED);
    let r = simulate_coloring_smp(&g, &params, p);
    debug_assert!(validate_coloring(&Csr::from_edge_list(&g), &r.colors).is_ok());
    r
}

/// Simulate one frontier-BFS MTA cell.
pub fn bfs_mta_cell(p: usize, n: usize, m: usize) -> BfsMtaSimResult {
    let params = MtaParams::mta2();
    let g = make_graph(n, m, GRAPH_SEED);
    let r = simulate_bfs_mta(&g, BFS_SRC, &params, p, MTA_STREAMS);
    debug_assert_eq!(r.levels, bfs_levels(&Csr::from_edge_list(&g), BFS_SRC));
    r
}

/// Simulate one frontier-BFS SMP cell.
pub fn bfs_smp_cell(p: usize, n: usize, m: usize) -> BfsSmpSimResult {
    let params = SmpParams::sun_e4500();
    let g = make_graph(n, m, GRAPH_SEED);
    let r = simulate_bfs_smp(&g, BFS_SRC, &params, p);
    debug_assert_eq!(r.levels, bfs_levels(&Csr::from_edge_list(&g), BFS_SRC));
    r
}

/// The tree every Euler cell ranks (deterministic per seed).
fn euler_tree(n: usize) -> Tree {
    Tree::random_attachment(n, APP_SEED)
}

/// Rank the Euler tour of an `n`-vertex random tree on the simulated
/// MTA. Walk heads follow fig1's ~10-nodes-per-walk convention over the
/// tour's `2(n−1)` arcs.
pub fn euler_mta_cell(p: usize, n: usize) -> EulerMtaSim {
    let params = MtaParams::mta2();
    let t = euler_tree(n);
    let walks = (2 * (n - 1) / 10).max(1);
    let r = simulate_euler_mta(&t, 0, &params, p, MTA_STREAMS, walks);
    debug_assert_eq!(r.tour.rank, EulerTour::new(&t, 0, Ranker::Sequential).rank);
    r
}

/// Rank the Euler tour of an `n`-vertex random tree on the simulated SMP
/// (Helman–JáJá with fig1's 8 sublists per processor).
pub fn euler_smp_cell(p: usize, n: usize) -> EulerSmpSim {
    let params = SmpParams::sun_e4500();
    let t = euler_tree(n);
    let r = simulate_euler_smp(&t, 0, &params, p, 8);
    debug_assert_eq!(r.tour.rank, EulerTour::new(&t, 0, Ranker::Sequential).rank);
    r
}

/// Result of the readfe-contended sync cell.
#[derive(Debug, Clone)]
pub struct SyncMtaSim {
    /// Combined report (cycles, issue counts).
    pub report: RunReport,
    /// Sum over the accumulator array; order-independent.
    pub checksum: u64,
}

/// Simulate the readfe-contended accumulation cell: every arc `u→w`
/// atomically folds its arc id into `acc[w]` through a `readfe` /
/// `writeef` pair, so each vertex's accumulator word serializes its
/// in-arcs through the full/empty tag. High-degree vertices make this
/// the suite's most tag-contended region — the cell exists to keep the
/// blocked-retry path under the bench baseline, not just the
/// differential tests.
pub fn sync_mta_cell(p: usize, n: usize, m: usize) -> SyncMtaSim {
    let params = MtaParams::mta2();
    let g = make_graph(n, m, GRAPH_SEED);
    let csr = Csr::from_edge_list(&g);
    let na = csr.arc_count();
    let words = na + n + 16;
    let mut mach = MtaMachine::with_memory_words(params, p, words);

    let adj_base = {
        let vals: Vec<i64> = csr.targets.iter().map(|&t| t as i64).collect();
        mach.memory_mut().alloc_init(&vals)
    };
    let acc_base = mach.memory_mut().alloc_init(&vec![0i64; n]);
    let counter_addr = mach.memory_mut().alloc(1);
    let size_addr = mach.memory_mut().alloc(1);
    mach.memory_mut().poke(size_addr, na as i64);

    let regs = LoopRegs::standard();
    let mut b = archgraph_mta_sim::isa::ProgramBuilder::new();
    let (w, t, s) = (Reg(6), Reg(7), Reg(8));
    dynamic_loop_grained_mem(&mut b, counter_addr, size_addr, 8, regs, |b| {
        b.load(w, regs.idx, adj_base as i64);
        b.readfe(t, w, acc_base as i64); // empty the word, park rivals
        b.addi(s, regs.idx, 1); // arc ids start at 1, never a no-op add
        b.add(t, t, s);
        b.writeef(t, w, acc_base as i64); // refill; rivals race for it
    });
    b.halt();
    let prog = b.build();

    mach.run(&prog, MTA_STREAMS, |_, _| {});

    let acc = mach.memory().peek_slice(acc_base, n);
    let mut oracle = vec![0i64; n];
    for (idx, &w) in csr.targets.iter().enumerate() {
        oracle[w as usize] += idx as i64 + 1;
    }
    debug_assert_eq!(acc, oracle, "sync accumulation must match the host");
    let checksum = acc.iter().map(|&x| x as u64).sum();
    SyncMtaSim {
        report: combine(mach.reports()),
        checksum,
    }
}

/// Deterministic integers fingerprinting the native MSF cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsfNative {
    /// Total weight of the forest (equals the Kruskal oracle's weight).
    pub weight: u64,
    /// Number of forest edges selected.
    pub tree_edges: u64,
}

/// Run Borůvka-over-SV MSF natively on a seeded weighted graph; the
/// fingerprint is the forest weight (checked against the Kruskal oracle)
/// plus the forest edge count.
pub fn msf_native_cell(n: usize, m: usize) -> MsfNative {
    let g = make_graph(n, m, GRAPH_SEED);
    let mut rng = Rng::new(APP_SEED);
    let weights: Vec<u32> = (0..g.m()).map(|_| rng.below(1 << 20) as u32).collect();
    let forest = minimum_spanning_forest(&g, &weights);
    let weight: u64 = forest.iter().map(|&e| weights[e] as u64).sum();
    assert_eq!(
        weight,
        kruskal_weight(&g, &weights),
        "MSF weight != Kruskal"
    );
    MsfNative {
        weight,
        tree_edges: forest.len() as u64,
    }
}

/// Deterministic integers fingerprinting the native biconnectivity cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiconnNative {
    /// Number of biconnected blocks.
    pub blocks: u64,
    /// Number of bridge edges.
    pub bridges: u64,
    /// Number of articulation (cut) vertices.
    pub cut_vertices: u64,
}

/// Run Tarjan–Vishkin biconnectivity natively on a seeded graph; the
/// block partition is checked against the sequential oracle and the
/// fingerprint is the block/bridge/cut-vertex counts.
pub fn biconn_native_cell(n: usize, m: usize) -> BiconnNative {
    let g = make_graph(n, m, GRAPH_SEED);
    let b = biconnected_components(&g);
    assert!(
        same_partition(&b.block_of_edge, &biconnected_oracle(&g)),
        "blocks != Hopcroft–Tarjan"
    );
    BiconnNative {
        blocks: b.n_blocks as u64,
        bridges: b.bridges.len() as u64,
        cut_vertices: b.articulation.iter().filter(|&&a| a).count() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coloring_cells_are_proper() {
        let csr = Csr::from_edge_list(&make_graph(128, 384, GRAPH_SEED));
        let mta = color_mta_cell(2, 128, 384);
        validate_coloring(&csr, &mta.colors).expect("MTA cell colors proper");
        let smp = color_smp_cell(4, 128, 384);
        validate_coloring(&csr, &smp.colors).expect("SMP cell colors proper");
    }

    #[test]
    fn bfs_cells_match_the_oracle_and_each_other() {
        let mta = bfs_mta_cell(2, 128, 384);
        let smp = bfs_smp_cell(4, 128, 384);
        assert_eq!(mta.levels, smp.levels);
        assert_eq!(mta.level_count, smp.level_count);
    }

    #[test]
    fn euler_cells_agree_on_ranks() {
        let mta = euler_mta_cell(2, 128);
        let smp = euler_smp_cell(2, 128);
        assert_eq!(mta.tour.rank, smp.tour.rank);
    }

    #[test]
    fn sync_cell_goes_through_the_tags() {
        // The cell checks its accumulators against the host itself.
        let r = sync_mta_cell(2, 128, 384);
        assert!(r.checksum > 0);
        assert!(
            r.report.mem.sync_ops > 0,
            "the cell must go through the tags"
        );
    }

    #[test]
    fn native_cells_are_deterministic() {
        let a = msf_native_cell(128, 384);
        assert_eq!(a, msf_native_cell(128, 384));
        assert!(a.weight > 0);
        assert!(a.tree_edges > 0);
        let b = biconn_native_cell(128, 384);
        assert_eq!(b, biconn_native_cell(128, 384));
        assert!(b.blocks > 0);
    }
}
