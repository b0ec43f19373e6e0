//! Level-synchronous frontier BFS on the simulated SMP.
//!
//! One barrier-separated phase per level: the frontier is partitioned
//! contiguously across processors, and every edge out of it makes the
//! non-contiguous `dist[w]` read the cost model charges for — the
//! dominant term, since BFS does almost no arithmetic per edge. A
//! discovered vertex costs one more non-contiguous write. The barrier
//! per level is BFS's structural serialization: diameter × barrier cost,
//! the SMP-side analogue of the paper's `4 log n` barrier term for SV.
//!
//! Reached by: the `bfs/smp/p8` suite cell.

use archgraph_core::error::SimError;
use archgraph_core::machine::SmpParams;
use archgraph_graph::csr::Csr;
use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::{Node, NIL};
use archgraph_smp_sim::machine::SmpMachine;
use archgraph_smp_sim::stats::RunStats;

/// Result of a simulated SMP BFS run.
#[derive(Debug, Clone)]
pub struct BfsSmpSimResult {
    /// `levels[v]` = BFS level from the source, [`NIL`] if unreachable.
    pub levels: Vec<Node>,
    /// Simulated seconds.
    pub seconds: f64,
    /// Aggregate machine statistics.
    pub stats: RunStats,
    /// Number of frontier expansions.
    pub level_count: usize,
}

const EDGE_INSTRS: u64 = 3;

/// Simulate frontier BFS from `src` on `p` processors, panicking on
/// simulation failure (legacy-style entry point).
pub fn simulate_bfs_smp(g: &EdgeList, src: Node, params: &SmpParams, p: usize) -> BfsSmpSimResult {
    try_simulate_bfs_smp(g, src, params, p).unwrap_or_else(|e| panic!("simulate_bfs_smp: {e}"))
}

/// [`simulate_bfs_smp`] returning structured failures.
pub fn try_simulate_bfs_smp(
    g: &EdgeList,
    src: Node,
    params: &SmpParams,
    p: usize,
) -> Result<BfsSmpSimResult, SimError> {
    let csr = Csr::from_edge_list(g);
    let n = csr.n();
    assert!((src as usize) < n, "source out of range");
    let mut m = SmpMachine::new(params.clone(), p);
    let rowptr_a = m.alloc_elems::<u32>(n + 1);
    let adj_a = m.alloc_elems::<u32>(csr.arc_count());
    let dist_a = m.alloc_elems::<u32>(n);
    let frontier_a = m.alloc_elems::<u32>(n);

    let mut levels = vec![NIL; n];
    levels[src as usize] = 0;
    let mut frontier: Vec<Node> = vec![src];
    let mut level_count = 0usize;

    while !frontier.is_empty() {
        level_count += 1;
        assert!(level_count <= n, "BFS exceeded n levels");
        let next_level = level_count as Node;
        let mut next: Vec<Node> = Vec::new();
        {
            let levels_ref = &mut levels;
            let next_ref = &mut next;
            let f = &frontier;
            let csr = &csr;
            m.try_phase("bfs-level", move |proc, ctx| {
                let len = f.len();
                let chunk = len.div_ceil(p);
                let (lo, hi) = ((proc * chunk).min(len), ((proc + 1) * chunk).min(len));
                for (k, &v) in f[lo..hi].iter().enumerate() {
                    ctx.read_elem(frontier_a, lo + k);
                    ctx.read_elem(rowptr_a, v as usize);
                    ctx.read_elem(rowptr_a, v as usize + 1);
                    for (j, &w) in csr.neighbors(v).iter().enumerate() {
                        ctx.read_elem(adj_a, csr.offsets[v as usize] + j);
                        ctx.read_elem(dist_a, w as usize);
                        ctx.compute(EDGE_INSTRS);
                        if levels_ref[w as usize] == NIL {
                            levels_ref[w as usize] = next_level;
                            ctx.write_elem(dist_a, w as usize);
                            next_ref.push(w);
                            ctx.write_elem(frontier_a, next_ref.len() - 1);
                        }
                    }
                }
            })?;
        }
        frontier = next;
    }

    Ok(BfsSmpSimResult {
        levels,
        seconds: m.seconds(),
        stats: m.stats(),
        level_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::bfs::{bfs_levels, level_count};
    use archgraph_graph::gen;

    fn tiny() -> SmpParams {
        SmpParams::tiny_for_tests()
    }

    #[test]
    fn simulated_levels_match_oracle() {
        for (n, mm, seed) in [(60usize, 150usize, 1u64), (300, 900, 2), (800, 4000, 3)] {
            let g = gen::random_gnm(n, mm, seed);
            let csr = Csr::from_edge_list(&g);
            let oracle = bfs_levels(&csr, 0);
            for p in [1usize, 2, 4] {
                let r = simulate_bfs_smp(&g, 0, &tiny(), p);
                assert_eq!(r.levels, oracle, "n={n} m={mm} p={p}");
                assert_eq!(r.level_count, level_count(&oracle).max(1));
                assert!(r.seconds > 0.0);
            }
        }
    }

    #[test]
    fn structured_graphs() {
        for el in [
            gen::path(100),
            gen::star(90),
            gen::binary_tree(63),
            gen::mesh2d(9, 9),
        ] {
            let csr = Csr::from_edge_list(&el);
            let r = simulate_bfs_smp(&el, 0, &tiny(), 2);
            assert_eq!(r.levels, bfs_levels(&csr, 0));
        }
    }

    #[test]
    fn try_variant_matches_wrapper() {
        let g = gen::random_gnm(150, 400, 6);
        let a = try_simulate_bfs_smp(&g, 3, &tiny(), 2).expect("clean run");
        let b = simulate_bfs_smp(&g, 3, &tiny(), 2);
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.level_count, b.level_count);
    }

    #[test]
    fn isolated_source_terminates_immediately() {
        let g = gen::with_isolated(&gen::path(5), 3);
        let r = simulate_bfs_smp(&g, 6, &tiny(), 2);
        assert_eq!(r.level_count, 1);
        assert_eq!(r.levels[6], 0);
    }

    #[test]
    fn more_processors_reduce_time() {
        let g = gen::random_gnm(3000, 15_000, 7);
        let t1 = simulate_bfs_smp(&g, 0, &tiny(), 1).seconds;
        let t4 = simulate_bfs_smp(&g, 0, &tiny(), 4).seconds;
        assert!(t1 / t4 > 1.5, "speedup {}", t1 / t4);
    }
}
