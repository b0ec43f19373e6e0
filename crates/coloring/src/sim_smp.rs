//! Speculative coloring on the simulated SMP.
//!
//! Each round is two barrier-separated phases. `speculate` partitions the
//! worklist contiguously across processors and first-fits every vertex
//! against a *snapshot* of the colors from the round start — exactly the
//! information a real SMP run can rely on without extra synchronization,
//! and the reason conflicts genuinely occur: two adjacent worklist
//! vertices see each other uncolored (or stale) and may pick the same
//! color. `detect` then re-reads the committed colors and re-queues the
//! higher endpoint of every monochromatic edge.
//!
//! The cost model sees what the paper's SMP analysis cares about: per
//! vertex a couple of contiguous worklist/row-pointer reads, then one
//! *non-contiguous* color read per neighbor — the dominant term — plus
//! the color write-back.
//!
//! Reached by: the `color/smp/p8` suite cell.

use archgraph_core::error::SimError;
use archgraph_core::machine::SmpParams;
use archgraph_graph::csr::Csr;
use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::Node;
use archgraph_smp_sim::machine::SmpMachine;
use archgraph_smp_sim::stats::RunStats;

/// Result of a simulated SMP coloring run.
#[derive(Debug, Clone)]
pub struct ColorSmpSimResult {
    /// Proper colors in `0..=Δ`.
    pub colors: Vec<Node>,
    /// Simulated seconds.
    pub seconds: f64,
    /// Aggregate machine statistics.
    pub stats: RunStats,
    /// Speculate-and-detect rounds until the conflict set drained.
    pub rounds: usize,
}

const MARK_INSTRS: u64 = 2;
const FIT_INSTRS: u64 = 6;
const DETECT_INSTRS: u64 = 3;

const UNCOLORED: i64 = -1;

/// Simulate speculative coloring on `p` processors, panicking on
/// simulation failure (legacy-style entry point).
pub fn simulate_coloring_smp(g: &EdgeList, params: &SmpParams, p: usize) -> ColorSmpSimResult {
    try_simulate_coloring_smp(g, params, p).unwrap_or_else(|e| panic!("simulate_coloring_smp: {e}"))
}

/// [`simulate_coloring_smp`] returning structured failures: a
/// cycle-budget trip inside a phase surfaces as [`SimError`] instead of
/// panicking.
pub fn try_simulate_coloring_smp(
    g: &EdgeList,
    params: &SmpParams,
    p: usize,
) -> Result<ColorSmpSimResult, SimError> {
    let csr = Csr::from_edge_list(g);
    let n = csr.n();
    let mut m = SmpMachine::new(params.clone(), p);
    let rowptr_a = m.alloc_elems::<u32>(n + 1);
    let adj_a = m.alloc_elems::<u32>(csr.arc_count());
    let color_a = m.alloc_elems::<u32>(n);
    let wl_a = m.alloc_elems::<u32>(n);

    let mut colors = vec![UNCOLORED; n];
    let mut worklist: Vec<Node> = (0..n as Node).collect();
    let mut rounds = 0usize;

    while !worklist.is_empty() {
        rounds += 1;
        // The worklist minimum never re-enters, so n rounds is a theorem.
        assert!(rounds <= n, "speculative coloring failed to converge");
        let snapshot = colors.clone();

        {
            let colors_ref = &mut colors;
            let snapshot = &snapshot;
            let wl = &worklist;
            let csr = &csr;
            m.try_phase("speculate", move |proc, ctx| {
                let len = wl.len();
                let chunk = len.div_ceil(p);
                let (lo, hi) = ((proc * chunk).min(len), ((proc + 1) * chunk).min(len));
                for (k, &v) in wl[lo..hi].iter().enumerate() {
                    ctx.read_elem(wl_a, lo + k);
                    ctx.read_elem(rowptr_a, v as usize);
                    ctx.read_elem(rowptr_a, v as usize + 1);
                    let deg = csr.degree(v);
                    let mut forbidden = vec![false; deg + 1];
                    for (j, &w) in csr.neighbors(v).iter().enumerate() {
                        ctx.read_elem(adj_a, csr.offsets[v as usize] + j);
                        ctx.read_elem(color_a, w as usize);
                        ctx.compute(MARK_INSTRS);
                        let cw = snapshot[w as usize];
                        if w != v && cw >= 0 && (cw as usize) < forbidden.len() {
                            forbidden[cw as usize] = true;
                        }
                    }
                    let c = forbidden.iter().position(|&b| !b).expect("Δ+1 slots");
                    ctx.compute(FIT_INSTRS + c as u64);
                    colors_ref[v as usize] = c as i64;
                    ctx.write_elem(color_a, v as usize);
                }
            })?;
        }

        let mut next: Vec<Node> = Vec::new();
        {
            let colors = &colors;
            let next_ref = &mut next;
            let wl = &worklist;
            let csr = &csr;
            m.try_phase("detect", move |proc, ctx| {
                let len = wl.len();
                let chunk = len.div_ceil(p);
                let (lo, hi) = ((proc * chunk).min(len), ((proc + 1) * chunk).min(len));
                for (k, &v) in wl[lo..hi].iter().enumerate() {
                    ctx.read_elem(wl_a, lo + k);
                    ctx.read_elem(color_a, v as usize);
                    let cv = colors[v as usize];
                    for (j, &w) in csr.neighbors(v).iter().enumerate() {
                        if w >= v {
                            continue;
                        }
                        ctx.read_elem(adj_a, csr.offsets[v as usize] + j);
                        ctx.read_elem(color_a, w as usize);
                        ctx.compute(DETECT_INSTRS);
                        if colors[w as usize] == cv {
                            next_ref.push(v);
                            ctx.write_elem(wl_a, next_ref.len() - 1);
                            break;
                        }
                    }
                }
            })?;
        }
        worklist = next;
    }

    Ok(ColorSmpSimResult {
        colors: colors.into_iter().map(|c| c as Node).collect(),
        seconds: m.seconds(),
        stats: m.stats(),
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::validate_coloring;
    use archgraph_graph::gen;

    fn tiny() -> SmpParams {
        SmpParams::tiny_for_tests()
    }

    #[test]
    fn simulated_colors_are_proper() {
        for (n, mm, seed) in [(50usize, 120usize, 1u64), (200, 700, 2), (400, 2000, 3)] {
            let g = gen::random_gnm(n, mm, seed);
            let csr = Csr::from_edge_list(&g);
            for p in [1usize, 2, 4] {
                let r = simulate_coloring_smp(&g, &tiny(), p);
                validate_coloring(&csr, &r.colors).expect("must be proper");
                assert!(r.seconds > 0.0, "n={n} m={mm} p={p}");
            }
        }
    }

    #[test]
    fn structured_graphs() {
        for g in [
            gen::path(150),
            gen::star(80),
            gen::complete(15),
            gen::mesh2d(9, 9),
        ] {
            let csr = Csr::from_edge_list(&g);
            let r = simulate_coloring_smp(&g, &tiny(), 2);
            validate_coloring(&csr, &r.colors).expect("must be proper");
        }
    }

    #[test]
    fn single_processor_has_no_conflicts_after_round_one() {
        // With p = 1 the snapshot still hides same-round colors, so
        // conflicts can occur; but the fixpoint must stay within rounds
        // bounds and end proper.
        let g = gen::random_gnm(300, 1200, 8);
        let csr = Csr::from_edge_list(&g);
        let r = simulate_coloring_smp(&g, &tiny(), 1);
        validate_coloring(&csr, &r.colors).expect("must be proper");
        assert!(r.rounds <= 300);
    }

    #[test]
    fn try_variant_matches_wrapper() {
        let g = gen::random_gnm(120, 360, 5);
        let a = try_simulate_coloring_smp(&g, &tiny(), 2).expect("clean run");
        let b = simulate_coloring_smp(&g, &tiny(), 2);
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn edgeless_graph_converges_in_one_round() {
        let g = EdgeList::empty(40);
        let r = simulate_coloring_smp(&g, &tiny(), 2);
        assert_eq!(r.rounds, 1);
        assert!(r.colors.iter().all(|&c| c == 0));
    }
}
