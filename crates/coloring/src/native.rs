//! Speculate-then-fix coloring with native threads.
//!
//! Each round speculates colors for the whole worklist in parallel
//! (first-fit against whatever neighbor colors the racing reads observe),
//! then detects conflicts in parallel and re-queues only the higher
//! endpoint of each monochromatic edge. The id tie-break guarantees the
//! minimum of the worklist never re-enters it, so the fixpoint needs at
//! most `|W|` rounds regardless of how the speculation races resolve.
//!
//! The worklist is split into chunks of `GRAIN` vertices. A chunk keeps
//! one forbidden-color array for all its vertices and stamps it with
//! `v + 1`, so no vertex allocates or clears scratch of its own.
//!
//! Reached by: `archperf`'s native-kernels `color` op.

use std::sync::atomic::{AtomicU32, Ordering};

use archgraph_graph::csr::Csr;
use archgraph_graph::{Node, NIL};
use rayon::prelude::*;

/// Worklist vertices one task takes at a time.
const GRAIN: usize = 1024;

/// A proper coloring produced by [`speculative_coloring`].
#[derive(Debug, Clone)]
pub struct NativeColoring {
    /// `colors[v]` in `0..=Δ`.
    pub colors: Vec<Node>,
    /// Speculate-and-detect rounds until the conflict set drained.
    pub rounds: usize,
}

/// Color `g` by parallel speculation. The result is always proper and
/// uses at most `Δ + 1` colors; the exact coloring depends on race
/// resolution and may differ from the sequential oracle's.
pub fn speculative_coloring(g: &Csr) -> NativeColoring {
    let n = g.n();
    // Uncolored is `NIL`, which no first-fit slot `0..=deg` can equal.
    let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NIL)).collect();
    let mut worklist: Vec<Node> = (0..n as Node).collect();
    let mut rounds = 0usize;

    while !worklist.is_empty() {
        rounds += 1;
        assert!(rounds <= n, "speculative coloring failed to converge");
        let chunks = worklist.len().div_ceil(GRAIN);
        let chunk = |c: usize| &worklist[c * GRAIN..((c + 1) * GRAIN).min(worklist.len())];

        // Speculate: first-fit against the neighbor colors visible now.
        (0..chunks).into_par_iter().for_each(|c| {
            let mut marks: Vec<Node> = Vec::new();
            for &v in chunk(c) {
                let deg = g.degree(v);
                if marks.len() <= deg {
                    marks.resize(deg + 1, 0);
                }
                let stamp = v + 1;
                for &w in g.neighbors(v) {
                    let cw = colors[w as usize].load(Ordering::Relaxed) as usize;
                    if w != v && cw <= deg {
                        marks[cw] = stamp;
                    }
                }
                let free = marks[..=deg].iter().position(|&m| m != stamp);
                let color = free.expect("Δ+1 slots") as Node;
                colors[v as usize].store(color, Ordering::Relaxed);
            }
        });

        // Detect: the higher endpoint of a monochromatic edge re-queues.
        let conflicted: Vec<Vec<Node>> = (0..chunks)
            .into_par_iter()
            .map(|c| {
                chunk(c)
                    .iter()
                    .copied()
                    .filter(|&v| {
                        let cv = colors[v as usize].load(Ordering::Relaxed);
                        g.neighbors(v)
                            .iter()
                            .any(|&w| w < v && colors[w as usize].load(Ordering::Relaxed) == cv)
                    })
                    .collect()
            })
            .collect();
        worklist = conflicted.concat();
    }

    NativeColoring {
        colors: colors.into_iter().map(|c| c.into_inner()).collect(),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::validate_coloring;
    use archgraph_graph::gen;

    #[test]
    fn random_graphs_color_properly() {
        for (n, m, seed) in [(100usize, 300usize, 1u64), (500, 2500, 2), (1000, 8000, 3)] {
            let g = Csr::from_edge_list(&gen::random_gnm(n, m, seed));
            let r = speculative_coloring(&g);
            validate_coloring(&g, &r.colors).expect("must be proper");
            assert!(r.rounds >= 1, "n={n} m={m}");
        }
    }

    #[test]
    fn structured_graphs_color_properly() {
        for g in [
            gen::path(200),
            gen::star(150),
            gen::complete(20),
            gen::mesh2d(12, 12),
            gen::torus2d(8, 8),
        ] {
            let csr = Csr::from_edge_list(&g);
            let r = speculative_coloring(&csr);
            validate_coloring(&csr, &r.colors).expect("must be proper");
        }
    }

    #[test]
    fn complete_graph_needs_exactly_n_colors() {
        let g = Csr::from_edge_list(&gen::complete(12));
        let r = speculative_coloring(&g);
        let used = validate_coloring(&g, &r.colors).unwrap();
        assert_eq!(used, 12);
    }

    #[test]
    fn edgeless_graph_converges_in_one_round() {
        let g = Csr::from_edge_list(&archgraph_graph::edgelist::EdgeList::empty(64));
        let r = speculative_coloring(&g);
        assert_eq!(r.rounds, 1);
        assert!(r.colors.iter().all(|&c| c == 0));
    }
}
