//! Direction-optimizing frontier BFS with native threads (Beamer,
//! Asanović & Patterson, SC'12).
//!
//! Every level runs one of two steps over the one shared `levels` array:
//!
//! * **top-down** — the frontier's rows are expanded in chunks of
//!   `GRAIN` vertices, each chunk onto one local `Vec`. A neighbour is
//!   loaded first, and only one that still reads [`NIL`] costs a
//!   `compare_exchange` claim.
//! * **bottom-up** — every still-unvisited vertex scans its own row until
//!   it meets a neighbour on the current level, then writes its own level.
//!   The frontier is implicit (`level == cur`), so it needs no list.
//!
//! Which step runs is decided per level from what the run has observed:
//! the arcs out of the frontier (`m_f`), the arcs out of still-unvisited
//! vertices (`m_u`) and the frontier's vertex count (`n_f`). Top-down goes
//! bottom-up once a growing frontier has `m_f > m_u / α`; bottom-up
//! returns to top-down once a shrinking frontier holds fewer than `n / β`
//! vertices, after one chunked scan rebuilds the sparse frontier.
//!
//! Reached by: `archperf`'s native-kernels `bfs` op.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

use archgraph_graph::csr::Csr;
use archgraph_graph::{Node, NIL};
use rayon::prelude::*;

/// α and β of the switching heuristic, the values Beamer, Asanović &
/// Patterson tuned (SC'12). Their control rule also asks that the frontier
/// be growing to go bottom-up and shrinking to come back, which keeps a
/// long thin tail (a path, say) top-down.
const ALPHA: usize = 14;
const BETA: usize = 24;

/// Vertices one task takes at a time, in either direction.
const GRAIN: usize = 1024;

/// A completed native BFS.
#[derive(Debug, Clone)]
pub struct NativeBfs {
    /// `levels[v]` = shortest-path edge distance from the source, [`NIL`]
    /// if unreachable.
    pub levels: Vec<Node>,
    /// Number of frontier expansions (equals the reachable eccentricity
    /// of the source plus one).
    pub level_count: usize,
    /// How many of those expansions ran bottom-up.
    pub bottom_up_levels: usize,
}

/// Parallel direction-optimizing BFS from `src`.
///
/// Levels are deterministic for any thread count. Top-down, a vertex is
/// claimed by whichever arc wins the `compare_exchange`, but every winner
/// writes the same level. Bottom-up, a vertex is written only by the task
/// that owns it, and only if a neighbour holds the current level; the
/// levels other tasks write during the step are `NIL` or the next level,
/// never the current one, so no race changes the outcome. The direction
/// choices depend on sums over the discovered sets only, so they repeat
/// too.
///
/// Reached by: frozen benchmarks/src (`cells.rs`, the native-kernels `bfs`
/// op) and `tests/kernel_differential.rs`.
pub fn parallel_bfs(g: &Csr, src: Node) -> NativeBfs {
    let n = g.n();
    assert!((src as usize) < n, "source out of range");
    // Relaxed throughout: a level publishes no other data, and the join at
    // the end of each parallel step orders one level's writes before the
    // next level's reads.
    let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NIL)).collect();
    levels[src as usize].store(0, Ordering::Relaxed);
    let mut frontier: Vec<Node> = vec![src];
    let (mut n_f, mut m_f) = (1, g.degree(src));
    let mut m_u = g.arc_count() - m_f;
    let mut last_n_f = 0;
    let mut bottom_up = false;
    let (mut level_count, mut bottom_up_levels) = (0usize, 0usize);

    while n_f > 0 {
        let cur = level_count as Node;
        level_count += 1;
        let was_bottom_up = bottom_up;
        bottom_up = if bottom_up {
            !(n_f < n / BETA && n_f < last_n_f)
        } else {
            m_f > m_u / ALPHA && n_f > last_n_f
        };
        last_n_f = n_f;
        if bottom_up {
            bottom_up_levels += 1;
            (n_f, m_f) = bottom_up_step(g, &levels, cur);
        } else {
            if was_bottom_up {
                frontier = chunked(n, |r| {
                    r.filter(|&v| levels[v].load(Ordering::Relaxed) == cur)
                        .map(|v| v as Node)
                        .collect::<Vec<_>>()
                })
                .concat();
            }
            (frontier, m_f) = top_down_step(g, &levels, &frontier, cur);
            n_f = frontier.len();
        }
        m_u -= m_f;
    }

    NativeBfs {
        levels: levels.into_iter().map(|l| l.into_inner()).collect(),
        level_count,
        bottom_up_levels,
    }
}

/// `f` over `0..len` in chunks of [`GRAIN`], in parallel; results in
/// chunk order.
fn chunked<R: Send>(len: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    (0..len.div_ceil(GRAIN))
        .into_par_iter()
        .map(|c| f(c * GRAIN..((c + 1) * GRAIN).min(len)))
        .collect()
}

/// Expand `frontier` (level `cur`): returns the next frontier and the arcs
/// out of it.
fn top_down_step(
    g: &Csr,
    levels: &[AtomicU32],
    frontier: &[Node],
    cur: Node,
) -> (Vec<Node>, usize) {
    let parts = chunked(frontier.len(), |r| {
        let (mut found, mut arcs) = (Vec::new(), 0);
        for &v in &frontier[r] {
            for &w in g.neighbors(v) {
                let l = &levels[w as usize];
                if l.load(Ordering::Relaxed) == NIL
                    && l.compare_exchange(NIL, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                {
                    found.push(w);
                    arcs += g.degree(w);
                }
            }
        }
        (found, arcs)
    });
    let mut next = Vec::with_capacity(parts.iter().map(|p| p.0.len()).sum());
    let mut arcs = 0;
    for (found, a) in parts {
        next.extend(found);
        arcs += a;
    }
    (next, arcs)
}

/// Give level `cur + 1` to every unvisited vertex with a neighbour on
/// level `cur`: returns how many there were and the arcs out of them.
fn bottom_up_step(g: &Csr, levels: &[AtomicU32], cur: Node) -> (usize, usize) {
    chunked(levels.len(), |r| {
        let (mut found, mut arcs) = (0, 0);
        for v in r {
            if levels[v].load(Ordering::Relaxed) != NIL {
                continue;
            }
            let row = g.neighbors(v as Node);
            if row
                .iter()
                .any(|&w| levels[w as usize].load(Ordering::Relaxed) == cur)
            {
                levels[v].store(cur + 1, Ordering::Relaxed);
                found += 1;
                arcs += row.len();
            }
        }
        (found, arcs)
    })
    .into_iter()
    .fold((0, 0), |(n, m), (f, a)| (n + f, m + a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::bfs::{bfs_levels, level_count};
    use archgraph_graph::gen;

    #[test]
    fn random_graphs_match_oracle() {
        for (n, m, seed) in [
            (100usize, 250usize, 1u64),
            (500, 2000, 2),
            (2000, 12_000, 3),
        ] {
            let g = Csr::from_edge_list(&gen::random_gnm(n, m, seed));
            let r = parallel_bfs(&g, 0);
            let oracle = bfs_levels(&g, 0);
            assert_eq!(r.levels, oracle, "n={n} m={m}");
            assert_eq!(r.level_count, level_count(&oracle));
        }
    }

    #[test]
    fn skewed_graphs_match_oracle() {
        // Stars and R-MAT-style skew are the load-balance stress cases.
        for el in [
            gen::star(500),
            gen::binary_tree(255),
            gen::path(300),
            gen::torus2d(10, 10),
        ] {
            let g = Csr::from_edge_list(&el);
            for src in [0 as Node, (g.n() / 2) as Node] {
                let r = parallel_bfs(&g, src);
                assert_eq!(r.levels, bfs_levels(&g, src), "src={src}");
            }
        }
    }

    #[test]
    fn disconnected_vertices_stay_nil() {
        let g = Csr::from_edge_list(&gen::with_isolated(&gen::path(10), 5));
        let r = parallel_bfs(&g, 0);
        assert!(r.levels[10..].iter().all(|&l| l == NIL));
        assert_eq!(r.level_count, 10);
    }

    #[test]
    fn singleton_source_has_one_level() {
        let g = Csr::from_edge_list(&archgraph_graph::edgelist::EdgeList::empty(4));
        let r = parallel_bfs(&g, 2);
        assert_eq!(r.levels, vec![NIL, NIL, 0, NIL]);
        assert_eq!(r.level_count, 1);
    }
}
