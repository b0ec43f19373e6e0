//! Minimum spanning forest — Borůvka rounds over the connectivity
//! machinery (the paper cites Bader–Cong's MSF work \[5\] as a direct
//! application of these primitives).
//!
//! Every edge is keyed by `(weight << 32) | index`, a strict total order.
//! Borůvka first runs on the *light* edges, about the `n` lightest keys
//! (the threshold is read off a strided sample of keys). One pass then
//! keeps only the heavy edges whose ends are still in different
//! components, and Borůvka runs again on those. The cheapest light edge
//! leaving a component is its cheapest edge overall (cut property), and a
//! heavy edge inside a component closes a cycle it is the heaviest edge of
//! (cycle property), so the forest is the one MSF the key order admits.
//!
//! A Borůvka round works on *arcs*: edges relabelled to dense component
//! ids `0..k`, kept in edge-index order. Every component selects its
//! cheapest arc with a parallel atomic-min (packed `(weight, position)`;
//! positions are monotone in edge index, so ties break exactly as the
//! index does and no cycle can form), the chosen edges merge components,
//! and contraction renumbers the components densely and drops the arcs
//! that became internal. Selection is the same scatter access pattern as
//! SV grafting.
//!
//! Reached by: the `msf/native` suite cell and `archperf`'s native-kernels `msf` op.

use std::sync::atomic::{AtomicU64, Ordering};

use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::unionfind::UnionFind;
use archgraph_graph::{Node, NIL};
use rayon::prelude::*;

/// No-candidate sentinel (max weight, max position).
const NONE: u64 = u64::MAX;

/// Keys sampled to place the light/heavy threshold.
const SAMPLE: usize = 1024;

/// An edge between two components, at its position in edge-index order.
#[derive(Debug, Clone, Copy)]
struct Arc {
    cu: Node,
    cv: Node,
    weight: u32,
    index: u32,
}

/// Compute a minimum spanning forest of `g` under `weights` (one weight
/// per edge, `< 2^32`). Returns the selected edge indices.
///
/// Ties are broken by edge index, making the result deterministic.
///
/// # Examples
/// ```
/// use archgraph_apps::msf::{kruskal_weight, minimum_spanning_forest};
/// use archgraph_graph::gen;
///
/// let g = gen::complete(8);
/// let weights: Vec<u32> = (0..g.m() as u32).collect();
/// let forest = minimum_spanning_forest(&g, &weights);
/// let total: u64 = forest.iter().map(|&i| weights[i] as u64).sum();
/// assert_eq!(total, kruskal_weight(&g, &weights));
/// ```
pub fn minimum_spanning_forest(g: &EdgeList, weights: &[u32]) -> Vec<usize> {
    assert_eq!(weights.len(), g.m(), "one weight per edge");
    assert!(g.m() < u32::MAX as usize, "edge index must fit 32 bits");
    let threshold = light_threshold(weights, g.n);
    let arc = |i: usize, cu: Node, cv: Node| Arc {
        cu,
        cv,
        weight: weights[i],
        index: i as u32,
    };
    let mut forest = Vec::new();

    let light: Vec<Arc> = g
        .edges
        .iter()
        .enumerate()
        .filter(|&(i, e)| e.u != e.v && key(weights, i) <= threshold)
        .map(|(i, e)| arc(i, e.u, e.v))
        .collect();
    let (comp, k) = boruvka(light, g.n, &mut forest);

    let heavy: Vec<Arc> = g
        .edges
        .iter()
        .enumerate()
        .filter(|&(i, _)| key(weights, i) > threshold)
        .map(|(i, e)| arc(i, comp[e.u as usize], comp[e.v as usize]))
        .filter(|a| a.cu != a.cv)
        .collect();
    boruvka(heavy, k, &mut forest);

    forest.sort_unstable();
    forest
}

/// Edge `i`'s place in the total order: weight, then index.
fn key(weights: &[u32], i: usize) -> u64 {
    ((weights[i] as u64) << 32) | i as u64
}

/// The key at or below which an edge is light: about the `n`-th smallest
/// key, read off an evenly strided sample so the split is deterministic.
/// Every edge is light when `m <= n`.
fn light_threshold(weights: &[u32], n: usize) -> u64 {
    let m = weights.len();
    if m <= n {
        return u64::MAX;
    }
    let mut sample: Vec<u64> = (0..m)
        .step_by(m.div_ceil(SAMPLE))
        .map(|i| key(weights, i))
        .collect();
    sample.sort_unstable();
    sample[sample.len() * n / m]
}

/// Borůvka rounds over `arcs`, whose ends are components `0..k` and which
/// are in edge-index order with no internal arc. Pushes every chosen edge
/// onto `forest`. Returns each input component's final component and the
/// final component count.
fn boruvka(mut arcs: Vec<Arc>, k: usize, forest: &mut Vec<usize>) -> (Vec<Node>, usize) {
    let mut comp: Vec<Node> = (0..k as Node).collect();
    let mut k = k;
    let lg = (usize::BITS - k.max(2).leading_zeros()) as usize;
    let mut rounds = 0usize;
    while !arcs.is_empty() {
        rounds += 1;
        assert!(rounds <= lg + 8, "Boruvka must finish in O(log n) rounds");

        // Parallel cheapest-arc selection per component. A key that cannot
        // beat the current best skips the atomic.
        let best: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(NONE)).collect();
        let offer = |c: Node, key: u64| {
            let b = &best[c as usize];
            if key < b.load(Ordering::Relaxed) {
                b.fetch_min(key, Ordering::Relaxed);
            }
        };
        arcs.par_iter().enumerate().for_each(|(pos, a)| {
            let key = ((a.weight as u64) << 32) | pos as u64;
            offer(a.cu, key);
            offer(a.cv, key);
        });

        // Merge winners (sequential: one entry per live component).
        let mut uf = UnionFind::new(k);
        for b in &best {
            let key = b.load(Ordering::Relaxed);
            if key == NONE {
                continue;
            }
            let a = arcs[(key & 0xFFFF_FFFF) as usize];
            if uf.union(a.cu, a.cv) {
                forest.push(a.index as usize);
            }
        }

        // Contract: number the merged components densely, relabel the arcs
        // and drop those that became internal.
        let mut id = vec![NIL; k];
        let mut next: Node = 0;
        let relabel: Vec<Node> = (0..k as Node)
            .map(|c| {
                let r = uf.find(c) as usize;
                if id[r] == NIL {
                    id[r] = next;
                    next += 1;
                }
                id[r]
            })
            .collect();
        arcs.retain_mut(|a| {
            a.cu = relabel[a.cu as usize];
            a.cv = relabel[a.cv as usize];
            a.cu != a.cv
        });
        for c in &mut comp {
            *c = relabel[*c as usize];
        }
        k = next as usize;
    }
    (comp, k)
}

/// Kruskal oracle: total forest weight (unique even when the forest
/// itself is not, given tie-broken comparisons are not needed for the
/// *weight*). Edges are visited in `(weight << 32) | index` order, sorted
/// as packed keys so no comparison has to load a weight.
pub fn kruskal_weight(g: &EdgeList, weights: &[u32]) -> u64 {
    assert_eq!(weights.len(), g.m(), "one weight per edge");
    assert!(g.m() < u32::MAX as usize, "edge index must fit 32 bits");
    let mut order: Vec<u64> = (0..g.m()).map(|i| key(weights, i)).collect();
    order.sort_unstable();
    let mut uf = UnionFind::new(g.n);
    let mut total = 0u64;
    for k in order {
        let e = g.edges[k as u32 as usize];
        if uf.union(e.u, e.v) {
            total += k >> 32;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::edgelist::Edge;
    use archgraph_graph::gen;
    use archgraph_graph::rng::Rng;

    /// Whether `forest` is a spanning forest of `g`: acyclic, with the
    /// full graph's components, so exactly `n − #components` edges.
    fn is_spanning_forest(g: &EdgeList, forest: &[Edge]) -> bool {
        let mut uf = UnionFind::new(g.n);
        for e in forest {
            if !uf.union(e.u, e.v) {
                return false; // cycle
            }
        }
        let forest_components = uf.component_count();
        let mut full = UnionFind::new(g.n);
        for e in &g.edges {
            full.union(e.u, e.v);
        }
        forest_components == full.component_count() && forest.len() == g.n - full.component_count()
    }

    #[test]
    fn forest_validator_rejects_cycles_and_undersized_sets() {
        let g = gen::cycle(5);
        assert!(
            !is_spanning_forest(&g, &g.edges),
            "the full cycle has a cycle"
        );
        assert!(!is_spanning_forest(&g, &g.edges[0..2]), "too few edges");
        assert!(is_spanning_forest(&g, &g.edges[0..4]));
    }

    /// Kruskal's forest under the `(weight, index)` order: the one MSF
    /// that order admits, sorted by edge index.
    fn kruskal_forest(g: &EdgeList, weights: &[u32]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..g.m()).collect();
        order.sort_unstable_by_key(|&i| (weights[i], i));
        let mut uf = UnionFind::new(g.n);
        let mut forest: Vec<usize> = order
            .into_iter()
            .filter(|&i| uf.union(g.edges[i].u, g.edges[i].v))
            .collect();
        forest.sort_unstable();
        forest
    }

    fn check_weights(g: &EdgeList, weights: &[u32]) {
        let msf = minimum_spanning_forest(g, weights);
        // It is a spanning forest...
        let edges: Vec<_> = msf.iter().map(|&i| g.edges[i]).collect();
        assert!(is_spanning_forest(g, &edges), "not a spanning forest");
        // ...of minimum total weight...
        let total: u64 = msf.iter().map(|&i| weights[i] as u64).sum();
        assert_eq!(total, kruskal_weight(g, weights), "weight mismatch");
        // ...and exactly Kruskal's edges under the same tie-break.
        assert_eq!(msf, kruskal_forest(g, weights), "edge set mismatch");
    }

    fn check(g: &EdgeList, seed: u64) {
        let mut rng = Rng::new(seed);
        let weights: Vec<u32> = (0..g.m()).map(|_| rng.below(1 << 20) as u32).collect();
        check_weights(g, &weights);
    }

    /// `m` random pairs over `0..n`, parallel edges and self loops included.
    fn multigraph(n: usize, m: usize, seed: u64) -> EdgeList {
        let mut rng = Rng::new(seed);
        let pairs: Vec<(Node, Node)> = (0..m)
            .map(|_| (rng.below(n as u64) as Node, rng.below(n as u64) as Node))
            .collect();
        EdgeList::from_pairs(n, pairs)
    }

    #[test]
    fn random_graphs() {
        for (n, m, seed) in [(50usize, 120usize, 1u64), (300, 900, 2), (1000, 5000, 3)] {
            check(&gen::random_gnm(n, m, seed), seed);
        }
        // m >= 8n: both phases carry arcs.
        check(&gen::random_gnm(500, 4000, 14), 14);
        // m <= n: every edge is light, there is no heavy phase.
        check(&gen::random_gnm(400, 300, 15), 15);
        // A multigraph with parallel edges and self loops.
        check(&multigraph(60, 600, 16), 16);
    }

    #[test]
    fn structured_graphs() {
        check(&gen::complete(25), 4);
        check(&gen::mesh2d(10, 10), 5);
        check(&gen::cycle(100), 6);
    }

    #[test]
    fn disconnected_graphs() {
        check(&gen::planted_components(5, 20, 6, 7), 8);
        check(&gen::with_isolated(&gen::complete(6), 10), 9);
        check(&EdgeList::empty(12), 10);
    }

    #[test]
    fn uniform_weights_still_yield_valid_forest() {
        // Every key ties on weight, so the threshold splits by index.
        for g in [gen::random_gnm(200, 800, 11), multigraph(40, 400, 17)] {
            check_weights(&g, &vec![7u32; g.m()]);
        }
    }

    #[test]
    fn tree_input_selects_every_edge() {
        let t = gen::binary_tree(50);
        let weights: Vec<u32> = (0..t.m() as u32).collect();
        let msf = minimum_spanning_forest(&t, &weights);
        assert_eq!(msf, (0..t.m()).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_weights_make_result_unique() {
        let g = gen::random_gnm(100, 400, 12);
        let mut rng = Rng::new(13);
        let mut weights: Vec<u32> = (0..g.m() as u32).collect();
        rng.shuffle(&mut weights);
        let a = minimum_spanning_forest(&g, &weights);
        let b = minimum_spanning_forest(&g, &weights);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "one weight per edge")]
    fn weight_length_mismatch_panics() {
        minimum_spanning_forest(&gen::path(4), &[1, 2]);
    }
}
