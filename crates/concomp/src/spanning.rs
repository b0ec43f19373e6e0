//! Spanning forests from SV grafting.
//!
//! The Bader–Cong spanning-tree work the paper cites (\[4\], \[6\]) builds on
//! exactly this observation: every successful SV graft `D[D[v]] = D[u]`
//! merges two components *via a witnessing edge*; recording that edge per
//! graft yields a spanning forest in the same asymptotic time as
//! connectivity. The `(label, edge)` pair is packed into one `AtomicU64`
//! so a racing graft can never publish a label from one edge with the
//! witness of another.
//!
//! Reached by: the `msf/native` suite cell (through `apps::msf`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use archgraph_graph::edgelist::{Edge, EdgeList};
use archgraph_graph::unionfind::UnionFind;
use archgraph_graph::Node;
use rayon::prelude::*;

/// No-witness sentinel for the packed edge index.
const NO_EDGE: u32 = u32::MAX;

#[inline]
fn pack(label: Node, edge: u32) -> u64 {
    ((label as u64) << 32) | edge as u64
}

#[inline]
fn label_of(packed: u64) -> Node {
    (packed >> 32) as Node
}

/// Compute a spanning forest of `g`: the returned edges are a subset of
/// `g.edges` containing exactly `n − #components` edges that connect all
/// of each component. Runs the Alg. 3 graft-and-shortcut loop with edge
/// witnesses.
///
/// # Examples
/// ```
/// use archgraph_concomp::spanning::{is_spanning_forest, spanning_forest};
/// use archgraph_graph::gen;
///
/// let g = gen::random_gnm(300, 900, 4);
/// let forest = spanning_forest(&g);
/// assert!(is_spanning_forest(&g, &forest));
/// ```
pub fn spanning_forest(g: &EdgeList) -> Vec<Edge> {
    let n = g.n;
    // d[v] packs (current label, witness edge that last grafted v's tree).
    let d: Vec<AtomicU64> = (0..n as Node)
        .map(|v| AtomicU64::new(pack(v, NO_EDGE)))
        .collect();
    let edges = &g.edges;
    let lg = (usize::BITS - n.max(2).leading_zeros()) as usize;
    let bound = lg * lg + 32;
    let mut iters = 0usize;
    // Forest edges are discovered incrementally: a graft that *sticks*
    // (survives to the shortcut) contributes its witness.
    loop {
        iters += 1;
        assert!(iters <= bound, "spanning forest exceeded iteration bound");
        let grafted = AtomicBool::new(false);
        edges.par_iter().enumerate().for_each(|(idx, e)| {
            for (u, v) in [(e.u, e.v), (e.v, e.u)] {
                let du = label_of(d[u as usize].load(Ordering::Relaxed));
                let dv = label_of(d[v as usize].load(Ordering::Relaxed));
                if du < dv {
                    let root = d[dv as usize].load(Ordering::Relaxed);
                    if label_of(root) == dv {
                        // dv is a root: graft it, witnessing edge idx.
                        // A racing CAS loser simply retries next round.
                        if d[dv as usize]
                            .compare_exchange(
                                root,
                                pack(du, idx as u32),
                                Ordering::Relaxed,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                        {
                            grafted.store(true, Ordering::Relaxed);
                        }
                    }
                }
            }
        });
        if !grafted.load(Ordering::Relaxed) {
            break;
        }
        // Full shortcut on labels; witnesses stay attached to the vertex
        // whose tree they merged (one witness per successful merge).
        (0..n).into_par_iter().for_each(|i| loop {
            let me = d[i].load(Ordering::Relaxed);
            let p = label_of(me);
            let pp = label_of(d[p as usize].load(Ordering::Relaxed));
            if p == pp || p as usize == i {
                break;
            }
            // Keep our own witness; only the label moves.
            let _ = d[i].compare_exchange(
                me,
                pack(pp, (me & 0xFFFF_FFFF) as u32),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            // (Whether the CAS won or lost, re-examine.)
        });
    }

    // Collect witnesses: each vertex whose tree was ever grafted holds
    // the edge that merged it. Deduplicate defensively: under races a
    // witness could repeat, but a forest never needs more than one use.
    let mut seen = vec![false; g.edges.len()];
    let mut forest = Vec::with_capacity(n.saturating_sub(1));
    let mut check = UnionFind::new(n);
    let mut witnesses: Vec<u32> = d
        .iter()
        .map(|x| (x.load(Ordering::Relaxed) & 0xFFFF_FFFF) as u32)
        .filter(|&w| w != NO_EDGE)
        .collect();
    witnesses.sort_unstable();
    witnesses.dedup();
    for w in witnesses {
        let e = g.edges[w as usize];
        if !seen[w as usize] && check.union(e.u, e.v) {
            seen[w as usize] = true;
            forest.push(e);
        }
    }
    // Defensive completion: if any witnessed merge was lost to a race,
    // close the gap with the remaining edges (still O(m α)).
    if forest.len() + check.component_count() != n {
        for e in &g.edges {
            if check.union(e.u, e.v) {
                forest.push(*e);
            }
        }
    }
    forest
}

/// Validate that `forest` is a spanning forest of `g`: acyclic, subset-
/// consistent connectivity, and exactly `n − #components` edges.
pub fn is_spanning_forest(g: &EdgeList, forest: &[Edge]) -> bool {
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
    // Same partition as the full graph.
    forest_components == full.component_count() && forest.len() == g.n - full.component_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::gen;

    fn check(g: &EdgeList) {
        let f = spanning_forest(g);
        assert!(
            is_spanning_forest(g, &f),
            "invalid forest: n={} m={} |F|={}",
            g.n,
            g.m(),
            f.len()
        );
    }

    #[test]
    fn structured_graphs() {
        check(&gen::path(100));
        check(&gen::cycle(64));
        check(&gen::star(50));
        check(&gen::complete(20));
        check(&gen::mesh2d(9, 7));
        check(&gen::binary_tree(127));
    }

    #[test]
    fn random_graphs() {
        for (n, m, seed) in [(100usize, 60usize, 1u64), (500, 1000, 2), (1000, 8000, 3)] {
            check(&gen::random_gnm(n, m, seed));
        }
    }

    #[test]
    fn disconnected_and_degenerate() {
        check(&EdgeList::empty(0));
        check(&EdgeList::empty(10));
        check(&gen::planted_components(6, 9, 2, 4));
        check(&gen::with_isolated(&gen::cycle(12), 8));
        check(&EdgeList::from_pairs(4, [(0, 0), (1, 2), (2, 1)]));
    }

    #[test]
    fn tree_input_returns_the_tree() {
        let t = gen::binary_tree(63);
        let f = spanning_forest(&t);
        assert_eq!(f.len(), 62);
        let mut orig: Vec<Edge> = t.edges.iter().map(|e| e.canonical()).collect();
        let mut got: Vec<Edge> = f.iter().map(|e| e.canonical()).collect();
        orig.sort_unstable();
        got.sort_unstable();
        assert_eq!(orig, got, "a tree is its own unique spanning forest");
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
}
