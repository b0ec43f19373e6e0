//! The paper's Alg. 3: SV restructured for the MTA.
//!
//! "In Alg. 3 the trees are shortcut into supervertices in each iteration,
//! so that step 2 of Alg. 2 can be eliminated, and we no longer need to
//! check whether a vertex belongs to a star, which involves a significant
//! amount of computation and memory accesses." Per iteration:
//!
//! ```text
//! graft = 0
//! for i in 0..2m (parallel):         // the doubled arc array E
//!     (u, v) = E[i]
//!     if D[u] < D[v] && D[v] == D[D[v]] { D[D[v]] = D[u]; graft = 1 }
//! for i in 0..n (parallel):
//!     while D[i] != D[D[i]] { D[i] = D[D[i]] }   // full shortcut
//! ```
//!
//! Runs in `O(log² n)` iterations (the paper notes the bound is not
//! tight). The graft-to-strictly-smaller rule keeps the pointer forest
//! acyclic under arbitrary concurrent writes.
//!
//! Reached by: `tests/cross_validation.rs` and the `biconn/native` suite cell.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::Node;
use rayon::prelude::*;

/// Iteration safety bound (`O(log² n)` with slack).
fn iteration_bound(n: usize) -> usize {
    let lg = (usize::BITS - n.max(2).leading_zeros()) as usize;
    lg * lg + 32
}

/// Connected components by the paper's Alg. 3. Returns rooted-star labels.
pub fn sv_mta_style(g: &EdgeList) -> Vec<Node> {
    let n = g.n;
    let d: Vec<AtomicU32> = (0..n as Node).map(AtomicU32::new).collect();
    let edges = &g.edges;
    let bound = iteration_bound(n);
    let mut iters = 0usize;

    loop {
        iters += 1;
        assert!(iters <= bound, "Alg. 3 exceeded its iteration bound");
        let grafted = AtomicBool::new(false);

        // Graft over the doubled arc array.
        edges.par_iter().for_each(|e| {
            for (u, v) in [(e.u, e.v), (e.v, e.u)] {
                let du = d[u as usize].load(Ordering::Relaxed);
                let dv = d[v as usize].load(Ordering::Relaxed);
                if du < dv && d[dv as usize].load(Ordering::Relaxed) == dv {
                    d[dv as usize].store(du, Ordering::Relaxed);
                    grafted.store(true, Ordering::Relaxed);
                }
            }
        });

        if !grafted.load(Ordering::Relaxed) {
            break;
        }

        // Full shortcut: compress every path to its root. Labels only
        // decrease, so the racy loop converges.
        (0..n).into_par_iter().for_each(|i| loop {
            let p = d[i].load(Ordering::Relaxed);
            let gp = d[p as usize].load(Ordering::Relaxed);
            if p == gp {
                break;
            }
            d[i].store(gp, Ordering::Relaxed);
        });
    }

    d.into_iter().map(AtomicU32::into_inner).collect()
}

/// Round-synchronous iteration-count probe (PRAM rounds; grafts read the
/// round's opening snapshot, conflicts resolve to the minimum label) —
/// the star-check ablation's comparison metric against Alg. 2.
///
/// Reached by: `tests/cross_validation.rs`
/// (`simulated_and_native_iteration_counts_are_comparable`).
pub fn sv_mta_style_iters(g: &EdgeList) -> (Vec<Node>, usize) {
    let n = g.n;
    let mut d: Vec<Node> = (0..n as Node).collect();
    let bound = iteration_bound(n);
    let mut iters = 0usize;
    loop {
        iters += 1;
        assert!(iters <= bound);
        let snapshot = d.clone();
        let mut grafted = false;
        for e in &g.edges {
            for (u, v) in [(e.u, e.v), (e.v, e.u)] {
                let du = snapshot[u as usize];
                let dv = snapshot[v as usize];
                if du < dv && snapshot[dv as usize] == dv && du < d[dv as usize] {
                    d[dv as usize] = du;
                    grafted = true;
                }
            }
        }
        if !grafted {
            break;
        }
        // Full (iterated) shortcut — this part is not round-limited on
        // the MTA code either.
        for i in 0..n {
            while d[i] != d[d[i] as usize] {
                d[i] = d[d[i] as usize];
            }
        }
    }
    (d, iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::gen;
    use archgraph_graph::unionfind::{connected_components, same_partition};

    fn check(g: &EdgeList) {
        let labels = sv_mta_style(g);
        for &p in &labels {
            assert_eq!(labels[p as usize], p, "not rooted stars");
        }
        assert!(same_partition(&labels, &connected_components(g)));
    }

    #[test]
    fn structured_graphs() {
        check(&gen::path(100));
        check(&gen::cycle(99));
        check(&gen::star(64));
        check(&gen::binary_tree(255));
        check(&gen::complete(25));
        check(&gen::mesh2d(7, 11));
        check(&gen::torus2d(6, 6));
    }

    #[test]
    fn random_graphs() {
        for (n, m, seed) in [
            (128, 64, 1u64),
            (256, 256, 2),
            (512, 2048, 3),
            (1000, 8000, 4),
        ] {
            check(&gen::random_gnm(n, m, seed));
        }
    }

    #[test]
    fn degenerate_inputs() {
        check(&EdgeList::empty(0));
        check(&EdgeList::empty(10));
        check(&gen::with_isolated(&gen::cycle(8), 9));
        check(&EdgeList::from_pairs(4, [(1, 1), (2, 3), (3, 2)]));
    }

    #[test]
    fn labels_are_component_minima() {
        // Graft-to-smaller means every root is its component's minimum.
        let g = gen::random_gnm(300, 280, 7);
        let labels = sv_mta_style(&g);
        let oracle = connected_components(&g); // min-vertex canonical
        assert_eq!(labels, oracle, "Alg. 3 roots are component minima");
    }

    #[test]
    fn matches_alg2_partitions() {
        for seed in 0..4u64 {
            let g = gen::random_gnm(300, 600, seed);
            assert!(same_partition(
                &sv_mta_style(&g),
                &crate::sv::shiloach_vishkin(&g)
            ));
        }
    }

    #[test]
    fn full_shortcut_converges_in_fewer_iterations_than_single_jump() {
        // The ablation's claim: Alg. 3 (full shortcut) needs no more
        // grafting rounds than Alg. 2 (single jump) on deep structures.
        let g = gen::path(4096);
        let (_, it3) = sv_mta_style_iters(&g);
        let (_, it2) = crate::sv::shiloach_vishkin_iters(&g);
        assert!(
            it3 <= it2 + 1,
            "full shortcut ({it3}) should not trail single jump ({it2})"
        );
    }

    #[test]
    fn deterministic_variant_matches_parallel() {
        for seed in 0..3u64 {
            let g = gen::random_gnm(400, 900, seed);
            let (det, _) = sv_mta_style_iters(&g);
            assert!(same_partition(&det, &sv_mta_style(&g)));
        }
    }
}
