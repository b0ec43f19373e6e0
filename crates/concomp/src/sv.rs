//! Shiloach–Vishkin connected components as printed in the paper's Alg. 2.
//!
//! Per iteration:
//!
//! 1. **Conditional graft**: for every edge `(i, j)` (both orientations),
//!    if `D[i] = D[D[i]]` (i's parent is a root) and `D[j] < D[i]`, set
//!    `D[D[i]] = D[j]`.
//! 2. **Star graft**: if `i` belongs to a star and `D[j] ≠ D[i]`, set
//!    `D[D[i]] = D[j]` — hooks stalled stars onto any neighbor.
//! 3. **Exit test**: stop when all vertices lie in rooted stars (and no
//!    graft fired).
//! 4. **Pointer jumping**: `D[i] = D[D[i]]` for all `i`.
//!
//! Natively parallel: the `D` array is `AtomicU32` with relaxed ordering —
//! the algorithm is correct under arbitrary write interleavings because
//! step-1 grafts only install strictly smaller labels onto roots (no
//! cycles can form) and step-2 grafts only fire on genuine stars. This is
//! exactly the CRCW-PRAM arbitrary-write model the algorithm was designed
//! for. Runs in `O(log n)` iterations on `m` edge processors.
//!
//! The native loop adds one step the paper's does not print:
//!
//! 5. **Filter**: after the jump, chase every vertex to its root and keep
//!    only the arcs whose endpoints' roots differ (the filter primitive of
//!    Dhulipala, Blelloch & Shun). Iteration 1 reads `g.edges` in place;
//!    later iterations read the owned live list.
//!
//! Why it is exact: every write lowers a `D` entry (`D[x] ≤ x`, with
//! equality only at roots) under any interleaving, so a root is its
//! tree's minimum, and a non-root never reads as a root again, so a tree
//! only ever moves as a unit. An arc inside one tree therefore stays
//! inside one tree, and neither graft can fire on it: step 1 needs
//! `D[j] < D[i]` with `D[i]` the root, and step 2 `D[j] < D[i]` for a
//! star's `D[i]`, the root again. Dropping such arcs changes no graft, so
//! the labels stay the union-find minima and, at one thread, `D` and the
//! iteration count are those of the unfiltered loop. After one jump the
//! trees are shallow, so the chase is short; on G(2^18, 5·2^18) the live
//! list runs 1 310 720 → 1 024 148 → 25 → 0 arcs. The cheaper
//! `D[u] ≠ D[v]` test is exact too, and on that graph it keeps the same
//! arcs, but it only sees one level: on a path whose edges are listed from
//! its far end, iteration 1 grafts one chain, and after its jump the root
//! test drops every arc while `D[u] ≠ D[v]` keeps all but two.
//!
//! Reached by: `archperf`'s native-kernels `concomp` op.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use archgraph_core::SimError;
use archgraph_graph::edgelist::{Edge, EdgeList};
use archgraph_graph::Node;
use rayon::prelude::*;

use crate::star::star_flags_par;

/// Hard iteration bound: SV terminates in `O(log n)` iterations; the
/// constant here is generous so a livelock (a bug) surfaces as a
/// structured [`SimError::CycleBudgetExceeded`] rather than spinning
/// forever.
pub fn iteration_bound(n: usize) -> usize {
    4 * (usize::BITS - n.max(2).leading_zeros()) as usize + 16
}

/// The structured error a livelocked SV run returns once `iters` passes
/// `bound` (mirrors the simulators' watchdog error shape).
fn livelock_error(bound: usize, iters: usize) -> SimError {
    SimError::CycleBudgetExceeded {
        budget: bound as u64,
        spent: iters as u64,
        what: "shiloach-vishkin iterations",
    }
}

/// Connected components by Shiloach–Vishkin (paper Alg. 2). Returns the
/// parent array `D` flattened to rooted stars (`D[v] == D[D[v]]`).
/// Panics with the structured-error text if the run blows its `O(log n)`
/// iteration bound (a livelock is a bug); [`try_shiloach_vishkin`]
/// takes the bound and returns the error instead.
///
/// # Examples
/// ```
/// use archgraph_concomp::shiloach_vishkin;
/// use archgraph_graph::gen;
/// use archgraph_graph::unionfind;
///
/// let g = gen::random_gnm(2000, 3000, 9);
/// let labels = shiloach_vishkin(&g);
/// assert!(unionfind::same_partition(
///     &labels,
///     &unionfind::connected_components(&g),
/// ));
/// ```
///
/// Reached by: frozen benchmarks/src (`cells.rs`, the native-kernels
/// `concomp` op) and the connectivity tests in `tests/`.
pub fn shiloach_vishkin(g: &EdgeList) -> Vec<Node> {
    try_shiloach_vishkin(g, iteration_bound(g.n))
        .unwrap_or_else(|e| panic!("shiloach-vishkin livelocked: {e}"))
}

/// [`shiloach_vishkin`] under an explicit iteration budget, returning
/// [`SimError::CycleBudgetExceeded`] instead of panicking once it is
/// spent. [`shiloach_vishkin`] passes [`iteration_bound`]; tests pass
/// deliberately tiny budgets to pin the livelock-detection path without
/// needing a genuinely non-terminating input.
pub fn try_shiloach_vishkin(g: &EdgeList, bound: usize) -> Result<Vec<Node>, SimError> {
    let n = g.n;
    let d: Vec<AtomicU32> = (0..n as Node).map(AtomicU32::new).collect();
    // The arcs still able to graft: all of `g.edges` in iteration 1, then
    // the owned list of arcs whose endpoints' roots differed after the
    // last jump.
    let mut live: Cow<[Edge]> = Cow::Borrowed(&g.edges);
    let mut iters = 0usize;

    loop {
        iters += 1;
        if iters > bound {
            return Err(livelock_error(bound, iters));
        }
        let grafted = AtomicBool::new(false);

        // Step 1: conditional graft (both orientations of each edge).
        live.par_iter().for_each(|e| {
            for (i, j) in [(e.u, e.v), (e.v, e.u)] {
                let di = d[i as usize].load(Ordering::Relaxed);
                let dj = d[j as usize].load(Ordering::Relaxed);
                if dj < di && d[di as usize].load(Ordering::Relaxed) == di {
                    d[di as usize].store(dj, Ordering::Relaxed);
                    grafted.store(true, Ordering::Relaxed);
                }
            }
        });

        // Step 2: graft stalled stars onto any differing neighbor.
        let star = star_flags_par(&d);
        live.par_iter().for_each(|e| {
            for (i, j) in [(e.u, e.v), (e.v, e.u)] {
                if star[i as usize].load(Ordering::Relaxed) {
                    let di = d[i as usize].load(Ordering::Relaxed);
                    let dj = d[j as usize].load(Ordering::Relaxed);
                    // Only hook a star onto a *smaller* label: two
                    // mutually-grafting stars would otherwise form a
                    // 2-cycle under concurrent writes.
                    if dj < di {
                        d[di as usize].store(dj, Ordering::Relaxed);
                        grafted.store(true, Ordering::Relaxed);
                    }
                }
            }
        });

        // Step 3: exit when nothing changed and the forest is all stars.
        let all_stars_now = (0..n).into_par_iter().all(|v| {
            let p = d[v].load(Ordering::Relaxed);
            d[p as usize].load(Ordering::Relaxed) == p
        });
        if !grafted.load(Ordering::Relaxed) && all_stars_now {
            break;
        }

        // Step 4: one pointer jump.
        (0..n).into_par_iter().for_each(|v| {
            let p = d[v].load(Ordering::Relaxed);
            let gp = d[p as usize].load(Ordering::Relaxed);
            d[v].store(gp, Ordering::Relaxed);
        });

        // Filter: drop the arcs inside one tree; they can never graft.
        let root: Vec<Node> = (0..n)
            .into_par_iter()
            .map(|v| {
                let mut r = d[v].load(Ordering::Relaxed);
                loop {
                    let p = d[r as usize].load(Ordering::Relaxed);
                    if p == r {
                        break r;
                    }
                    r = p;
                }
            })
            .collect();
        let crosses = |e: &Edge| root[e.u as usize] != root[e.v as usize];
        match &mut live {
            Cow::Borrowed(all) => live = Cow::Owned(all.iter().copied().filter(crosses).collect()),
            Cow::Owned(arcs) => arcs.retain(crosses),
        }
    }

    Ok(d.into_iter().map(AtomicU32::into_inner).collect())
}

/// Iteration (PRAM round) count probe for the star-check ablation: runs
/// Alg. 2 with **round-synchronous** semantics — every graft in a round
/// reads the round's opening snapshot of `D`, conflicting grafts resolve
/// to the minimum label (the deterministic refinement of arbitrary-CRCW).
/// This is the metric in which the paper's "one iteration for the best
/// labeling, up to log n for an arbitrary one" sensitivity statement
/// lives. Returns `(labels, rounds)`; panics, as [`shiloach_vishkin`]
/// does, past [`iteration_bound`].
#[cfg(test)]
pub(crate) fn shiloach_vishkin_iters(g: &EdgeList) -> (Vec<Node>, usize) {
    let n = g.n;
    let mut d: Vec<Node> = (0..n as Node).collect();
    let bound = iteration_bound(n);
    let mut iters = 0usize;
    loop {
        iters += 1;
        if iters > bound {
            let e = livelock_error(bound, iters);
            panic!("shiloach-vishkin livelocked: {e}");
        }
        let snapshot = d.clone();
        let mut grafted = false;
        // Step 1: conditional grafts against the snapshot.
        for e in &g.edges {
            for (i, j) in [(e.u, e.v), (e.v, e.u)] {
                let di = snapshot[i as usize];
                let dj = snapshot[j as usize];
                if dj < di && snapshot[di as usize] == di && dj < d[di as usize] {
                    d[di as usize] = dj;
                    grafted = true;
                }
            }
        }
        // Step 2: star grafts against the snapshot.
        let star = crate::star::star_flags(&snapshot);
        for e in &g.edges {
            for (i, j) in [(e.u, e.v), (e.v, e.u)] {
                if star[i as usize] {
                    let di = snapshot[i as usize];
                    let dj = snapshot[j as usize];
                    if dj < di && snapshot[di as usize] == di && dj < d[di as usize] {
                        d[di as usize] = dj;
                        grafted = true;
                    }
                }
            }
        }
        let all_stars_now = d.iter().all(|&p| d[p as usize] == p);
        if !grafted && all_stars_now {
            break;
        }
        // One synchronous pointer jump.
        let before = d.clone();
        for v in 0..n {
            d[v] = before[before[v] as usize];
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
        let labels = shiloach_vishkin(g);
        // Output must be rooted stars.
        for &p in &labels {
            assert_eq!(labels[p as usize], p, "not flattened");
        }
        // Roots are tree minima, so the labels are the union-find minima
        // exactly, not just the same partition.
        assert_eq!(
            labels,
            connected_components(g),
            "labels differ on n={} m={}",
            g.n,
            g.m()
        );
    }

    #[test]
    fn structured_graphs() {
        check(&gen::path(100));
        check(&gen::cycle(101));
        check(&gen::star(64));
        // A star centred on its largest vertex: the centre is the root
        // that grafts, onto a smaller leaf.
        check(&EdgeList::from_pairs(300, (0..299).map(|v| (299, v))));
        check(&gen::binary_tree(127));
        check(&gen::complete(20));
        check(&gen::mesh2d(8, 9));
        check(&gen::mesh3d(4, 4, 4));
    }

    #[test]
    fn random_graphs_various_density() {
        for (n, m, seed) in [
            (100, 50, 1u64),
            (200, 200, 2),
            (300, 1200, 3),
            (500, 4000, 4),
        ] {
            check(&gen::random_gnm(n, m, seed));
        }
    }

    #[test]
    fn planted_and_isolated() {
        check(&gen::planted_components(7, 13, 2, 5));
        check(&gen::with_isolated(&gen::path(20), 15));
        check(&EdgeList::empty(50));
        check(&EdgeList::empty(0));
    }

    #[test]
    fn duplicate_edges_and_self_loops() {
        let g = EdgeList::from_pairs(6, [(0, 1), (1, 0), (2, 2), (3, 4), (3, 4), (4, 3)]);
        check(&g);
        // Loops and parallel copies share a root after iteration 1's
        // jump, so the filter drops them all and iteration 2 is the exit.
        assert!(try_shiloach_vishkin(&g, 1).is_err());
        assert!(try_shiloach_vishkin(&g, 2).is_ok());
        let loops = EdgeList::from_pairs(3, [(0, 0), (1, 1), (2, 2), (1, 1)]);
        check(&loops);
        assert!(try_shiloach_vishkin(&loops, 1).is_ok());
    }

    #[test]
    fn live_list_empties_before_the_exit_test() {
        // One edge: iteration 1 grafts 1 onto 0 and the filter empties the
        // list; iteration 2 reads no arc, sees only stars and exits. The
        // empty list must neither end the loop early nor keep it going.
        for g in [
            EdgeList::from_pairs(2, [(0, 1)]),
            EdgeList::from_pairs(2, [(1, 0)]),
            gen::star(64),
        ] {
            let err = try_shiloach_vishkin(&g, 1).unwrap_err();
            assert!(matches!(
                err,
                SimError::CycleBudgetExceeded { spent: 2, .. }
            ));
            check(&g);
            assert_eq!(
                try_shiloach_vishkin(&g, 2).unwrap(),
                connected_components(&g)
            );
        }
        // An empty graph is all stars from the start: one iteration.
        assert!(try_shiloach_vishkin(&EdgeList::empty(7), 1).is_ok());
        assert!(try_shiloach_vishkin(&EdgeList::empty(0), 1).is_ok());
    }

    #[test]
    fn adversarial_chain_needs_multiple_iterations() {
        // A path labeled so grafting cascades: still O(log n) iterations.
        let (labels, iters) = shiloach_vishkin_iters(&gen::path(1024));
        assert!(same_partition(
            &labels,
            &connected_components(&gen::path(1024))
        ));
        assert!(iters <= 4 * 10 + 16, "iters = {iters}");
        assert!(iters >= 2, "a long path cannot finish in one iteration");
    }

    #[test]
    fn deterministic_variant_matches_parallel() {
        for seed in 0..3u64 {
            let g = gen::random_gnm(256, 512, seed);
            let (det, _) = shiloach_vishkin_iters(&g);
            let par = shiloach_vishkin(&g);
            assert!(same_partition(&det, &par));
        }
    }

    #[test]
    fn label_sensitivity_changes_iteration_counts() {
        // §4: "SV is sensitive to the labeling of vertices. For the same
        // graph, different labeling of vertices may incur different
        // numbers of iterations." Relabel a path and watch the counts.
        use archgraph_graph::edgelist::EdgeList;
        use archgraph_graph::rng::Rng;
        let n = 512usize;
        let base = gen::path(n);
        let mut counts = std::collections::BTreeSet::new();
        let mut rng = Rng::new(99);
        for _ in 0..6 {
            let perm = rng.permutation(n);
            let relabeled = EdgeList::from_pairs(
                n,
                base.edges
                    .iter()
                    .map(|e| (perm[e.u as usize], perm[e.v as usize])),
            );
            let (labels, iters) = shiloach_vishkin_iters(&relabeled);
            assert!(same_partition(&labels, &connected_components(&relabeled)));
            counts.insert(iters);
        }
        assert!(
            counts.len() > 1,
            "different labelings should need different iteration counts: {counts:?}"
        );
        let max = *counts.iter().max().unwrap();
        let bound = 4 * 9 + 16; // 4 log n + slack
        assert!(max <= bound, "all counts stay O(log n): {counts:?}");
    }

    #[test]
    fn star_graph_converges_fast() {
        let (_, iters) = shiloach_vishkin_iters(&gen::star(1000));
        assert!(iters <= 2, "a star is SV's best case; iters = {iters}");
    }

    #[test]
    fn livelock_returns_structured_error_not_panic() {
        // A long path needs several iterations; a budget of 1 makes it a
        // stand-in for a livelocked run. The old code path asserted
        // ("SV exceeded its O(log n) iteration bound"); now the caller
        // gets the same structured error the simulators' watchdogs emit.
        let g = gen::path(1024);
        let err = try_shiloach_vishkin(&g, 1).unwrap_err();
        match err {
            archgraph_core::SimError::CycleBudgetExceeded {
                budget,
                spent,
                what,
            } => {
                assert_eq!(budget, 1);
                assert_eq!(spent, 2, "detected on the first over-budget iteration");
                assert_eq!(what, "shiloach-vishkin iterations");
            }
            other => panic!("expected a budget error, got {other}"),
        }
        // The same input under the real bound completes fine.
        assert!(try_shiloach_vishkin(&g, iteration_bound(g.n)).is_ok());
    }
}
