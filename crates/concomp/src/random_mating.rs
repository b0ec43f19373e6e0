//! Randomized "random-mating" contraction (Reif; Phillips) — the
//! randomized baseline in Greiner's comparison set (paper §4).
//!
//! Each round every component root flips a coin. For every edge whose
//! endpoints lie in different components, if the first endpoint's root
//! flipped TAIL and the second's flipped HEAD, the tail root hooks onto
//! the head root (tails mate with heads — acyclic by construction since
//! heads never move). A full shortcut after each round restores rooted
//! stars. In expectation a constant fraction of components merge per
//! round, giving `O(log n)` rounds with high probability.

use std::sync::atomic::{AtomicU32, Ordering};

use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::rng::mix64;
use archgraph_graph::{Node, NIL};
use rayon::prelude::*;

/// Generous whp bound on rounds before we declare a bug.
fn round_bound(n: usize) -> usize {
    40 * (usize::BITS - n.max(2).leading_zeros()) as usize + 100
}

/// The coin for `root` in `round` under `seed`: true = HEAD.
#[inline]
fn coin(root: Node, round: usize, seed: u64) -> bool {
    mix64(seed ^ ((round as u64) << 32) ^ root as u64) & 1 == 1
}

/// Connected components by random mating. Returns rooted-star labels.
/// Deterministic for a fixed `seed`: the labels, not only the partition,
/// are the same on every call, whatever the thread schedule.
pub fn random_mating(g: &EdgeList, seed: u64) -> Vec<Node> {
    let n = g.n;
    let mut d: Vec<Node> = (0..n as Node).collect();
    // hook[r]: the smallest HEAD root adjacent to TAIL root `r` this round,
    // `NIL` for none.
    let hook: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NIL)).collect();
    let edges = &g.edges;
    let bound = round_bound(n);
    let mut round = 0usize;

    loop {
        // Termination: no edge crosses two components.
        let crossing = edges.par_iter().any(|e| d[e.u as usize] != d[e.v as usize]);
        if !crossing {
            break;
        }
        round += 1;
        assert!(round <= bound, "random mating exceeded its whp round bound");

        // `d` holds rooted stars and is only read here, so every task sees
        // the start-of-round roots; `fetch_min` makes the head a tail root
        // mates with independent of the order the tasks run in.
        edges.par_iter().for_each(|e| {
            for (u, v) in [(e.u, e.v), (e.v, e.u)] {
                let (ru, rv) = (d[u as usize], d[v as usize]);
                if ru != rv && !coin(ru, round, seed) && coin(rv, round, seed) {
                    hook[ru as usize].fetch_min(rv, Ordering::Relaxed);
                }
            }
        });

        // Hook and shortcut in one pass: TAIL roots move onto HEAD roots
        // and heads never move (acyclic by construction), so a vertex whose
        // root hooked is exactly two steps from its new root.
        d.par_iter_mut().for_each(|r| {
            let h = hook[*r as usize].load(Ordering::Relaxed);
            if h != NIL {
                *r = h;
            }
        });
        hook.par_iter()
            .for_each(|h| h.store(NIL, Ordering::Relaxed));
    }

    d
}

/// Rounds-taken probe for benches: `(labels, rounds)`.
pub fn random_mating_rounds(g: &EdgeList, seed: u64) -> (Vec<Node>, usize) {
    // Sequential deterministic re-implementation for stable counts.
    let n = g.n;
    let mut d: Vec<Node> = (0..n as Node).collect();
    let bound = round_bound(n);
    let mut round = 0usize;
    loop {
        let crossing = g.edges.iter().any(|e| d[e.u as usize] != d[e.v as usize]);
        if !crossing {
            break;
        }
        round += 1;
        assert!(round <= bound);
        for e in &g.edges {
            for (u, v) in [(e.u, e.v), (e.v, e.u)] {
                let ru = d[u as usize];
                let rv = d[v as usize];
                if ru != rv && !coin(ru, round, seed) && coin(rv, round, seed) {
                    d[ru as usize] = rv;
                }
            }
        }
        for i in 0..n {
            while d[i] != d[d[i] as usize] {
                d[i] = d[d[i] as usize];
            }
        }
    }
    (d, round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::gen;
    use archgraph_graph::unionfind::{connected_components, same_partition};

    fn check(g: &EdgeList, seed: u64) {
        let labels = random_mating(g, seed);
        for &p in &labels {
            assert_eq!(labels[p as usize], p, "not rooted stars");
        }
        assert!(same_partition(&labels, &connected_components(g)));
    }

    #[test]
    fn structured_graphs() {
        check(&gen::path(100), 1);
        check(&gen::cycle(77), 2);
        check(&gen::star(50), 3);
        check(&gen::mesh2d(9, 9), 4);
        check(&gen::complete(12), 5);
    }

    #[test]
    fn random_graphs_and_seeds() {
        for seed in 0..4u64 {
            check(&gen::random_gnm(300, 500, 10 + seed), seed);
        }
    }

    #[test]
    fn degenerate_inputs() {
        check(&EdgeList::empty(0), 0);
        check(&EdgeList::empty(9), 0);
        check(&gen::with_isolated(&gen::cycle(12), 6), 1);
    }

    #[test]
    fn rounds_are_logarithmic_in_practice() {
        let g = gen::path(2048);
        let (labels, rounds) = random_mating_rounds(&g, 7);
        assert!(same_partition(&labels, &connected_components(&g)));
        // whp O(log n): 11 bits, wide margin.
        assert!(rounds < 80, "rounds = {rounds}");
        assert!(rounds >= 5, "a long path needs several mating rounds");
    }

    #[test]
    fn deterministic_per_seed() {
        // Labels, not just the partition: with several tasks racing to hook
        // one tail root, a schedule-dependent choice shows within a few
        // dozen repeats.
        let g = gen::random_gnm(200, 300, 3);
        for seed in [42u64, 7, 2005] {
            let first = random_mating(&g, seed);
            for run in 1..200 {
                assert_eq!(random_mating(&g, seed), first, "seed {seed}, run {run}");
            }
        }
    }

    #[test]
    fn coin_is_balanced() {
        let heads = (0..10_000u32).filter(|&r| coin(r, 1, 99)).count();
        assert!((4_500..5_500).contains(&heads), "heads = {heads}");
    }
}
