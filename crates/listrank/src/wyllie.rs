//! Wyllie's pointer-jumping list ranking — the classical PRAM algorithm
//! and the work-inefficiency foil to Helman–JáJá.
//!
//! Every node repeatedly accumulates its successor's count and jumps over
//! it (`rank[i] += rank[next[i]]; next[i] = next[next[i]]`), finishing in
//! `⌈log₂ n⌉` rounds but performing `Θ(n log n)` total work — the reason
//! the paper's sublist/walk algorithms exist. Included as the
//! work-efficiency ablation's baseline (ABL-WORK).
//!
//! Reached by: ABL-WORK, the work-efficiency ablation (`tests::round_bound_is_logarithmic`).

use archgraph_graph::{LinkedList, Node};
use rayon::prelude::*;

/// Rank a list by pointer jumping. Returns head-anchored ranks identical
/// to [`crate::seq::sequential_rank`]. `Θ(n log n)` work, `Θ(log n)`
/// rounds.
///
/// # Examples
/// ```
/// use archgraph_graph::{list::LinkedList, rng::Rng};
/// use archgraph_listrank::wyllie::wyllie_rank;
///
/// let list = LinkedList::random(2048, &mut Rng::new(5));
/// assert_eq!(wyllie_rank(&list), list.rank_oracle());
/// ```
///
/// Reached by: `tests/properties.rs` (`wyllie_ranks_arbitrary_permutations`),
/// the ABL-WORK baseline.
pub fn wyllie_rank(list: &LinkedList) -> Vec<Node> {
    wyllie(list).0
}

/// Pointer jumping, returning the ranks and the number of rounds it took.
/// Every round rewrites all `n` entries, so the work is `n · rounds`.
fn wyllie(list: &LinkedList) -> (Vec<Node>, usize) {
    let n = list.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let term = n as Node;
    // dist[i] = number of nodes from i to the end (inclusive), computed by
    // doubling; then head-anchored rank = n - dist.
    let mut dist: Vec<u64> = vec![1; n];
    let mut next: Vec<Node> = list.next.clone();
    let mut dist_new = vec![0u64; n];
    let mut next_new = vec![term; n];

    let mut rounds = 0usize;
    loop {
        let done = next.par_iter().all(|&nx| nx == term);
        if done {
            break;
        }
        rounds += 1;
        assert!(
            rounds <= 64,
            "pointer jumping must converge in log n rounds"
        );
        dist_new
            .par_iter_mut()
            .zip(next_new.par_iter_mut())
            .enumerate()
            .for_each(|(i, (dn, nn))| {
                let nx = next[i];
                if nx == term {
                    *dn = dist[i];
                    *nn = term;
                } else {
                    *dn = dist[i] + dist[nx as usize];
                    *nn = next[nx as usize];
                }
            });
        std::mem::swap(&mut dist, &mut dist_new);
        std::mem::swap(&mut next, &mut next_new);
    }

    let rank = dist.into_iter().map(|d| (n as u64 - d) as Node).collect();
    (rank, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::rng::Rng;

    #[test]
    fn matches_oracle_on_random_lists() {
        let mut rng = Rng::new(51);
        for n in [1usize, 2, 3, 100, 1023, 1024, 5000] {
            let l = LinkedList::random(n, &mut rng);
            assert_eq!(wyllie_rank(&l), l.rank_oracle(), "n = {n}");
        }
    }

    #[test]
    fn matches_oracle_on_ordered_lists() {
        let l = LinkedList::ordered(2048);
        assert_eq!(wyllie_rank(&l), l.rank_oracle());
    }

    #[test]
    fn empty_list() {
        assert!(wyllie_rank(&LinkedList::ordered(0)).is_empty());
    }

    /// ABL-WORK: the measured round count is ⌈log₂ n⌉ whatever the layout,
    /// and every round rewrites all `n` entries, so the work is
    /// `n · ⌈log₂ n⌉` — against the `Θ(n)` of Helman–JáJá and the walks.
    #[test]
    fn round_bound_is_logarithmic() {
        let mut rng = Rng::new(53);
        for n in [1usize, 2, 1024, 1025, 5000, 1 << 16] {
            let log2_ceil = (usize::BITS - (n - 1).leading_zeros()) as usize;
            for list in [LinkedList::random(n, &mut rng), LinkedList::ordered(n)] {
                let (rank, rounds) = wyllie(&list);
                assert_eq!(rank, list.rank_oracle(), "n = {n}");
                assert_eq!(rounds, log2_ceil, "n = {n}");
            }
        }
    }

    #[test]
    fn agrees_with_helman_jaja() {
        let mut rng = Rng::new(52);
        let l = LinkedList::random(3000, &mut rng);
        assert_eq!(
            wyllie_rank(&l),
            crate::hj::helman_jaja(&l, &crate::hj::HjConfig::with_threads(4))
        );
    }
}
