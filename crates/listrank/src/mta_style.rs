//! The paper's Alg. 1 walk-based list ranking, natively parallel.
//!
//! Structure (paper §3, MTA algorithm):
//!
//! 1. Mark `NWALK` nodes (including the head), splitting the list into
//!    walks; the rank array doubles as the marker (`rank[j] = walk id`,
//!    unmarked = `NIL`).
//! 2. Traverse each walk, counting its length and discovering its
//!    successor walk. Walks are claimed **dynamically**: a shared atomic
//!    counter stands in for the MTA's `int_fetch_add` loop scheduling.
//! 3. Compute each walk's global offset by pointer-jumping (doubling)
//!    over the walk summary — the parallel step the paper performs on the
//!    `Sublists`-like arrays.
//! 4. Re-traverse each walk, writing final ranks.
//!
//! As noted in the crate docs, ranks are head-anchored ascending (the
//! paper's printed code produces a tail-anchored numbering; the algorithm
//! is otherwise identical).
//!
//! Reached by: `tests/cross_validation.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};

use archgraph_core::SharedSlice;
use archgraph_graph::{LinkedList, Node, NIL};

use crate::seq::sequential_rank;

/// Configuration for [`mta_style_rank`].
#[derive(Debug, Clone)]
pub struct MtaStyleConfig {
    /// Number of walks (the paper's `NWALK`; ~10 list nodes per walk gave
    /// the MTA full utilization).
    pub walks: usize,
    /// Host threads standing in for hardware streams.
    pub threads: usize,
}

impl Default for MtaStyleConfig {
    fn default() -> Self {
        MtaStyleConfig {
            walks: 1024,
            threads: 4,
        }
    }
}

impl MtaStyleConfig {
    /// The paper's sizing rule: about 10 nodes per walk.
    ///
    /// Reached by: `tests/cross_validation.rs` (`all_five_list_rankers_agree`).
    pub fn for_list(n: usize, threads: usize) -> Self {
        MtaStyleConfig {
            walks: (n / 10).max(1),
            threads,
        }
    }
}

/// Evenly spaced walk-head slots (head first, deduplicated).
fn choose_walk_heads(list: &LinkedList, walks: usize) -> Vec<Node> {
    let n = list.len();
    let w = walks.clamp(1, n);
    let mut heads = Vec::with_capacity(w);
    heads.push(list.head);
    if w > 1 {
        let stride = n / w;
        if stride > 0 {
            for i in 1..w {
                let slot = (i * stride) as Node;
                if slot != list.head {
                    heads.push(slot);
                }
            }
        }
    }
    heads.sort_unstable();
    heads.dedup();
    let hpos = heads.iter().position(|&h| h == list.head).unwrap();
    heads.swap(0, hpos);
    heads
}

/// Rank a list with the walk algorithm. Returns head-anchored ranks
/// identical to [`sequential_rank`].
///
/// Reached by: `tests/cross_validation.rs`, `tests/properties.rs` and
/// `tests/failure_injection.rs`, which hold it to the sequential oracle.
pub fn mta_style_rank(list: &LinkedList, cfg: &MtaStyleConfig) -> Vec<Node> {
    let n = list.len();
    let p = cfg.threads.max(1);
    if n == 0 || n < 4 {
        return sequential_rank(list);
    }
    let heads = choose_walk_heads(list, cfg.walks);
    let w = heads.len();
    let next = &list.next;

    // Step 1: rank doubles as the walk marker.
    let mut rank = vec![NIL; n];
    for (i, &h) in heads.iter().enumerate() {
        rank[h as usize] = i as Node;
    }

    // Step 2: measure walks, dynamically claimed.
    let mut w_len = vec![0u64; w];
    let mut w_succ = vec![NIL; w];
    {
        let len_sh = SharedSlice::new(&mut w_len);
        let succ_sh = SharedSlice::new(&mut w_succ);
        let counter = AtomicUsize::new(0);
        let rank = &rank;
        let heads = &heads;
        let counter = &counter;
        std::thread::scope(|scope| {
            for _ in 0..p {
                scope.spawn(move || loop {
                    // The int_fetch_add analogue: claim the next walk.
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    if i >= w {
                        break;
                    }
                    let mut j = heads[i];
                    let mut count: u64 = 1;
                    let mut nx = next[j as usize];
                    while (nx as usize) < n && rank[nx as usize] == NIL {
                        j = nx;
                        count += 1;
                        nx = next[j as usize];
                    }
                    // Safety: walk `i` is claimed by exactly one thread.
                    unsafe {
                        len_sh.write(i, count);
                        succ_sh.write(
                            i,
                            if (nx as usize) < n {
                                rank[nx as usize]
                            } else {
                                NIL
                            },
                        );
                    }
                });
            }
        });
    }

    // Step 3: pointer-jumping (doubling) over the walk summary: suffix
    // sums of lengths along the walk chain, like Alg. 1's lnth/next loop
    // with its tmp double buffers.
    let mut val = w_len.clone();
    let mut ptr = w_succ.clone();
    let mut tmp_val = vec![0u64; w];
    let mut tmp_ptr = vec![NIL; w];
    let mut rounds = 0usize;
    while ptr.iter().any(|&x| x != NIL) {
        for i in 0..w {
            if ptr[i] != NIL {
                tmp_val[i] = val[ptr[i] as usize];
                tmp_ptr[i] = ptr[ptr[i] as usize];
            } else {
                tmp_val[i] = 0;
                tmp_ptr[i] = NIL;
            }
        }
        for i in 0..w {
            val[i] += tmp_val[i];
        }
        ptr.copy_from_slice(&tmp_ptr);
        rounds += 1;
        debug_assert!(rounds <= 64, "doubling must converge in log rounds");
    }
    // val[i] = nodes from walk i's head through the list end (inclusive
    // suffix), so the offset before walk i is n - val[i] — the paper's
    // `NLIST - lnth[i]`.
    let before: Vec<u64> = val.iter().map(|&v| n as u64 - v).collect();

    // Step 4: re-traverse, writing final ranks.
    {
        let rank_sh = SharedSlice::new(&mut rank);
        let counter = AtomicUsize::new(0);
        let heads = &heads;
        let before = &before;
        let w_len = &w_len;
        let counter = &counter;
        std::thread::scope(|scope| {
            for _ in 0..p {
                scope.spawn(move || loop {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    if i >= w {
                        break;
                    }
                    let mut j = heads[i];
                    let len = w_len[i];
                    for k in 0..len {
                        // Safety: walks partition the list.
                        unsafe { rank_sh.write(j as usize, (before[i] + k) as Node) };
                        if k + 1 < len {
                            j = next[j as usize];
                        }
                    }
                });
            }
        });
    }

    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::rng::Rng;

    #[test]
    fn matches_oracle_on_random_lists() {
        let mut rng = Rng::new(21);
        for n in [4usize, 10, 100, 1000, 10_000] {
            let l = LinkedList::random(n, &mut rng);
            for threads in [1usize, 2, 4] {
                let cfg = MtaStyleConfig {
                    walks: (n / 10).max(1),
                    threads,
                };
                assert_eq!(
                    mta_style_rank(&l, &cfg),
                    l.rank_oracle(),
                    "n={n} p={threads}"
                );
            }
        }
    }

    #[test]
    fn matches_oracle_on_ordered_lists() {
        let l = LinkedList::ordered(5000);
        let cfg = MtaStyleConfig::for_list(5000, 4);
        assert_eq!(mta_style_rank(&l, &cfg), l.rank_oracle());
    }

    #[test]
    fn extreme_walk_counts() {
        let mut rng = Rng::new(22);
        let l = LinkedList::random(300, &mut rng);
        for walks in [1usize, 2, 150, 299, 300, 1000] {
            let cfg = MtaStyleConfig { walks, threads: 3 };
            assert_eq!(mta_style_rank(&l, &cfg), l.rank_oracle(), "walks = {walks}");
        }
    }

    #[test]
    fn tiny_lists() {
        let mut rng = Rng::new(23);
        for n in [0usize, 1, 2, 3] {
            let l = LinkedList::random(n, &mut rng);
            let cfg = MtaStyleConfig::default();
            assert_eq!(mta_style_rank(&l, &cfg), l.rank_oracle(), "n = {n}");
        }
    }

    #[test]
    fn sizing_rule() {
        let cfg = MtaStyleConfig::for_list(10_000, 8);
        assert_eq!(cfg.walks, 1000);
        assert_eq!(MtaStyleConfig::for_list(5, 8).walks, 1);
    }

    #[test]
    fn walk_heads_unique_and_head_first() {
        let mut rng = Rng::new(24);
        let l = LinkedList::random(100, &mut rng);
        let heads = choose_walk_heads(&l, 10);
        assert_eq!(heads[0], l.head);
        let mut sorted = heads.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), heads.len());
    }
}
