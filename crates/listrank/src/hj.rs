//! The Helman–JáJá list-ranking algorithm, natively parallel.
//!
//! The five steps of §3, structured exactly as the paper's SMP code: `p`
//! persistent workers (POSIX-thread style; worker 0 is the calling thread)
//! separated by software barriers, with `s = 8p` sublists chosen
//! one-per-block at random.
//!
//! 1. Find the head by the successor-sum identity (parallel reduction).
//! 2. Partition into `s` sublists by marking random nodes.
//! 3. Advance every sublist of a worker together, computing local ranks
//!    and recording each node's sublist index.
//! 4. Prefix-sum the sublist summary records in chain order.
//! 5. Add each node's sublist offset to its local rank (contiguous pass).
//!
//! Step 3 is [`crate::prefix`]'s one sublist chase, and `sub_of` doubles as
//! step 2's head marker; that module's header says why the chase pays at
//! `p = 1` too and why the shared `sub_of` is race-free.
//!
//! Reached by: `archperf`'s native-kernels `listrank` op.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use archgraph_core::SharedSlice;
use archgraph_graph::{LinkedList, Node, NIL};

use crate::prefix::{advance_sublists, choose_sublist_heads, follow, on_workers};
use crate::seq::sequential_rank;

/// Configuration for [`helman_jaja`].
#[derive(Debug, Clone)]
pub struct HjConfig {
    /// Worker thread count (the model's `p`).
    pub threads: usize,
    /// Sublists per thread; the paper uses 8 (`s = 8p`).
    pub sublists_per_thread: usize,
    /// Seed for the random sublist-head choice.
    pub seed: u64,
}

impl Default for HjConfig {
    fn default() -> Self {
        HjConfig {
            threads: 4,
            sublists_per_thread: 8,
            seed: 0x5eed,
        }
    }
}

impl HjConfig {
    /// A configuration with `threads` workers and the paper's defaults.
    pub fn with_threads(threads: usize) -> Self {
        HjConfig {
            threads,
            ..Default::default()
        }
    }
}

/// Rank a list with the Helman–JáJá algorithm. Returns `rank[slot]` =
/// number of predecessors (head = 0), identical to
/// [`crate::seq::sequential_rank`].
///
/// # Examples
/// ```
/// use archgraph_graph::{list::LinkedList, rng::Rng};
/// use archgraph_listrank::{helman_jaja, HjConfig};
///
/// let list = LinkedList::random(10_000, &mut Rng::new(1));
/// let rank = helman_jaja(&list, &HjConfig::with_threads(4));
/// assert_eq!(rank, list.rank_oracle());
/// ```
pub fn helman_jaja(list: &LinkedList, cfg: &HjConfig) -> Vec<Node> {
    let n = list.len();
    let p = cfg.threads.max(1);
    // Too short for every worker to have sublists worth walking.
    if n < 16 * p {
        return sequential_rank(list);
    }
    let s = (cfg.sublists_per_thread.max(1) * p).min(n);

    let next = &list.next;
    let barrier = Barrier::new(p);
    let sum = AtomicU64::new(0);

    // Step 2 inputs prepared up front (allocation is not a measured phase;
    // the *marking* happens inside the parallel region).
    let heads = choose_sublist_heads(list, s, cfg.seed);
    let s = heads.len();
    let mut rank = vec![0 as Node; n];
    let mut sub_of = vec![NIL; n];
    let mut sub_len = vec![0 as Node; s];
    let mut sub_succ = vec![NIL; s];
    let mut sub_off = vec![0 as Node; s];

    {
        let rank_sh = SharedSlice::new(&mut rank);
        let sub_of_sh = SharedSlice::new(&mut sub_of);
        let len_sh = SharedSlice::new(&mut sub_len);
        let succ_sh = SharedSlice::new(&mut sub_succ);
        let off_sh = SharedSlice::new(&mut sub_off);
        let chunk = n.div_ceil(p);

        on_workers(p, |t| {
            let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(n));

            // --- Step 1: head finding (parallel reduction). ---
            let local: u64 = next[lo..hi].iter().map(|&x| x as u64).sum();
            sum.fetch_add(local, Ordering::Relaxed);
            barrier.wait();
            if t == 0 {
                let nn = n as u64;
                let found = (nn * (nn - 1) / 2 + nn - sum.load(Ordering::Relaxed)) as Node;
                debug_assert_eq!(found, list.head, "head identity");

                // --- Step 2: mark sublist heads. ---
                for (i, &h) in heads.iter().enumerate() {
                    // Safety: only worker 0 writes `sub_of` here.
                    unsafe { sub_of_sh.write(h as usize, i as Node) };
                }
            }
            barrier.wait();

            // --- Step 3: advance sublists (cyclic assignment). ---
            advance_sublists(&heads, t, p, 0 as Node, |i, j, r| {
                // Safety: sublists partition the list, so slot `j` and the
                // summaries of sublist `i` are this walk's alone; `follow`'s
                // contract is `prefix`'s header argument.
                unsafe {
                    rank_sh.write(j, *r);
                    *r += 1;
                    match follow(next, sub_of_sh, i, j) {
                        Ok(nx) => Some(nx),
                        Err(succ) => {
                            len_sh.write(i, *r);
                            succ_sh.write(i, succ);
                            None
                        }
                    }
                }
            });
            barrier.wait();

            // --- Step 4: sublist prefix (worker 0; s = O(p)). ---
            if t == 0 {
                let mut cur = 0usize;
                let mut acc: Node = 0;
                loop {
                    // Safety: steps are barrier-separated; only worker 0
                    // touches the summaries here.
                    unsafe { off_sh.write(cur, acc) };
                    acc += unsafe { len_sh.read(cur) };
                    let nxt = unsafe { succ_sh.read(cur) };
                    if nxt == NIL {
                        break;
                    }
                    cur = nxt as usize;
                }
                debug_assert_eq!(acc as usize, n, "sublists cover the list");
            }
            barrier.wait();

            // --- Step 5: contiguous combine. ---
            for slot in lo..hi {
                // Safety: contiguous disjoint chunks.
                unsafe {
                    let local = rank_sh.read(slot);
                    let off = off_sh.read(sub_of_sh.read(slot) as usize);
                    rank_sh.write(slot, local + off);
                }
            }
        });
    }

    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::rng::Rng;
    use proptest::prelude::*;

    /// An Ordered, Random or reversed list of `n` nodes.
    fn shaped(layout: u8, n: usize, seed: u64) -> LinkedList {
        match layout {
            0 => LinkedList::ordered(n),
            1 => LinkedList::random(n, &mut Rng::new(seed)),
            _ => LinkedList::from_permutation(&(0..n as Node).rev().collect::<Vec<_>>()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn every_shape_ranks_as_the_oracle(
            threads in 1usize..5,
            sublists_per_thread in 1usize..10,
            // Half the cases in 0..=16p + 3, across the sequential fallback.
            at_edge in any::<bool>(),
            n in 0usize..5001,
            layout in 0u8..3,
            seed in any::<u64>(),
        ) {
            let n = if at_edge { n % (16 * threads + 4) } else { n };
            let list = shaped(layout, n, seed);
            let cfg = HjConfig { threads, sublists_per_thread, seed };
            prop_assert_eq!(
                helman_jaja(&list, &cfg),
                list.rank_oracle(),
                "n={} threads={} sublists_per_thread={} layout={}",
                n, threads, sublists_per_thread, layout
            );
        }
    }

    #[test]
    fn one_thread_decomposes_a_long_random_list() {
        let l = LinkedList::random(1 << 16, &mut Rng::new(16));
        assert_eq!(helman_jaja(&l, &HjConfig::with_threads(1)), l.rank_oracle());
    }

    #[test]
    fn matches_oracle_on_random_lists() {
        let mut rng = Rng::new(11);
        for n in [64usize, 100, 1000, 10_000] {
            let l = LinkedList::random(n, &mut rng);
            for threads in [2usize, 3, 4] {
                let cfg = HjConfig {
                    threads,
                    ..Default::default()
                };
                assert_eq!(helman_jaja(&l, &cfg), l.rank_oracle(), "n={n} p={threads}");
            }
        }
    }

    #[test]
    fn matches_oracle_on_ordered_lists() {
        let l = LinkedList::ordered(4096);
        let cfg = HjConfig::with_threads(4);
        assert_eq!(helman_jaja(&l, &cfg), l.rank_oracle());
    }

    #[test]
    fn tiny_lists_fall_back_to_sequential() {
        let mut rng = Rng::new(12);
        for n in [0usize, 1, 2, 5, 15] {
            let l = LinkedList::random(n, &mut rng);
            let cfg = HjConfig::with_threads(8);
            assert_eq!(helman_jaja(&l, &cfg), l.rank_oracle(), "n = {n}");
        }
    }

    #[test]
    fn single_thread_matches() {
        let mut rng = Rng::new(13);
        let l = LinkedList::random(512, &mut rng);
        let cfg = HjConfig::with_threads(1);
        assert_eq!(helman_jaja(&l, &cfg), l.rank_oracle());
    }

    #[test]
    fn sublist_count_knob_is_respected() {
        // Any sublists-per-thread must still produce correct ranks (the
        // paper fixes s = 8p; `benchmarks/` sets this knob).
        let mut rng = Rng::new(14);
        let l = LinkedList::random(3000, &mut rng);
        for spt in [1usize, 2, 8, 32, 100] {
            let cfg = HjConfig {
                threads: 4,
                sublists_per_thread: spt,
                seed: 1,
            };
            assert_eq!(helman_jaja(&l, &cfg), l.rank_oracle(), "s/p = {spt}");
        }
    }

    #[test]
    fn different_seeds_same_answer() {
        let mut rng = Rng::new(15);
        let l = LinkedList::random(2048, &mut rng);
        let a = helman_jaja(
            &l,
            &HjConfig {
                seed: 1,
                ..HjConfig::with_threads(4)
            },
        );
        let b = helman_jaja(
            &l,
            &HjConfig {
                seed: 99,
                ..HjConfig::with_threads(4)
            },
        );
        assert_eq!(a, b);
    }
}
