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
//! Step 3 advances every sublist of a worker together, one node of each a
//! round: a Random list's successor is a cache miss whose address comes
//! out of the node before, so one walk keeps one miss in flight, while the
//! `s = 8p` sublists are independent chains whose misses the host
//! overlaps. That is why the decomposition pays even at `p = 1`. The
//! chase (`advance_sublists` and `follow`) and the head choice are
//! `pub(crate)`: [`crate::sim_smp`]'s host half runs the same chase.
//!
//! `sub_of[slot]` (the sublist `slot` belongs to) starts at `NIL` and
//! doubles as the head marker: step 2 writes every head's index before any
//! walk starts, and a walk claims its successor by writing the `sub_of`
//! entry it has just found `NIL`. This is free of data races: a walk reads
//! `sub_of[nx]` only for its own successor `nx`, which is either a head
//! (written before the walks began, never again) or an unclaimed node of
//! its own sublist (no other walk reaches it, and this walk claims it on
//! the spot).
//!
//! Reached by: `archperf`'s native-kernels `listrank` op, and the
//! `fig1/smp/*` suite cells through [`crate::sim_smp`] (steps 2 and 3).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use archgraph_core::SharedSlice;
use archgraph_graph::rng::Rng;
use archgraph_graph::{LinkedList, Node, NIL};

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
                // contract is the module header's argument.
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

/// Run `work(t)` for every worker `t` in `0..p`, returning when all have:
/// worker 0 on the calling thread and the other `p − 1` spawned, so `p = 1`
/// spawns nothing.
pub(crate) fn on_workers(p: usize, work: impl Fn(usize) + Sync) {
    let work = &work;
    std::thread::scope(|scope| {
        for t in 1..p {
            scope.spawn(move || work(t));
        }
        work(0);
    });
}

/// Step 3 for worker `t` of `p`: walk sublists `t, t + p, …` of `heads`
/// together, one node of every live sublist a round, until all have ended.
///
/// Each sublist starts at its head with `state = start`. `visit(sub, slot,
/// state)` does sublist `sub`'s work at `slot` and returns the slot to
/// visit next, or `None` where the sublist ends (recording its summary
/// itself). Which sublist a round takes first changes nothing, so one that
/// ends is `swap_remove`d (`retain` would copy every survivor down, every
/// round, once the first has ended).
pub(crate) fn advance_sublists<S: Copy>(
    heads: &[Node],
    t: usize,
    p: usize,
    start: S,
    mut visit: impl FnMut(usize, usize, &mut S) -> Option<Node>,
) {
    /// A sublist still being walked: its index, the slot it has reached
    /// and what its walk carries.
    struct Chain<S> {
        sub: Node,
        at: Node,
        state: S,
    }
    let mut live: Vec<Chain<S>> = (t..heads.len())
        .step_by(p)
        .map(|sub| Chain {
            sub: sub as Node,
            at: heads[sub],
            state: start,
        })
        .collect();
    while !live.is_empty() {
        let mut k = 0;
        while k < live.len() {
            let c = &mut live[k];
            match visit(c.sub as usize, c.at as usize, &mut c.state) {
                Some(at) => {
                    c.at = at;
                    k += 1;
                }
                None => {
                    live.swap_remove(k);
                }
            }
        }
    }
}

/// Where sublist `sub`'s walk goes after slot `j`: `Ok(successor)`, which
/// it claims by writing the successor's `sub_of`, or, where the sublist
/// ends, `Err` of the sublist that starts at the successor (`NIL` after
/// the list's tail).
///
/// # Safety
/// `sub_of` has one entry per slot of `next` and is the module header's:
/// `NIL` but at the heads, which were written before any walk began and
/// hold their sublist's index, or at slots already claimed. `j` is a slot
/// of sublist `sub` that this walk has claimed, and no other thread runs
/// sublist `sub`.
pub(crate) unsafe fn follow(
    next: &[Node],
    sub_of: SharedSlice<Node>,
    sub: usize,
    j: usize,
) -> Result<Node, Node> {
    let nx = next[j];
    if nx as usize >= next.len() {
        return Err(NIL);
    }
    match sub_of.read(nx as usize) {
        NIL => {
            sub_of.write(nx as usize, sub as Node);
            Ok(nx)
        }
        head_of => Err(head_of),
    }
}

/// Choose `s` sublist head slots: the true head plus one random slot from
/// each block of `n / (s-1)` slots (paper step 2), deduplicated.
pub(crate) fn choose_sublist_heads(list: &LinkedList, s: usize, seed: u64) -> Vec<Node> {
    let n = list.len();
    let s = s.clamp(1, n);
    let mut rng = Rng::new(seed);
    let mut heads = Vec::with_capacity(s);
    heads.push(list.head);
    if s > 1 {
        let block = n / (s - 1);
        if block > 0 {
            for b in 0..(s - 1) {
                let lo = b * block;
                let hi = ((b + 1) * block).min(n);
                if lo >= hi {
                    continue;
                }
                let mut pick = lo + rng.below_usize(hi - lo);
                if pick as Node == list.head {
                    // Nudge within the block; blocks have ≥1 slot, and if
                    // the block is the head's singleton, skip it.
                    if hi - lo == 1 {
                        continue;
                    }
                    pick = if pick + 1 < hi { pick + 1 } else { lo };
                }
                heads.push(pick as Node);
            }
        }
    }
    heads.sort_unstable();
    heads.dedup();
    // Keep the true head at index 0 (the chain scan starts there).
    let hpos = heads.iter().position(|&h| h == list.head).unwrap();
    heads.swap(0, hpos);
    heads
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn sublist_heads_are_valid_and_unique() {
        let mut rng = Rng::new(10);
        let l = LinkedList::random(1000, &mut rng);
        for s in [1usize, 2, 8, 64, 999] {
            let heads = choose_sublist_heads(&l, s, 3);
            assert_eq!(heads[0], l.head, "true head first");
            let mut sorted = heads.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), heads.len(), "no duplicates at s = {s}");
            assert!(heads.iter().all(|&h| (h as usize) < 1000));
            assert!(heads.len() <= s.max(1));
        }
    }

    #[test]
    fn sublist_heads_on_tiny_lists() {
        let l = LinkedList::ordered(2);
        let heads = choose_sublist_heads(&l, 16, 0);
        assert_eq!(heads[0], 0);
        assert!(heads.len() <= 2);
    }
}
