//! The general prefix problem on linked lists (paper §3).
//!
//! "Let X be an array of n elements stored in arbitrary order. For each
//! element i, let X(i).value be its value and X(i).next the index of its
//! successor. Then for any binary associative operator ⊕, compute
//! X(i).prefix such that X(head).prefix = X(head).value and X(i).prefix =
//! X(i).value ⊕ X(predecessor).prefix." List ranking is the instance with
//! all values 1 and ⊕ = addition.
//!
//! [`seq_prefix`] is the sequential form; [`par_prefix`] uses the
//! Helman–JáJá sublist decomposition (same structure as [`crate::hj`])
//! generically over the operator. The decomposition's shared pieces live
//! here too, and [`crate::hj`] and [`crate::sim_smp`] use them.
//!
//! Step 3 advances every sublist of a worker together, one node of each a
//! round: a Random list's successor is a cache miss whose address comes
//! out of the node before, so one walk keeps one miss in flight, while the
//! `s = 8p` sublists are independent chains whose misses the host
//! overlaps. That is why the decomposition pays even at `p = 1`.
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
//! Reached by: `archperf`'s native-kernels `listrank` op (through [`crate::hj`]'s
//! steps 2 and 3).

use archgraph_core::SharedSlice;
use archgraph_graph::rng::Rng;
use archgraph_graph::{LinkedList, Node, NIL};

/// Sequential prefix: `out[slot] = value(head) ⊕ ... ⊕ value(slot)` along
/// list order (inclusive).
pub fn seq_prefix<T, F>(list: &LinkedList, values: &[T], op: F) -> Vec<T>
where
    T: Copy + Default,
    F: Fn(T, T) -> T,
{
    let n = list.len();
    assert_eq!(values.len(), n, "one value per element");
    let mut out = vec![T::default(); n];
    let mut j = list.head;
    let mut acc: Option<T> = None;
    while (j as usize) < n {
        let v = values[j as usize];
        let next_acc = match acc {
            None => v,
            Some(a) => op(a, v),
        };
        out[j as usize] = next_acc;
        acc = Some(next_acc);
        j = list.next[j as usize];
    }
    out
}

/// Parallel prefix via the Helman–JáJá sublist decomposition, generic
/// over the associative operator. `threads` host threads; `s = 8·threads`
/// sublists (the paper's choice).
///
/// # Examples
/// ```
/// use archgraph_graph::{list::LinkedList, rng::Rng};
/// use archgraph_listrank::prefix::par_prefix;
///
/// // Running maximum along a randomly laid-out list.
/// let list = LinkedList::random(500, &mut Rng::new(2));
/// let vals: Vec<i64> = (0..500).map(|i| (i * 37 % 101) as i64).collect();
/// let pre = par_prefix(&list, &vals, |a, b| a.max(b), 2, 0);
/// let tail = *list.order().last().unwrap() as usize;
/// assert_eq!(pre[tail], *vals.iter().max().unwrap());
/// ```
pub fn par_prefix<T, F>(list: &LinkedList, values: &[T], op: F, threads: usize, seed: u64) -> Vec<T>
where
    T: Copy + Default + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    let n = list.len();
    assert_eq!(values.len(), n);
    let p = threads.max(1);
    // Too short for every worker to have sublists worth walking.
    if n < 16 * p {
        return seq_prefix(list, values, op);
    }

    let s = 8 * p; // number of sublists (paper: s = 8p)
    let heads = choose_sublist_heads(list, s, seed);
    let s = heads.len();

    // Step 2: mark the heads (see the module header).
    let mut sub_of = vec![NIL; n];
    for (i, &h) in heads.iter().enumerate() {
        sub_of[h as usize] = i as Node;
    }

    let mut out = vec![T::default(); n];
    let mut sub_last = vec![T::default(); s]; // ⊕-total of each sublist
    let mut sub_succ = vec![NIL; s];

    // Step 3: advance every sublist (cyclic assignment to workers).
    {
        let out_sh = SharedSlice::new(&mut out);
        let sub_of_sh = SharedSlice::new(&mut sub_of);
        let last_sh = SharedSlice::new(&mut sub_last);
        let succ_sh = SharedSlice::new(&mut sub_succ);
        let next = &list.next;
        on_workers(p, |t| {
            advance_sublists(&heads, t, p, None, |i, j, acc: &mut Option<T>| {
                let v = values[j];
                let a = acc.map_or(v, |a| op(a, v));
                *acc = Some(a);
                // Safety: sublists partition the list, so slot `j` and the
                // summaries of sublist `i` are this walk's alone; `follow`'s
                // contract is the module header's argument.
                unsafe {
                    out_sh.write(j, a);
                    match follow(next, sub_of_sh, i, j) {
                        Ok(nx) => Some(nx),
                        Err(succ) => {
                            last_sh.write(i, a);
                            succ_sh.write(i, succ);
                            None
                        }
                    }
                }
            });
        });
    }

    // Step 4: prefix over the sublist summaries in chain order (s is
    // small: O(p) work).
    let mut sub_offset: Vec<Option<T>> = vec![None; s];
    let mut cur = 0usize; // sublist 0 contains the list head
    let mut acc: Option<T> = None;
    loop {
        sub_offset[cur] = acc;
        let total = sub_last[cur];
        acc = Some(match acc {
            None => total,
            Some(a) => op(a, total),
        });
        let nxt = sub_succ[cur];
        if nxt == NIL {
            break;
        }
        cur = nxt as usize;
    }

    // Step 5: contiguous final combine.
    {
        let out_sh = SharedSlice::new(&mut out);
        let chunk = n.div_ceil(p);
        on_workers(p, |t| {
            for slot in t * chunk..((t + 1) * chunk).min(n) {
                if let Some(off) = sub_offset[sub_of[slot] as usize] {
                    // Safety: each slot written by exactly one worker
                    // (contiguous partition).
                    unsafe {
                        let v = out_sh.read(slot);
                        out_sh.write(slot, op(off, v));
                    }
                }
            }
        });
    }

    out
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
    use archgraph_graph::rng::Rng;
    use proptest::prelude::*;

    #[test]
    fn seq_prefix_addition_is_rank_plus_one() {
        let mut rng = Rng::new(5);
        let l = LinkedList::random(257, &mut rng);
        let ones = vec![1u64; 257];
        let pre = seq_prefix(&l, &ones, |a, b| a + b);
        let rank = l.rank_oracle();
        for slot in 0..257 {
            assert_eq!(pre[slot], rank[slot] as u64 + 1);
        }
    }

    #[test]
    fn par_prefix_matches_seq_for_addition() {
        let mut rng = Rng::new(6);
        for n in [1usize, 2, 16, 255, 1024, 5000] {
            let l = LinkedList::random(n, &mut rng);
            let vals: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            let s = seq_prefix(&l, &vals, |a, b| a + b);
            for threads in [1usize, 2, 4] {
                let p = par_prefix(&l, &vals, |a, b| a + b, threads, 42);
                assert_eq!(p, s, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn par_prefix_with_max_operator() {
        let mut rng = Rng::new(7);
        let n = 2000usize;
        let l = LinkedList::random(n, &mut rng);
        let vals: Vec<i64> = (0..n).map(|i| ((i * 7919) % 1000) as i64 - 500).collect();
        let s = seq_prefix(&l, &vals, |a, b| a.max(b));
        let p = par_prefix(&l, &vals, |a, b| a.max(b), 4, 1);
        assert_eq!(p, s, "running-max prefix must match");
    }

    #[test]
    fn par_prefix_with_noncommutative_operator() {
        // ⊕ = composition of affine maps x ↦ ax + b over the ring Z_97:
        // (a, b) ∘ (c, d) = (ac, bc + d) with both components mod 97 —
        // associative (function composition) but not commutative.
        type Aff = (i64, i64);
        let op = |x: Aff, y: Aff| -> Aff {
            ((x.0 * y.0).rem_euclid(97), (x.1 * y.0 + y.1).rem_euclid(97))
        };
        let mut rng = Rng::new(8);
        let n = 1500usize;
        let l = LinkedList::random(n, &mut rng);
        let vals: Vec<Aff> = (0..n)
            .map(|i| (((i * 31) % 96 + 1) as i64, (i * 7 % 97) as i64))
            .collect();
        let s = seq_prefix(&l, &vals, op);
        let p = par_prefix(&l, &vals, op, 3, 2);
        assert_eq!(p, s, "non-commutative operator order must be preserved");
    }

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
        fn every_shape_prefixes_as_seq_prefix(
            threads in 1usize..5,
            // Half the cases in 0..=16p + 3, across the sequential fallback.
            at_edge in any::<bool>(),
            n in 0usize..5001,
            layout in 0u8..3,
            seed in any::<u64>(),
        ) {
            // The affine composition of `par_prefix_with_noncommutative_operator`.
            type Aff = (i64, i64);
            let op = |x: Aff, y: Aff| -> Aff {
                ((x.0 * y.0).rem_euclid(97), (x.1 * y.0 + y.1).rem_euclid(97))
            };
            let n = if at_edge { n % (16 * threads + 4) } else { n };
            let list = shaped(layout, n, seed);
            let vals: Vec<Aff> = (0..n)
                .map(|i| (((i * 31) % 96 + 1) as i64, (i * 7 % 97) as i64))
                .collect();
            prop_assert_eq!(
                par_prefix(&list, &vals, op, threads, seed),
                seq_prefix(&list, &vals, op),
                "n={} threads={} layout={}",
                n, threads, layout
            );
        }
    }

    #[test]
    fn ordered_list_prefix() {
        let l = LinkedList::ordered(100);
        let ones = vec![1u32; 100];
        let p = par_prefix(&l, &ones, |a, b| a + b, 2, 0);
        let expect: Vec<u32> = (1..=100).collect();
        assert_eq!(p, expect);
    }

    #[test]
    fn empty_and_tiny() {
        let l = LinkedList::ordered(0);
        assert!(par_prefix(&l, &[], |a: u32, b| a + b, 4, 0).is_empty());
        let l = LinkedList::ordered(1);
        assert_eq!(par_prefix(&l, &[7u32], |a, b| a + b, 4, 0), vec![7]);
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

    #[test]
    #[should_panic(expected = "one value per element")]
    fn value_length_mismatch_panics() {
        let l = LinkedList::ordered(3);
        seq_prefix(&l, &[1u32; 2], |a, b| a + b);
    }
}
