//! Helman–JáJá list ranking on the simulated SMP (Fig. 1, right panel).
//!
//! The algorithm's real work is done on host data, and every memory touch
//! it makes is mirrored onto the cycle-accounting [`SmpMachine`]: the
//! mirrored addresses are the *actual* addresses the algorithm visits, so
//! an Ordered list produces sequential streams (cache + prefetch friendly)
//! and a Random list produces dependent random accesses — the mechanism
//! behind the paper's 3–4× Ordered/Random gap.
//!
//! In the contiguous steps the work and its mirror go side by side. The
//! sublist walk (step 3) is split into the two things it is, because the
//! host is a cache machine too and a Random walk is its worst case — each
//! successor record is a host DRAM miss, and the next address comes out of
//! it:
//!
//! * **Host half.** One loop — the native codes' sublist chase, in
//!   [`crate::prefix`] — advances *every* live sublist by one node per
//!   round and does all of the real work (`rank`, `sub_of`, the sublist
//!   records). The sublists are independent chains and a host-only step is
//!   a few dozen instructions, so many chains' misses are in the host's
//!   out-of-order window at once instead of one. The order in which each
//!   sublist visited its nodes is then read off the result — the `r`-th
//!   visit of sublist `i` is the node with `sub_of == i` and `rank == r` —
//!   in one pass over the records in address order.
//! * **Simulated half.** The `walk` phase replays that order and issues
//!   only the mirror calls; it needs no host record at all.
//!
//! What the simulated machine observes is each processor's own access
//! sequence, nothing else: a [`ProcCtx`](archgraph_smp_sim::machine::ProcCtx)
//! has its own clock, TLB and caches, and stall windows and brownouts are
//! functions of that clock. Processor `proc` walks sublists `proc`,
//! `proc + p`, … one after another, each from its head to its end, so the
//! replay runs in exactly that order — the processor's order, not the
//! host chase's round-robin — and `RunStats` are bit-identical to a walk
//! that mirrors as it goes (`tests::reference_hj` is that walk, kept as
//! the reference the proptest holds this one to).
//!
//! Boundary detection uses the Helman–JáJá implementation trick of
//! tagging sublist-head nodes in the successor array itself (one
//! read-modify-write per sublist at marking time), so the walk phase
//! touches exactly three arrays per node: `next` (read), `rank` (write),
//! `sublist_of` (write).
//!
//! On the host the four per-node columns live in one 16-byte record, not
//! four arrays: a Random list visits nodes in an order unrelated to their
//! addresses, so every column touched is its own host cache miss, and the
//! walk — the long pole of the Random cells — was spending them four to a
//! node. The simulated machine still sees three separate arrays; only the
//! `ctx` calls speak to it, and their sequence is what it was.
//!
//! Reached by: the `fig1/smp/*` suite cells.

use archgraph_core::error::SimError;
use archgraph_core::machine::SmpParams;
use archgraph_graph::{LinkedList, Node, NIL};
use archgraph_smp_sim::machine::{ArrayAddr, SmpMachine};
use archgraph_smp_sim::stats::RunStats;

use crate::prefix::{advance_sublists, choose_sublist_heads};

/// Result of a simulated SMP run.
#[derive(Debug, Clone)]
pub struct SmpSimResult {
    /// The computed ranks (verifiable against the oracle).
    pub rank: Vec<Node>,
    /// Simulated wall time in seconds.
    pub seconds: f64,
    /// Aggregate machine statistics.
    pub stats: RunStats,
}

/// Per-element instruction budgets for the phase bodies.
///
/// These are *calibrated to the published behaviour of the original
/// pthreads implementation*, not to a hand-optimized kernel: the paper's
/// own ratios (Random/Ordered = 3–4x on the SMP while the MTA beats the
/// SMP 35x on Random) imply a large layout-independent per-element cost
/// in the measured code — records with value/next fields, the generic
/// prefix-operator dispatch of the Helman–JáJá library code, and
/// pthread-era loop overheads. At `compute_cpi = 2` these budgets
/// reproduce the published Ordered/Random and SMP/MTA ratio bands
/// simultaneously (see EXPERIMENTS.md for the calibration record).
const WALK_INSTRS: u64 = 110;
const SCAN_INSTRS: u64 = 30;
const COMBINE_INSTRS: u64 = 60;

/// What the host keeps for one list node during [`try_simulate_hj`].
#[derive(Clone, Copy)]
struct NodeRec {
    next: Node,
    /// Index of the sublist this node heads, [`NIL`] for any other node.
    marker: Node,
    rank: Node,
    sub_of: Node,
}

/// Simulate the five-step Helman–JáJá algorithm on `p` processors,
/// panicking on simulation failure (legacy entry point).
pub fn simulate_hj(
    list: &LinkedList,
    params: &SmpParams,
    p: usize,
    sublists_per_proc: usize,
    seed: u64,
) -> SmpSimResult {
    try_simulate_hj(list, params, p, sublists_per_proc, seed)
        .unwrap_or_else(|e| panic!("simulate_hj: {e}"))
}

/// [`simulate_hj`] returning structured failures — the form the `apps`
/// simulated drivers build on.
pub fn try_simulate_hj(
    list: &LinkedList,
    params: &SmpParams,
    p: usize,
    sublists_per_proc: usize,
    seed: u64,
) -> Result<SmpSimResult, SimError> {
    hj_with(chase_then_replay, list, params, p, sublists_per_proc, seed)
}

/// Step 3 as a function: on a machine that has run steps 1 and 2, walk the
/// sublists that start at `heads` through the node records, mirroring onto
/// the simulated `[next, rank, sub_of, sublists]` arrays, and return each
/// sublist's length and the sublist that follows it ([`NIL`] after the
/// last). A parameter of [`hj_with`] so that the test module can run the
/// whole algorithm around its reference walk.
type Walk = fn(
    &mut SmpMachine,
    &mut [NodeRec],
    &[Node],
    [ArrayAddr; 4],
) -> Result<(Vec<Node>, Vec<Node>), SimError>;

/// The five steps, with step 3 done by `walk`.
fn hj_with(
    walk: Walk,
    list: &LinkedList,
    params: &SmpParams,
    p: usize,
    sublists_per_proc: usize,
    seed: u64,
) -> Result<SmpSimResult, SimError> {
    let n = list.len();
    let mut m = SmpMachine::new(params.clone(), p);
    if n == 0 {
        return Ok(SmpSimResult {
            rank: Vec::new(),
            seconds: 0.0,
            stats: m.stats(),
        });
    }
    let next_a = m.alloc_elems::<u32>(n);
    let rank_a = m.alloc_elems::<u32>(n);
    let sub_of_a = m.alloc_elems::<u32>(n);

    let s = (sublists_per_proc.max(1) * p).min(n);
    let heads = choose_sublist_heads(list, s, seed);
    let s = heads.len();
    let sublists_a = m.alloc_elems::<u64>(s); // len+succ packed records
    let off_a = m.alloc_elems::<u32>(s);

    let mut nodes: Vec<NodeRec> = list
        .next
        .iter()
        .map(|&next| NodeRec {
            next,
            marker: NIL,
            rank: 0,
            sub_of: 0,
        })
        .collect();
    for (i, &h) in heads.iter().enumerate() {
        nodes[h as usize].marker = i as Node;
    }

    // --- Step 1: find the head (contiguous parallel reduction). ---
    m.try_phase("find-head", |proc, ctx| {
        let chunk = n.div_ceil(p);
        let (lo, hi) = (proc * chunk, ((proc + 1) * chunk).min(n));
        for i in lo..hi {
            ctx.read_elem(next_a, i);
            ctx.compute(SCAN_INSTRS);
        }
    })?;

    // --- Step 2: mark sublist heads (tag bit in the successor array). ---
    m.try_phase("mark", |proc, ctx| {
        let mut i = proc;
        while i < s {
            let h = heads[i] as usize;
            ctx.read_elem(next_a, h);
            ctx.write_elem(next_a, h);
            ctx.compute(20);
            i += p;
        }
    })?;

    // --- Step 3: walk sublists, computing local ranks. ---
    let (sub_len, sub_succ) = walk(
        &mut m,
        &mut nodes,
        &heads,
        [next_a, rank_a, sub_of_a, sublists_a],
    )?;

    // --- Step 4: prefix over the sublist records (processor 0). ---
    let mut sub_off = vec![0 as Node; s];
    {
        let sub_off_ref = &mut sub_off;
        let sub_len = &sub_len;
        let sub_succ = &sub_succ;
        m.try_phase("sublist-prefix", move |proc, ctx| {
            if proc != 0 {
                return;
            }
            let mut cur = 0usize;
            let mut acc: Node = 0;
            loop {
                sub_off_ref[cur] = acc;
                acc += sub_len[cur];
                ctx.read_elem(sublists_a, cur);
                ctx.write_elem(off_a, cur);
                ctx.compute(20);
                let nxt = sub_succ[cur];
                if nxt == NIL {
                    break;
                }
                cur = nxt as usize;
            }
        })?;
    }

    // --- Step 5: contiguous final combine. ---
    m.try_phase_no_barrier("combine", |proc, ctx| {
        let chunk = n.div_ceil(p);
        let (lo, hi) = (proc * chunk, ((proc + 1) * chunk).min(n));
        for (slot, node) in nodes.iter_mut().enumerate().take(hi).skip(lo) {
            let sub = node.sub_of as usize;
            node.rank += sub_off[sub];
            ctx.read_elem(rank_a, slot);
            ctx.read_elem(sub_of_a, slot);
            ctx.read_elem(off_a, sub);
            ctx.write_elem(rank_a, slot);
            ctx.compute(COMBINE_INSTRS);
        }
    })?;

    Ok(SmpSimResult {
        // Collected in place: the ranks reuse the records' allocation.
        rank: nodes.into_iter().map(|node| node.rank).collect(),
        seconds: m.seconds(),
        stats: m.stats(),
    })
}

/// Step 3 of [`try_simulate_hj`]: chase every sublist at once on the host,
/// then replay each processor's visit order through the machine (see the
/// module header for why the two are apart and why the order is exact).
fn chase_then_replay(
    m: &mut SmpMachine,
    nodes: &mut [NodeRec],
    heads: &[Node],
    [next_a, rank_a, sub_of_a, sublists_a]: [ArrayAddr; 4],
) -> Result<(Vec<Node>, Vec<Node>), SimError> {
    let (n, s, p) = (nodes.len(), heads.len(), m.p());
    let mut sub_len = vec![0 as Node; s];
    let mut sub_succ = vec![NIL; s];

    // Host half: the native codes' chase, all sublists on one worker.
    advance_sublists(heads, 0, 1, 0 as Node, |i, j, len| {
        let node = &mut nodes[j];
        node.rank = *len;
        node.sub_of = i as Node;
        *len += 1;
        // The sublist that starts at the successor, NIL if none does.
        let nx = node.next as usize;
        let next_sub = if nx < n { nodes[nx].marker } else { NIL };
        if nx >= n || next_sub != NIL {
            sub_len[i] = *len;
            sub_succ[i] = next_sub;
            None
        } else {
            Some(nx as Node)
        }
    });

    // The visit order is not written down by the chase but read off its
    // result: sublist `i`'s `r`-th visit is the node with `sub_of == i` and
    // `rank == r`, so one pass over the records in address order fills an
    // exact-size array. (Pushing each visit onto a growing `Vec` per
    // sublist inside the chase costs more: `s` more write streams.)
    let mut bounds = vec![0usize; s + 1];
    for (i, &len) in sub_len.iter().enumerate() {
        bounds[i + 1] = bounds[i] + len as usize;
    }
    // `bounds[s] == n` on a well-formed list.
    let mut order = vec![0 as Node; bounds[s]];
    for (node, j) in nodes.iter().zip(0..) {
        order[bounds[node.sub_of as usize] + node.rank as usize] = j;
    }

    // Simulated half: the accesses of the walk, in each processor's order.
    m.try_phase("walk", |proc, ctx| {
        for i in (proc..s).step_by(p) {
            for &j in &order[bounds[i]..bounds[i + 1]] {
                let j = j as usize;
                ctx.read_elem(next_a, j);
                ctx.write_elem(rank_a, j);
                ctx.write_elem(sub_of_a, j);
                ctx.compute(WALK_INSTRS);
            }
            ctx.write_elem(sublists_a, i);
            ctx.compute(20);
        }
    })?;
    Ok((sub_len, sub_succ))
}

/// Simulate the *sequential* pointer-chasing baseline on one processor
/// (the comparator for SMP speedup figures). Panics on simulation
/// failure (legacy entry point).
pub fn simulate_seq(list: &LinkedList, params: &SmpParams) -> SmpSimResult {
    try_simulate_seq(list, params).unwrap_or_else(|e| panic!("simulate_seq: {e}"))
}

/// [`simulate_seq`] returning structured failures.
pub fn try_simulate_seq(list: &LinkedList, params: &SmpParams) -> Result<SmpSimResult, SimError> {
    let n = list.len();
    let mut m = SmpMachine::new(params.clone(), 1);
    if n == 0 {
        return Ok(SmpSimResult {
            rank: Vec::new(),
            seconds: 0.0,
            stats: m.stats(),
        });
    }
    let next_a = m.alloc_elems::<u32>(n);
    let rank_a = m.alloc_elems::<u32>(n);
    // One `[next, rank]` record per node, as in `try_simulate_hj`.
    let mut nodes: Vec<[Node; 2]> = list.next.iter().map(|&next| [next, 0]).collect();
    m.try_phase_no_barrier("seq-rank", |_, ctx| {
        let mut j = list.head as usize;
        let mut r: Node = 0;
        while j < n {
            let node = &mut nodes[j];
            node[1] = r;
            ctx.read_elem(next_a, j);
            ctx.write_elem(rank_a, j);
            ctx.compute(WALK_INSTRS / 2);
            r += 1;
            j = node[0] as usize;
        }
    })?;
    Ok(SmpSimResult {
        rank: nodes.into_iter().map(|[_, rank]| rank).collect(),
        seconds: m.seconds(),
        stats: m.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_core::{with_fault_plan, FaultPlan};
    use archgraph_graph::rng::Rng;
    use proptest::prelude::*;

    fn tiny() -> SmpParams {
        SmpParams::tiny_for_tests()
    }

    /// Step 3 as commit 5cd33e5 had it, verbatim: one sublist after
    /// another, the real work and its mirror calls side by side. It pays a
    /// dependent host miss per node, and it is plainly the walk each
    /// simulated processor makes — which is what a reference should be.
    fn serial_walk(
        m: &mut SmpMachine,
        nodes: &mut [NodeRec],
        heads: &[Node],
        [next_a, rank_a, sub_of_a, sublists_a]: [ArrayAddr; 4],
    ) -> Result<(Vec<Node>, Vec<Node>), SimError> {
        let (n, s, p) = (nodes.len(), heads.len(), m.p());
        let mut sub_len = vec![0 as Node; s];
        let mut sub_succ = vec![NIL; s];
        m.try_phase("walk", |proc, ctx| {
            let mut i = proc;
            while i < s {
                let mut j = heads[i] as usize;
                let mut r: Node = 0;
                loop {
                    let node = &mut nodes[j];
                    node.rank = r;
                    node.sub_of = i as Node;
                    // The sublist that starts at the successor, NIL if none
                    // does. Read before the simulated accesses are issued:
                    // this load is the walk's one host miss per node, and it
                    // then overlaps their work instead of following it.
                    let nx = node.next as usize;
                    let next_sub = if nx < n { nodes[nx].marker } else { NIL };
                    ctx.read_elem(next_a, j);
                    ctx.write_elem(rank_a, j);
                    ctx.write_elem(sub_of_a, j);
                    ctx.compute(WALK_INSTRS);
                    if nx >= n || next_sub != NIL {
                        sub_len[i] = r + 1;
                        sub_succ[i] = next_sub;
                        ctx.write_elem(sublists_a, i);
                        ctx.compute(20);
                        break;
                    }
                    j = nx;
                    r += 1;
                }
                i += p;
            }
        })?;
        Ok((sub_len, sub_succ))
    }

    /// [`try_simulate_hj`] around the serial walk.
    fn reference_hj(
        list: &LinkedList,
        params: &SmpParams,
        p: usize,
        sublists_per_proc: usize,
        seed: u64,
    ) -> SmpSimResult {
        hj_with(serial_walk, list, params, p, sublists_per_proc, seed).unwrap()
    }

    /// The five `f64`s a run reports, by bit pattern: `==` on `RunStats`
    /// holds every counter exactly, but reads 0.0 and -0.0 as equal.
    fn clocks(r: &SmpSimResult) -> [u64; 5] {
        let s = &r.stats;
        [
            r.seconds,
            s.cycles,
            s.compute_cycles,
            s.mem_stall_cycles,
            s.tlb_stall_cycles,
        ]
        .map(f64::to_bits)
    }

    /// `tests/smp_golden.rs`'s plan: stalls of 100 cycles in every 1 000
    /// and a fourfold memory brownout from cycle 10 000 on, which even a
    /// list of a few hundred nodes runs into.
    const PLAN: &str =
        "stall=300,stall-period=3000,brownout=4,brownout-at=30000,brownout-for=3000000:7";

    /// The shipped walk against the reference on the tiny machine (its
    /// prefetcher is on) and the E4500, clean and under [`PLAN`].
    fn assert_matches_reference(list: &LinkedList, p: usize, sublists_per_proc: usize, seed: u64) {
        for params in [tiny(), SmpParams::sun_e4500()] {
            for plan in [None, Some(FaultPlan::parse(PLAN).unwrap())] {
                let faulty = plan.is_some();
                with_fault_plan(plan, || {
                    let new = simulate_hj(list, &params, p, sublists_per_proc, seed);
                    let reference = reference_hj(list, &params, p, sublists_per_proc, seed);
                    let case = format!(
                        "n={} p={p} sublists_per_proc={sublists_per_proc} seed={seed} \
                         l1_bytes={} faulty={faulty}",
                        list.len(),
                        params.l1_bytes,
                    );
                    assert_eq!(new.rank, reference.rank, "{case}");
                    assert_eq!(new.stats, reference.stats, "{case}");
                    assert_eq!(clocks(&new), clocks(&reference), "{case}");
                });
            }
        }
    }

    fn reversed(n: usize) -> LinkedList {
        LinkedList::from_permutation(&(0..n as Node).rev().collect::<Vec<_>>())
    }

    proptest! {
        #[test]
        fn chase_then_replay_is_the_serial_walk_bit_for_bit(
            // Half the lists shorter than the most sublists there can be
            // (8 × 9), so `n < s` and processors with no sublist are common.
            n in prop_oneof![1usize..73, 1usize..3001],
            p in 1usize..9,
            sublists_per_proc in 1usize..10,
            seed in any::<u64>(),
            layout in 0u8..3,
        ) {
            let list = match layout {
                0 => LinkedList::ordered(n),
                1 => LinkedList::random(n, &mut Rng::new(seed)),
                _ => reversed(n),
            };
            assert_matches_reference(&list, p, sublists_per_proc, seed);
        }
    }

    #[test]
    fn shortest_lists_match_the_serial_walk() {
        // Every n from the single node up, on every processor count: n < s,
        // s < p and s % p != 0 all occur, deterministically.
        for n in 1..=12 {
            for p in 1..=8 {
                assert_matches_reference(&LinkedList::random(n, &mut Rng::new(n as u64)), p, 2, 3);
                assert_matches_reference(&reversed(n), p, 2, 3);
            }
        }
    }

    #[test]
    fn simulated_hj_produces_correct_ranks() {
        let mut rng = Rng::new(31);
        for n in [16usize, 100, 1000] {
            let l = LinkedList::random(n, &mut rng);
            for p in [1usize, 2, 4] {
                let r = simulate_hj(&l, &tiny(), p, 8, 7);
                assert_eq!(r.rank, l.rank_oracle(), "n={n} p={p}");
                assert!(r.seconds > 0.0);
            }
        }
    }

    #[test]
    fn simulated_seq_produces_correct_ranks() {
        let mut rng = Rng::new(32);
        let l = LinkedList::random(500, &mut rng);
        let r = simulate_seq(&l, &tiny());
        assert_eq!(r.rank, l.rank_oracle());
    }

    #[test]
    fn random_list_slower_than_ordered() {
        // The paper's central SMP observation (C2): with caches, Random
        // costs several times Ordered.
        let n = 20_000usize;
        let mut rng = Rng::new(33);
        let ord = LinkedList::ordered(n);
        let rnd = LinkedList::random(n, &mut rng);
        let t_ord = simulate_hj(&ord, &tiny(), 2, 8, 1).seconds;
        let t_rnd = simulate_hj(&rnd, &tiny(), 2, 8, 1).seconds;
        assert!(
            t_rnd > 1.5 * t_ord,
            "random {t_rnd} should clearly exceed ordered {t_ord}"
        );
    }

    #[test]
    fn more_processors_reduce_time() {
        let n = 30_000usize;
        let mut rng = Rng::new(34);
        let l = LinkedList::random(n, &mut rng);
        let t1 = simulate_hj(&l, &tiny(), 1, 8, 1).seconds;
        let t4 = simulate_hj(&l, &tiny(), 4, 8, 1).seconds;
        let s = t1 / t4;
        assert!(s > 2.0, "speedup {s} too low");
    }

    #[test]
    fn empty_list_is_free() {
        let l = LinkedList::ordered(0);
        let r = simulate_hj(&l, &tiny(), 2, 8, 0);
        assert!(r.rank.is_empty());
        assert_eq!(r.seconds, 0.0);
    }

    #[test]
    fn stats_reflect_phases_and_barriers() {
        let mut rng = Rng::new(35);
        let l = LinkedList::random(256, &mut rng);
        let r = simulate_hj(&l, &tiny(), 2, 8, 0);
        assert_eq!(r.stats.phases, 5, "five algorithm steps");
        assert_eq!(r.stats.barriers, 4, "barrier after all but the last");
        assert!(r.stats.accesses() > 3 * 256_u64);
    }
}
