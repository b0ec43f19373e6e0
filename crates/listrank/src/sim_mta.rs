//! The paper's Alg. 1 walk ranking lowered to the MTA micro-ISA
//! (Fig. 1, left panel; Table 1 utilization source).
//!
//! The run is a sequence of parallel regions on one [`MtaMachine`]:
//!
//! * `find-head` — the `first += list[i]` reduction of Alg. 1 step 1,
//!   as a grained dynamic loop with per-stream accumulation and one
//!   final `int_fetch_add`.
//! * `init-rank` — set `rank[·] = −1` (the unmarked sentinel).
//! * `mark` — write each walk's id at its head slot.
//! * `walks` — the `do {count++; j=list[j];} while (rank[j]==-1)` loop,
//!   one walk claimed at a time by `int_fetch_add`, exactly the paper's
//!   dynamic scheduling.
//! * doubling rounds over the walk summary (`lnth`/`next` with `tmp`
//!   double-buffers, as printed in Alg. 1).
//! * `writeback` — re-traverse each walk storing final ranks.
//!
//! Ranks are head-anchored ascending (see the crate-level fidelity note).
//!
//! Reached by: the `fig1/mta/*` and `table1/mta/{random,ordered}/p8` suite cells.

use archgraph_core::error::SimError;
use archgraph_core::MtaParams;
use archgraph_graph::{LinkedList, Node};
use archgraph_mta_sim::isa::{ProgramBuilder, Reg};
use archgraph_mta_sim::machine::MtaMachine;
use archgraph_mta_sim::parloop::{
    block_chunk, block_loop, dynamic_loop, dynamic_loop_grained, LoopRegs,
};
use archgraph_mta_sim::report::{combine, RunReport};

/// Result of a simulated MTA run.
#[derive(Debug, Clone)]
pub struct MtaSimResult {
    /// The computed ranks (verifiable against the oracle).
    pub rank: Vec<Node>,
    /// Simulated wall time in seconds (sum over regions).
    pub seconds: f64,
    /// Combined report over all regions (utilization, issue counts).
    pub report: RunReport,
}

/// Grain for the flat O(n) initialization/reduction loops.
const FLAT_GRAIN: i64 = 64;

/// How walk iterations are assigned to streams (paper §3: the dynamic
/// `int_fetch_add` schedule is what load-balances the varying walk
/// lengths; block assignment is the ablation contrast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkSchedule {
    /// One walk claimed at a time via `int_fetch_add` (the paper's code).
    Dynamic,
    /// Contiguous blocks of walks per stream.
    Block,
}

/// Simulate walk-based list ranking on `p` processors with
/// `streams_per_proc` streams each and `walks` walks (the paper: ~10
/// nodes per walk, 100 streams per processor).
pub fn simulate_walk_ranking(
    list: &LinkedList,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
    walks: usize,
) -> MtaSimResult {
    simulate_walk_ranking_scheduled(
        list,
        params,
        p,
        streams_per_proc,
        walks,
        WalkSchedule::Dynamic,
    )
}

/// [`simulate_walk_ranking`] with an explicit walk-to-stream schedule
/// (the ABL-DYN ablation at algorithm level). Panics on simulation
/// failure (legacy entry point).
pub fn simulate_walk_ranking_scheduled(
    list: &LinkedList,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
    walks: usize,
    schedule: WalkSchedule,
) -> MtaSimResult {
    try_simulate_walk_ranking_scheduled(list, params, p, streams_per_proc, walks, schedule)
        .unwrap_or_else(|e| panic!("simulate_walk_ranking: {e}"))
}

/// [`simulate_walk_ranking`] returning structured failures (deadlock
/// diagnostics, cycle-budget trips) instead of panicking.
pub fn try_simulate_walk_ranking(
    list: &LinkedList,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
    walks: usize,
) -> Result<MtaSimResult, SimError> {
    try_simulate_walk_ranking_scheduled(
        list,
        params,
        p,
        streams_per_proc,
        walks,
        WalkSchedule::Dynamic,
    )
}

/// [`simulate_walk_ranking_scheduled`] returning `Result` — the form the
/// `apps` simulated drivers build on.
pub fn try_simulate_walk_ranking_scheduled(
    list: &LinkedList,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
    walks: usize,
    schedule: WalkSchedule,
) -> Result<MtaSimResult, SimError> {
    let n = list.len();
    assert!(n >= 1, "simulate_walk_ranking needs a non-empty list");

    // ---- host-side setup: walk heads (evenly spaced slots + true head) ----
    let w = walks.clamp(1, n);
    let mut heads: Vec<Node> = Vec::with_capacity(w);
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
    let w = heads.len();

    // ---- memory layout ----
    // next has n+1 words: the sentinel slot keeps the writeback loop's
    // final (unused) load in bounds.
    let words = (n + 1) * 2 + w * 7 + 16;
    let mut m = MtaMachine::with_memory_words(params.clone(), p, words + n);
    let next_base = {
        let mem = m.memory_mut();
        let base = mem.alloc(n + 1);
        for (i, &nx) in list.next.iter().enumerate() {
            mem.poke(base + i, nx as i64);
        }
        mem.poke(base + n, n as i64);
        base
    };
    let rank_base = m.memory_mut().alloc(n + 1);
    let heads_base = {
        let vals: Vec<i64> = heads.iter().map(|&h| h as i64).collect();
        m.memory_mut().alloc_init(&vals)
    };
    let len_base = m.memory_mut().alloc(w);
    let succ_base = m.memory_mut().alloc(w);
    let val_base = m.memory_mut().alloc(w);
    let ptr_base = m.memory_mut().alloc(w);
    let tmpv_base = m.memory_mut().alloc(w);
    let tmpp_base = m.memory_mut().alloc(w);
    let sum_addr = m.memory_mut().alloc(1);
    // one fresh claim counter per dynamic region
    let counters = m.memory_mut().alloc(8);

    let regs = LoopRegs::standard();

    // ---- region 1: find-head reduction (Alg. 1 step 1) ----
    {
        let mut b = ProgramBuilder::new();
        let acc = Reg(6);
        let v = Reg(7);
        b.li(acc, 0);
        dynamic_loop_grained(&mut b, counters, n as i64, FLAT_GRAIN, regs, |b| {
            b.load(v, regs.idx, next_base as i64);
            b.add(acc, acc, v);
        });
        b.fetch_add_imm(Reg(8), sum_addr as i64, acc);
        b.halt();
        let prog = b.build();
        m.try_run(&prog, streams_per_proc, |_, _| {})?;
        let total = m.memory().peek(sum_addr);
        // head = n(n+1)/2 - (sum - n) since next[tail] = n contributes n
        // but is excluded from the 0..n loop -- we summed exactly
        // next[0..n], so head = n(n-1)/2 + n - total.
        let nn = n as i64;
        let found = nn * (nn - 1) / 2 + nn - total;
        debug_assert_eq!(found, list.head as i64, "head identity on the MTA");
    }

    // ---- region 2: init rank to -1 ----
    {
        let mut b = ProgramBuilder::new();
        let minus1 = Reg(6);
        b.li(minus1, -1);
        dynamic_loop_grained(
            &mut b,
            counters + 1,
            (n + 1) as i64,
            FLAT_GRAIN,
            regs,
            |b| {
                b.store(minus1, regs.idx, rank_base as i64);
            },
        );
        b.halt();
        let prog = b.build();
        m.try_run(&prog, streams_per_proc, |_, _| {})?;
    }
    // The sentinel slot marks "end of list": any walk reaching it sees a
    // mark (value w = the virtual final walk id).
    m.memory_mut().poke(rank_base + n, w as i64);

    // ---- region 3: mark walk heads ----
    {
        let mut b = ProgramBuilder::new();
        let slot = Reg(6);
        dynamic_loop(&mut b, counters + 2, w as i64, regs, |b| {
            b.load(slot, regs.idx, heads_base as i64);
            b.store(regs.idx, slot, rank_base as i64);
        });
        b.halt();
        let prog = b.build();
        m.try_run(&prog, streams_per_proc, |_, _| {})?;
    }

    // ---- region 4: measure walks (the Alg. 1 traversal loop) ----
    {
        let mut b = ProgramBuilder::new();
        let (j, count, nx, mark) = (Reg(6), Reg(7), Reg(8), Reg(9));
        let minus1 = Reg(10);
        let body = |b: &mut archgraph_mta_sim::isa::ProgramBuilder| {
            b.load(j, regs.idx, heads_base as i64);
            b.li(count, 1);
            let top = b.here();
            b.load(nx, j, next_base as i64);
            b.load(mark, nx, rank_base as i64);
            let done = b.bne_fwd(mark, minus1);
            b.mov(j, nx);
            b.addi(count, count, 1);
            b.jmp(top);
            b.bind(done);
            b.store(count, regs.idx, len_base as i64);
            b.store(mark, regs.idx, succ_base as i64);
        };
        match schedule {
            WalkSchedule::Dynamic => dynamic_loop(&mut b, counters + 3, w as i64, regs, body),
            WalkSchedule::Block => block_loop(
                &mut b,
                w as i64,
                block_chunk(w, p * streams_per_proc),
                regs,
                body,
            ),
        }
        b.halt();
        let prog = b.build();
        m.try_run(&prog, streams_per_proc, |_, regs_arr| regs_arr[10] = -1)?;
    }

    // ---- region 5: copy len/succ into the doubling buffers ----
    {
        let mut b = ProgramBuilder::new();
        let v = Reg(6);
        dynamic_loop_grained(&mut b, counters + 4, w as i64, 8, regs, |b| {
            b.load(v, regs.idx, len_base as i64);
            b.store(v, regs.idx, val_base as i64);
            b.load(v, regs.idx, succ_base as i64);
            b.store(v, regs.idx, ptr_base as i64);
        });
        b.halt();
        let prog = b.build();
        m.try_run(&prog, streams_per_proc, |_, _| {})?;
    }

    // ---- doubling rounds (Alg. 1's lnth/next propagation) ----
    // Round A: gather tmp values through one level of indirection.
    let prog_a = {
        let mut b = ProgramBuilder::new();
        let (pt, tv, tp, wlim) = (Reg(6), Reg(7), Reg(8), Reg(9));
        dynamic_loop_grained(&mut b, counters + 5, w as i64, 8, regs, |b| {
            b.load(pt, regs.idx, ptr_base as i64);
            let at_end = b.bge_fwd(pt, wlim);
            b.load(tv, pt, val_base as i64);
            b.store(tv, regs.idx, tmpv_base as i64);
            b.load(tp, pt, ptr_base as i64);
            b.store(tp, regs.idx, tmpp_base as i64);
            let join = b.jmp_fwd();
            b.bind(at_end);
            b.store(Reg(0), regs.idx, tmpv_base as i64);
            b.store(pt, regs.idx, tmpp_base as i64);
            b.bind(join);
        });
        b.halt();
        b.build()
    };
    // Round B: apply the gathered updates.
    let prog_b = {
        let mut b = ProgramBuilder::new();
        let (v, tv, tp) = (Reg(6), Reg(7), Reg(8));
        dynamic_loop_grained(&mut b, counters + 6, w as i64, 8, regs, |b| {
            b.load(v, regs.idx, val_base as i64);
            b.load(tv, regs.idx, tmpv_base as i64);
            b.add(v, v, tv);
            b.store(v, regs.idx, val_base as i64);
            b.load(tp, regs.idx, tmpp_base as i64);
            b.store(tp, regs.idx, ptr_base as i64);
        });
        b.halt();
        b.build()
    };
    loop {
        let done = m
            .memory()
            .peek_slice(ptr_base, w)
            .iter()
            .all(|&x| x >= w as i64);
        if done {
            break;
        }
        m.memory_mut().poke(counters + 5, 0);
        m.memory_mut().poke(counters + 6, 0);
        m.try_run(&prog_a, streams_per_proc, |_, regs_arr| {
            regs_arr[9] = w as i64
        })?;
        m.try_run(&prog_b, streams_per_proc, |_, _| {})?;
    }

    // ---- final region: writeback (re-traversal with ascending ranks) ----
    {
        let mut b = ProgramBuilder::new();
        let (j, r, k, len, ntot) = (Reg(6), Reg(7), Reg(8), Reg(9), Reg(10));
        let body = |b: &mut archgraph_mta_sim::isa::ProgramBuilder| {
            b.load(j, regs.idx, heads_base as i64);
            b.load(len, regs.idx, len_base as i64);
            // r = n - val[idx]  (nodes before this walk)
            b.load(r, regs.idx, val_base as i64);
            b.sub(r, ntot, r);
            b.li(k, 0);
            let top = b.here();
            b.store(r, j, rank_base as i64);
            b.load(j, j, next_base as i64);
            b.addi(r, r, 1);
            b.addi(k, k, 1);
            b.blt(k, len, top);
        };
        match schedule {
            WalkSchedule::Dynamic => dynamic_loop(&mut b, counters + 7, w as i64, regs, body),
            WalkSchedule::Block => block_loop(
                &mut b,
                w as i64,
                block_chunk(w, p * streams_per_proc),
                regs,
                body,
            ),
        }
        b.halt();
        let prog = b.build();
        m.try_run(&prog, streams_per_proc, |_, regs_arr| {
            regs_arr[10] = n as i64
        })?;
    }

    let rank: Vec<Node> = m
        .memory()
        .peek_slice(rank_base, n)
        .into_iter()
        .map(|x| x as Node)
        .collect();
    let report = combine(m.reports());
    Ok(MtaSimResult {
        rank,
        seconds: m.total_seconds(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::rng::Rng;

    fn tiny() -> MtaParams {
        MtaParams::tiny_for_tests()
    }

    #[test]
    fn simulated_ranks_match_oracle() {
        let mut rng = Rng::new(41);
        for n in [1usize, 4, 17, 100, 1000] {
            let l = LinkedList::random(n, &mut rng);
            let r = simulate_walk_ranking(&l, &tiny(), 1, 8, (n / 10).max(1));
            let oracle: Vec<Node> = l.rank_oracle();
            assert_eq!(r.rank, oracle, "n = {n}");
        }
    }

    #[test]
    fn multiprocessor_ranks_match_oracle() {
        let mut rng = Rng::new(42);
        let l = LinkedList::random(2000, &mut rng);
        for p in [1usize, 2, 4] {
            let r = simulate_walk_ranking(&l, &tiny(), p, 8, 200);
            assert_eq!(r.rank, l.rank_oracle(), "p = {p}");
        }
    }

    #[test]
    fn ordered_and_random_cost_the_same() {
        // The paper's C3: no caches, hashed addresses — layout is
        // irrelevant on the MTA.
        let n = 4000usize;
        let mut rng = Rng::new(43);
        let ord = LinkedList::ordered(n);
        let rnd = LinkedList::random(n, &mut rng);
        let t_ord = simulate_walk_ranking(&ord, &tiny(), 2, 8, n / 10).seconds;
        let t_rnd = simulate_walk_ranking(&rnd, &tiny(), 2, 8, n / 10).seconds;
        let ratio = t_rnd / t_ord;
        assert!(
            (0.9..1.1).contains(&ratio),
            "MTA must be layout-insensitive; ratio {ratio}"
        );
    }

    #[test]
    fn more_processors_cut_time() {
        let n = 8000usize;
        let mut rng = Rng::new(44);
        let l = LinkedList::random(n, &mut rng);
        let t1 = simulate_walk_ranking(&l, &tiny(), 1, 8, n / 10).seconds;
        let t4 = simulate_walk_ranking(&l, &tiny(), 4, 8, n / 10).seconds;
        assert!(t1 / t4 > 2.0, "speedup {} too low", t1 / t4);
    }

    #[test]
    fn utilization_rises_with_walk_count() {
        // One walk = one stream busy = starved processor; many walks
        // saturate it (the paper's grain observation).
        let n = 4000usize;
        let l = LinkedList::ordered(n);
        let low = simulate_walk_ranking(&l, &tiny(), 1, 8, 1);
        let high = simulate_walk_ranking(&l, &tiny(), 1, 8, n / 10);
        assert!(
            high.report.utilization > low.report.utilization,
            "more walks should raise utilization: {} vs {}",
            high.report.utilization,
            low.report.utilization
        );
    }

    #[test]
    fn block_schedule_is_correct_but_can_trail_dynamic() {
        let mut rng = Rng::new(45);
        let l = LinkedList::random(3000, &mut rng);
        let dynamic =
            simulate_walk_ranking_scheduled(&l, &tiny(), 1, 8, 300, WalkSchedule::Dynamic);
        let block = simulate_walk_ranking_scheduled(&l, &tiny(), 1, 8, 300, WalkSchedule::Block);
        assert_eq!(dynamic.rank, l.rank_oracle());
        assert_eq!(block.rank, l.rank_oracle());
        // Walk lengths vary around the mean; block assignment cannot beat
        // dynamic claiming by more than noise.
        assert!(block.seconds > 0.9 * dynamic.seconds);
    }

    #[test]
    fn singleton_list() {
        let l = LinkedList::ordered(1);
        let r = simulate_walk_ranking(&l, &tiny(), 1, 2, 1);
        assert_eq!(r.rank, vec![0]);
    }

    #[test]
    fn report_totals_are_consistent() {
        let l = LinkedList::ordered(500);
        let r = simulate_walk_ranking(&l, &tiny(), 2, 4, 50);
        assert!(r.report.issued > 0);
        assert!(r.report.utilization > 0.0 && r.report.utilization <= 1.0);
        assert!((r.seconds - r.report.seconds).abs() < 1e-9);
    }
}
