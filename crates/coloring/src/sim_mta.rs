//! Speculative coloring lowered to the MTA micro-ISA.
//!
//! Each round is two parallel regions over the current worklist, both
//! claimed dynamically with `int_fetch_add` (the paper's §3 scheduling
//! idiom), with the round's worklist size read from memory so the same
//! compiled programs run every round:
//!
//! * `speculate` — each claimed vertex walks its CSR row, stamps the
//!   colors it sees into a per-stream forbidden scratch (stamps are
//!   `round·n + v + 1`, so the scratch never needs clearing), then
//!   first-fit scans the scratch and stores the smallest free color;
//! * `detect` — each claimed vertex re-reads its lower neighbors' colors
//!   with `readff` and, on the first monochromatic edge, claims a slot in
//!   the next worklist with `int_fetch_add` and moves on.
//!
//! The `readff` conflict check is where the MTA's tag machinery earns its
//! keep: on a clean machine every color word is full, so read-when-full
//! behaves exactly like an ordinary load, while under injected tag faults the streams
//! park and the deadlock detector names them instead of the kernel
//! silently mis-coloring.
//!
//! The host swaps the two worklists between rounds by switching program
//! pairs (both directions are compiled up front), mirroring Alg. 3's
//! serial loop-head in [`crate::sim_mta`]'s sibling,
//! `archgraph_concomp::sim_mta`.
//!
//! Reached by: the `color/mta/p8` suite cells.

use archgraph_core::error::SimError;
use archgraph_core::MtaParams;
use archgraph_graph::csr::Csr;
use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::Node;
use archgraph_mta_sim::isa::{Program, ProgramBuilder, Reg, STREAM_ID, ZERO};
use archgraph_mta_sim::machine::MtaMachine;
use archgraph_mta_sim::parloop::{dynamic_loop_grained_mem, LoopRegs};
use archgraph_mta_sim::report::{combine, RunReport};

/// Result of a simulated MTA coloring run.
#[derive(Debug, Clone)]
pub struct ColorMtaSimResult {
    /// Proper colors in `0..=Δ`.
    pub colors: Vec<Node>,
    /// Simulated seconds (sum over regions).
    pub seconds: f64,
    /// Combined report (utilization, issue counts).
    pub report: RunReport,
    /// Speculate-and-detect rounds until the conflict set drained.
    pub rounds: usize,
}

/// Grain for the worklist claim loops (worklists shrink fast, so keep the
/// chunks smaller than the SV kernel's).
const GRAIN: i64 = 8;

/// Simulate speculative coloring on `p` processors ×
/// `streams_per_proc` streams, panicking on simulation failure.
pub fn simulate_coloring_mta(
    g: &EdgeList,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
) -> ColorMtaSimResult {
    try_simulate_coloring_mta(g, params, p, streams_per_proc)
        .unwrap_or_else(|e| panic!("simulate_coloring_mta: {e}"))
}

/// [`simulate_coloring_mta`] returning structured failures: a deadlocked
/// or over-budget region surfaces [`SimError`] with per-stream
/// diagnostics instead of panicking. The fault plan and cycle budget are
/// the run scope's (`archgraph_core::RunConfig`).
pub fn try_simulate_coloring_mta(
    g: &EdgeList,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
) -> Result<ColorMtaSimResult, SimError> {
    let csr = Csr::from_edge_list(g);
    let n = csr.n();
    let na = csr.arc_count();
    let maxdeg = (0..n as Node).map(|v| csr.degree(v)).max().unwrap_or(0);
    let k = maxdeg + 1; // first-fit scans at most Δ + 1 scratch slots
    let total_streams = p * streams_per_proc;
    let words = (n + 1) + na + 3 * n + total_streams * k + 16;
    let mut m = MtaMachine::with_memory_words(params.clone(), p, words);

    let rowptr_base = {
        let vals: Vec<i64> = csr.offsets.iter().map(|&o| o as i64).collect();
        m.memory_mut().alloc_init(&vals)
    };
    let adj_base = {
        let vals: Vec<i64> = csr.targets.iter().map(|&t| t as i64).collect();
        m.memory_mut().alloc_init(&vals)
    };
    let color_base = m.memory_mut().alloc_init(&vec![-1i64; n]);
    let wl_a = {
        let vals: Vec<i64> = (0..n as i64).collect();
        m.memory_mut().alloc_init(&vals)
    };
    let wl_b = m.memory_mut().alloc(n);
    let forb_base = m.memory_mut().alloc(total_streams * k);
    let counter_addr = m.memory_mut().alloc(1);
    let size_addr = m.memory_mut().alloc(1);
    let next_size_addr = m.memory_mut().alloc(1);
    let rbase_addr = m.memory_mut().alloc(1);

    let regs = LoopRegs::standard();

    // --- speculate region: first-fit against a stamped scratch row ---
    let speculate_prog = |wl_base: usize| -> Program {
        let mut b = ProgramBuilder::new();
        let (v, rp, re, w, cw, stamp) = (Reg(6), Reg(7), Reg(8), Reg(9), Reg(10), Reg(11));
        let (sk, c, f, kreg, rb, t) = (Reg(12), Reg(13), Reg(14), Reg(15), Reg(16), Reg(17));
        b.li(kreg, k as i64);
        b.mul(sk, STREAM_ID, kreg); // this stream's scratch row
        b.load_abs(rb, rbase_addr); // round stamp base = round * n
        dynamic_loop_grained_mem(&mut b, counter_addr, size_addr, GRAIN, regs, |b| {
            b.load(v, regs.idx, wl_base as i64);
            b.add(stamp, rb, v);
            b.addi(stamp, stamp, 1); // stamp >= 1, never a stale zero
            b.load(rp, v, rowptr_base as i64);
            b.addi(t, v, 1);
            b.load(re, t, rowptr_base as i64);
            // Mark: forbidden[sk + color(w)] = stamp for colored neighbors.
            let mark_top = b.here();
            let mark_done = b.bge_fwd(rp, re);
            b.load(w, rp, adj_base as i64);
            b.load(cw, w, color_base as i64);
            let uncolored = b.blt_fwd(cw, ZERO);
            b.add(t, sk, cw);
            b.store(stamp, t, forb_base as i64);
            b.bind(uncolored);
            b.addi(rp, rp, 1);
            b.jmp(mark_top);
            b.bind(mark_done);
            // First-fit: smallest c with forbidden[sk + c] != stamp.
            b.li(c, 0);
            let ff_top = b.here();
            b.add(t, sk, c);
            b.load(f, t, forb_base as i64);
            let found = b.bne_fwd(f, stamp);
            b.addi(c, c, 1);
            b.jmp(ff_top);
            b.bind(found);
            b.store(c, v, color_base as i64);
        });
        b.halt();
        b.build()
    };

    // --- detect region: readff the lower neighbors, requeue on conflict ---
    let detect_prog = |wl_base: usize, nw_base: usize| -> Program {
        let mut b = ProgramBuilder::new();
        let (v, rp, re, w, cw, cv) = (Reg(6), Reg(7), Reg(8), Reg(9), Reg(10), Reg(11));
        let (slot, one, t) = (Reg(12), Reg(13), Reg(14));
        b.li(one, 1);
        dynamic_loop_grained_mem(&mut b, counter_addr, size_addr, GRAIN, regs, |b| {
            b.load(v, regs.idx, wl_base as i64);
            b.load(cv, v, color_base as i64);
            b.load(rp, v, rowptr_base as i64);
            b.addi(t, v, 1);
            b.load(re, t, rowptr_base as i64);
            let top = b.here();
            let done = b.bge_fwd(rp, re);
            b.load(w, rp, adj_base as i64);
            let higher = b.bge_fwd(w, v); // the lower endpoint keeps its color
            b.readff(cw, w, color_base as i64); // tag-guarded re-read
            let clean = b.bne_fwd(cw, cv);
            b.fetch_add_imm(slot, next_size_addr as i64, one);
            b.store(v, slot, nw_base as i64); // v joins the next worklist
            let brk = b.jmp_fwd(); // one entry per vertex is enough
            b.bind(clean);
            b.bind(higher);
            b.addi(rp, rp, 1);
            b.jmp(top);
            b.bind(done);
            b.bind(brk);
        });
        b.halt();
        b.build()
    };

    // Both worklist directions, compiled once.
    let spec = [speculate_prog(wl_a), speculate_prog(wl_b)];
    let det = [detect_prog(wl_a, wl_b), detect_prog(wl_b, wl_a)];

    let mut cur = n;
    let mut parity = 0usize;
    let mut rounds = 0usize;
    while cur > 0 {
        rounds += 1;
        // The worklist minimum never re-enters, so n rounds is a theorem.
        assert!(rounds <= n, "speculative coloring failed to converge");
        let mem = m.memory_mut();
        mem.poke(rbase_addr, ((rounds - 1) * n) as i64);
        mem.poke(counter_addr, 0);
        mem.poke(size_addr, cur as i64);
        m.try_run(&spec[parity], streams_per_proc, |_, _| {})?;
        let mem = m.memory_mut();
        mem.poke(counter_addr, 0);
        mem.poke(next_size_addr, 0);
        m.try_run(&det[parity], streams_per_proc, |_, _| {})?;
        cur = m.memory().peek(next_size_addr) as usize;
        parity ^= 1;
    }

    let colors: Vec<Node> = m
        .memory()
        .peek_slice(color_base, n)
        .into_iter()
        .map(|x| x as Node)
        .collect();
    let report = combine(m.reports());
    Ok(ColorMtaSimResult {
        colors,
        seconds: m.total_seconds(),
        report,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::validate_coloring;
    use archgraph_core::{FaultPlan, RunConfig};
    use archgraph_graph::gen;

    fn tiny() -> MtaParams {
        MtaParams::tiny_for_tests()
    }

    #[test]
    fn simulated_colors_are_proper() {
        for (n, mm, seed) in [(40usize, 80usize, 1u64), (120, 360, 2), (250, 1000, 3)] {
            let g = gen::random_gnm(n, mm, seed);
            let csr = Csr::from_edge_list(&g);
            let r = simulate_coloring_mta(&g, &tiny(), 1, 8);
            validate_coloring(&csr, &r.colors).expect("must be proper");
            assert!(r.rounds >= 1, "n={n} m={mm}");
            assert!(r.seconds > 0.0);
        }
    }

    #[test]
    fn multiprocessor_correctness() {
        let g = gen::random_gnm(200, 600, 4);
        let csr = Csr::from_edge_list(&g);
        for p in [1usize, 2, 4] {
            let r = simulate_coloring_mta(&g, &tiny(), p, 8);
            validate_coloring(&csr, &r.colors).expect("must be proper");
        }
    }

    #[test]
    fn structured_graphs() {
        for g in [
            gen::path(100),
            gen::star(60),
            gen::cycle(81),
            gen::complete(12),
            gen::mesh2d(8, 8),
        ] {
            let csr = Csr::from_edge_list(&g);
            let r = simulate_coloring_mta(&g, &tiny(), 2, 4);
            let used = validate_coloring(&csr, &r.colors).expect("must be proper");
            assert!(used >= 1);
        }
    }

    #[test]
    fn complete_graph_uses_exactly_n_colors() {
        let g = gen::complete(10);
        let csr = Csr::from_edge_list(&g);
        let r = simulate_coloring_mta(&g, &tiny(), 2, 8);
        assert_eq!(validate_coloring(&csr, &r.colors), Ok(10));
    }

    #[test]
    fn edgeless_graph_converges_in_one_round() {
        let g = EdgeList::empty(30);
        let r = simulate_coloring_mta(&g, &tiny(), 1, 4);
        assert_eq!(r.rounds, 1);
        assert!(r.colors.iter().all(|&c| c == 0));
    }

    #[test]
    fn stuck_empty_fault_surfaces_deadlock() {
        // The detect pass readff-parks under a stuck-empty plan, and the
        // structured diagnostics reach the caller.
        let g = gen::random_gnm(40, 80, 9);
        let run = RunConfig {
            faults: Some(FaultPlan::parse("stuck-empty,rate=0:3").expect("valid plan")),
            max_cycles: 1 << 22,
        };
        let err = run
            .scope(|| try_simulate_coloring_mta(&g, &tiny(), 1, 6))
            .expect_err("readff must park under stuck-empty");
        match err {
            SimError::Deadlock { blocked, .. } => {
                assert!(!blocked.is_empty());
                assert!(blocked.iter().all(|b| b.op == "readff" && !b.full));
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }
}
