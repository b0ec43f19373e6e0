//! The paper's Alg. 3 lowered to the MTA micro-ISA (Fig. 2, left panel).
//!
//! Each iteration is two parallel regions on the simulated machine:
//!
//! * `graft` — a grained dynamic loop over the doubled arc array `E`,
//!   issuing the loads `E[i].v1`, `E[i].v2`, `D[u]`, `D[v]`, `D[D[v]]`
//!   and the conditional stores `D[D[v]] = D[u]`, `graft = 1`;
//! * `shortcut` — a grained dynamic loop over the vertices running
//!   `while (D[i] != D[D[i]]) D[i] = D[D[i]]`.
//!
//! The host orchestrates iterations by reading the `graft` flag between
//! regions — on the real machine that is the serial loop-head test of
//! Alg. 3's `while (graft)`.
//!
//! Failure paths: [`try_simulate_sv_mta`] surfaces [`SimError`] (deadlock
//! diagnostics, cycle-budget trips) to the caller instead of panicking;
//! [`simulate_sv_mta`] stays the thin panicking wrapper the figure
//! harnesses use.
//!
//! Reached by: the `fig2/mta/p8` and `table1/mta/cc/p8` suite cells.

use archgraph_core::error::SimError;
use archgraph_core::MtaParams;
use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::Node;
use archgraph_mta_sim::isa::{ProgramBuilder, Reg};
use archgraph_mta_sim::machine::MtaMachine;
use archgraph_mta_sim::parloop::{dynamic_loop_grained, LoopRegs};
use archgraph_mta_sim::report::{combine, RunReport};

/// Result of a simulated MTA connected-components run.
#[derive(Debug, Clone)]
pub struct CcMtaSimResult {
    /// Rooted-star component labels.
    pub labels: Vec<Node>,
    /// Simulated seconds (sum over regions).
    pub seconds: f64,
    /// Combined report (utilization, issue counts).
    pub report: RunReport,
    /// Graft-and-shortcut iterations executed.
    pub iterations: usize,
}

/// Grain for the flat parallel loops.
const GRAIN: i64 = 16;

/// Simulate Alg. 3 on `p` processors × `streams_per_proc` streams with
/// plain root-check loads, panicking on simulation failure.
pub fn simulate_sv_mta(
    g: &EdgeList,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
) -> CcMtaSimResult {
    try_simulate_sv_mta(g, params, p, streams_per_proc)
        .unwrap_or_else(|e| panic!("simulate_sv_mta: {e}"))
}

/// [`simulate_sv_mta`] returning structured failures: a deadlocked or
/// over-budget simulation surfaces [`SimError`] with per-stream
/// diagnostics instead of panicking. The fault plan and cycle budget are the run scope's
/// (`archgraph_core::RunConfig`).
pub fn try_simulate_sv_mta(
    g: &EdgeList,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
) -> Result<CcMtaSimResult, SimError> {
    let n = g.n;
    let na = 2 * g.m();
    let words = 2 * na + n + 16;
    let mut m = MtaMachine::with_memory_words(params.clone(), p, words);

    // Interleaved arc array: E[i] = (arcs[2i], arcs[2i+1]).
    let arcs_base = {
        let mem = m.memory_mut();
        let base = mem.alloc(2 * na);
        for (i, e) in g.edges.iter().enumerate() {
            mem.poke(base + 4 * i, e.u as i64);
            mem.poke(base + 4 * i + 1, e.v as i64);
            mem.poke(base + 4 * i + 2, e.v as i64);
            mem.poke(base + 4 * i + 3, e.u as i64);
        }
        base
    };
    let d_base = {
        let vals: Vec<i64> = (0..n as i64).collect();
        m.memory_mut().alloc_init(&vals)
    };
    let flag_addr = m.memory_mut().alloc(1);
    let graft_counter = m.memory_mut().alloc(1);
    let short_counter = m.memory_mut().alloc(1);

    let regs = LoopRegs::standard();

    // --- graft region program ---
    let graft_prog = {
        let mut b = ProgramBuilder::new();
        let (t, u, v, du, dv, ddv, one) =
            (Reg(6), Reg(7), Reg(8), Reg(9), Reg(10), Reg(11), Reg(12));
        b.li(one, 1);
        dynamic_loop_grained(&mut b, graft_counter, na as i64, GRAIN, regs, |b| {
            b.add(t, regs.idx, regs.idx); // t = 2*idx (pair offset)
            b.load(u, t, arcs_base as i64);
            b.load(v, t, arcs_base as i64 + 1);
            b.load(du, u, d_base as i64);
            b.load(dv, v, d_base as i64);
            let skip = b.bge_fwd(du, dv); // need D[u] < D[v]
            b.load(ddv, dv, d_base as i64);
            let skip2 = b.bne_fwd(ddv, dv); // need D[v] == D[D[v]]
            b.store(du, dv, d_base as i64); // D[D[v]] = D[u] (dv is root)
            b.store_abs(one, flag_addr); // graft = 1
            b.bind(skip2);
            b.bind(skip);
        });
        b.halt();
        b.build()
    };

    // --- shortcut region program ---
    let shortcut_prog = {
        let mut b = ProgramBuilder::new();
        let (dcur, dd) = (Reg(6), Reg(7));
        dynamic_loop_grained(&mut b, short_counter, n as i64, GRAIN, regs, |b| {
            let top = b.here();
            b.load(dcur, regs.idx, d_base as i64);
            b.load(dd, dcur, d_base as i64);
            let done = b.beq_fwd(dcur, dd);
            b.store(dd, regs.idx, d_base as i64);
            b.jmp(top);
            b.bind(done);
        });
        b.halt();
        b.build()
    };

    let mut iterations = 0usize;
    loop {
        iterations += 1;
        m.memory_mut().poke(flag_addr, 0);
        m.memory_mut().poke(graft_counter, 0);
        m.try_run(&graft_prog, streams_per_proc, |_, _| {})?;
        if m.memory().peek(flag_addr) == 0 {
            break;
        }
        m.memory_mut().poke(short_counter, 0);
        m.try_run(&shortcut_prog, streams_per_proc, |_, _| {})?;
    }

    let labels: Vec<Node> = m
        .memory()
        .peek_slice(d_base, n)
        .into_iter()
        .map(|x| x as Node)
        .collect();
    let report = combine(m.reports());
    Ok(CcMtaSimResult {
        labels,
        seconds: m.total_seconds(),
        report,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_core::RunConfig;
    use archgraph_graph::gen;
    use archgraph_graph::unionfind::{connected_components, same_partition};

    fn tiny() -> MtaParams {
        MtaParams::tiny_for_tests()
    }

    #[test]
    fn simulated_labels_are_correct() {
        for (n, mm, seed) in [(30usize, 25usize, 1u64), (100, 200, 2), (300, 900, 3)] {
            let g = gen::random_gnm(n, mm, seed);
            let r = simulate_sv_mta(&g, &tiny(), 1, 8);
            assert!(
                same_partition(&r.labels, &connected_components(&g)),
                "n={n} m={mm}"
            );
            // Alg. 3 roots are component minima after full shortcut.
            for &l in &r.labels {
                assert_eq!(r.labels[l as usize], l);
            }
        }
    }

    #[test]
    fn multiprocessor_correctness() {
        let g = gen::random_gnm(400, 1200, 4);
        for p in [1usize, 2, 4] {
            let r = simulate_sv_mta(&g, &tiny(), p, 8);
            assert!(
                same_partition(&r.labels, &connected_components(&g)),
                "p={p}"
            );
        }
    }

    #[test]
    fn structured_graphs() {
        for g in [
            gen::path(128),
            gen::star(60),
            gen::cycle(90),
            gen::mesh2d(8, 8),
        ] {
            let r = simulate_sv_mta(&g, &tiny(), 2, 4);
            assert!(same_partition(&r.labels, &connected_components(&g)));
        }
    }

    #[test]
    fn more_processors_cut_time() {
        let g = gen::random_gnm(1500, 6000, 6);
        let t1 = simulate_sv_mta(&g, &tiny(), 1, 8).seconds;
        let t4 = simulate_sv_mta(&g, &tiny(), 4, 8).seconds;
        assert!(t1 / t4 > 2.0, "speedup {}", t1 / t4);
    }

    #[test]
    fn edgeless_graph_one_iteration() {
        let g = EdgeList::empty(40);
        let r = simulate_sv_mta(&g, &tiny(), 1, 4);
        assert_eq!(r.iterations, 1);
        let expect: Vec<Node> = (0..40).collect();
        assert_eq!(r.labels, expect);
    }

    #[test]
    fn utilization_is_sane() {
        let g = gen::random_gnm(800, 3000, 7);
        let r = simulate_sv_mta(&g, &tiny(), 2, 8);
        assert!(r.report.utilization > 0.0 && r.report.utilization <= 1.0);
        assert!(r.report.issued > 0);
    }

    #[test]
    fn cycle_budget_trip_surfaces_as_an_error_not_a_panic() {
        // The budget is per region, and 64 cycles is far below the first
        // graft region's need (240 arcs over 8 streams): the trip must reach
        // the kernel caller as SimError::CycleBudgetExceeded through the
        // `try_` path, not as a panic.
        let g = gen::random_gnm(60, 120, 12);
        let run = RunConfig {
            faults: None,
            max_cycles: 64,
        };
        let err = run
            .scope(|| try_simulate_sv_mta(&g, &tiny(), 1, 8))
            .expect_err("the budget is below the run's need");
        match err {
            SimError::CycleBudgetExceeded {
                budget,
                spent,
                what,
            } => {
                assert_eq!((budget, what), (64, "mta cycles"));
                assert!(spent > budget, "spent {spent}");
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
    }
}
