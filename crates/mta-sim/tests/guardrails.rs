//! Guardrail suite: the failure paths of the issue loop.
//!
//! * A kernel that deadlocks (unmatched full/empty traffic) returns a
//!   [`SimError::Deadlock`] naming exactly the parked streams, at the same
//!   cycle on every run, and never hangs.
//! * A kernel that outlives the cycle budget returns
//!   [`SimError::CycleBudgetExceeded`] at the budget.
//! * A deterministic [`FaultPlan`] leaves the issued-instruction count
//!   unchanged and only ever lengthens the run; stuck tag bits drive the
//!   deadlock detector.
//! * Property test: random full/empty kernels halt when balanced and
//!   deadlock when not.
//!
//! (Test names that say "engines" date from when each check ran under two
//! issue loops; they are kept so the tier-1 test list does not move.)

use proptest::prelude::*;

use archgraph_core::{MtaParams, RunConfig};
use archgraph_mta_sim::isa::{Program, ProgramBuilder, Reg};
use archgraph_mta_sim::machine::MtaMachine;
use archgraph_mta_sim::report::RunReport;
use archgraph_mta_sim::{FaultPlan, SimError};

const MEM_WORDS: usize = 32;

/// A test machine built under `plan` and, if given, a cycle budget.
fn machine(p: usize, plan: Option<&FaultPlan>, max_cycles: Option<u64>) -> MtaMachine {
    let run = RunConfig {
        faults: plan.cloned(),
        max_cycles: max_cycles.unwrap_or(RunConfig::CLEAN.max_cycles),
    };
    run.scope(|| MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), p, 1 << 12))
}

/// Run `prog` with optional empty words, fault plan and cycle budget;
/// return the outcome and the final memory image.
fn try_kernel(
    prog: &Program,
    p: usize,
    streams: usize,
    empties: &[usize],
    plan: Option<&FaultPlan>,
    max_cycles: Option<u64>,
) -> (Result<RunReport, SimError>, Vec<i64>) {
    let mut m = machine(p, plan, max_cycles);
    m.memory_mut().alloc(MEM_WORDS);
    for &a in empties {
        m.memory_mut().set_empty(a);
    }
    let out = m.try_run(prog, streams, |_, _| {});
    // Host-side accounting survives a deadlock or budget error.
    if out.is_err() {
        assert!(
            m.engine_stats().events > 0,
            "EngineStats dropped on the error return"
        );
    }
    (out, m.memory().peek_slice(0, MEM_WORDS))
}

/// Producer/consumer handshake over `mem[1]` with a deliberate imbalance:
/// the lower half of the streams each produce one value via `writeef`,
/// the upper half each consume **two** via `readfe`. Half the demanded
/// values never arrive, so once the producers halt, at least one consumer
/// is parked on an empty word forever — a guaranteed deadlock.
fn unbalanced_handshake(total: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let (v, half, t) = (Reg(2), Reg(3), Reg(5));
    b.li(half, total / 2);
    b.mul(v, Reg(1), Reg(1));
    let consumer = b.bge_fwd(Reg(1), half);
    b.writeef(v, Reg(0), 1);
    b.halt();
    b.bind(consumer);
    b.readfe(v, Reg(0), 1);
    b.fetch_add_imm(t, 4, v);
    b.readfe(v, Reg(0), 1); // over-consume: this read can never be matched
    b.fetch_add_imm(t, 4, v);
    b.halt();
    b.build()
}

/// The balanced variant (same shape as `pinned_sync_handshake` in the
/// loop goldens): halts cleanly unless a fault plan wedges it.
fn balanced_handshake(total: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let (v, half, t) = (Reg(2), Reg(3), Reg(5));
    b.li(half, total / 2);
    b.mul(v, Reg(1), Reg(1));
    let consumer = b.bge_fwd(Reg(1), half);
    b.writeef(v, Reg(0), 1);
    b.halt();
    b.bind(consumer);
    b.readfe(v, Reg(0), 1);
    b.fetch_add_imm(t, 4, v);
    b.halt();
    b.build()
}

/// Fig. 1-shaped list walk (memory-heavy, sync-free) plus its memory
/// image — the workhorse for the fault-latency and watchdog checks.
fn walk_kernel() -> (Program, Vec<i64>) {
    let n = 24i64;
    let mut mem = vec![0i64; MEM_WORDS];
    for i in 0..n {
        let succ = (i + 1) % n;
        mem[(2 + i) as usize] = if succ % 4 == 0 { 0 } else { 2 + succ };
    }
    let mut b = ProgramBuilder::new();
    let (i, one, lim, j, c) = (Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));
    b.li(one, 1).li(lim, n);
    let claim = b.here();
    b.fetch_add_imm(i, 0, one);
    let done = b.bge_fwd(i, lim);
    b.addi(j, i, 2);
    let walk = b.here();
    b.load(j, j, 0);
    b.beq(j, Reg(0), claim);
    b.fetch_add_imm(c, 1, one);
    b.jmp(walk);
    b.bind(done);
    b.halt();
    (b.build(), mem)
}

fn poke_all(m: &mut MtaMachine, mem: &[i64]) {
    for (a, &v) in mem.iter().enumerate() {
        m.memory_mut().poke(a, v);
    }
}

/// An unmatched `readfe` kernel must return a `SimError::Deadlock` that
/// names the parked consumers, at the cycle recorded on commit 9c672cf —
/// and, critically, return at all.
#[test]
fn deadlock_is_bit_identical_across_engines() {
    let mut detected = Vec::new();
    for &(p, streams) in &[(1usize, 2usize), (2, 4), (2, 8)] {
        let prog = unbalanced_handshake((p * streams) as i64);
        let (out, _) = try_kernel(&prog, p, streams, &[1], None, None);
        match out.expect_err("over-consuming kernel must deadlock") {
            SimError::Deadlock { cycle, blocked } => {
                for bs in &blocked {
                    assert_eq!(bs.op, "readfe", "only consumers can be parked");
                    assert_eq!(bs.addr, 1);
                    assert!(!bs.full, "parked consumers see an empty word");
                    assert!(bs.stream >= p * streams / 2, "producers all halt");
                }
                detected.push((cycle, blocked.len()));
            }
            other => panic!("expected a deadlock, got {other}"),
        }
    }
    assert_eq!(
        detected,
        [(14, 1), (24, 4), (44, 8)],
        "(cycle, parked streams)"
    );
}

/// The deadlock error's Display text names every parked stream.
#[test]
fn deadlock_diagnostics_are_human_readable() {
    let prog = unbalanced_handshake(2);
    let (out, _) = try_kernel(&prog, 1, 2, &[1], None, None);
    let msg = out.expect_err("must deadlock").to_string();
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(msg.contains("readfe"), "{msg}");
    assert!(msg.contains("mem[1]"), "{msg}");
}

/// A non-terminating (sync-free) kernel trips the watchdog at its budget
/// rather than hanging.
#[test]
fn watchdog_fires_identically_on_runaway_kernels() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(2), 0);
    let top = b.here();
    b.addi(Reg(2), Reg(2), 1);
    b.store_abs(Reg(2), 0);
    b.jmp(top);
    b.halt();
    let prog = b.build();

    let budget = 500u64;
    let (out, _) = try_kernel(&prog, 2, 4, &[], None, Some(budget));
    match out
        .as_ref()
        .expect_err("runaway kernel must trip the watchdog")
    {
        SimError::CycleBudgetExceeded {
            budget: b,
            spent,
            what,
        } => {
            assert_eq!(*b, budget);
            assert_eq!(*spent, budget + 1, "the first event past the boundary");
            assert_eq!(*what, "mta cycles");
        }
        other => panic!("expected a budget error, got {other}"),
    }
}

/// A kernel that finishes inside the budget is untouched by the watchdog:
/// same report with and without a (tight but sufficient) budget, on a
/// clean machine and under a latency plan.
#[test]
fn watchdog_is_invisible_inside_the_budget() {
    let (prog, mem) = walk_kernel();
    let plan = Some(FaultPlan::parse("mem-latency=30,rate=1:9").unwrap());
    for plan in [None, plan] {
        let run = |budget: Option<u64>| {
            let mut m = machine(2, plan.as_ref(), budget);
            m.memory_mut().alloc(MEM_WORDS);
            poke_all(&mut m, &mem);
            m.try_run(&prog, 4, |_, _| {}).expect("walk kernel halts")
        };
        let free = run(None);
        let fenced = run(Some(free.cycles + 1));
        assert_eq!(free, fenced, "{plan:?}: an idle watchdog costs nothing");
    }
}

/// The walk kernel on two processors × four streams under `plan`.
fn run_walk(plan: Option<&FaultPlan>) -> RunReport {
    let (prog, mem_init) = walk_kernel();
    let mut m = machine(2, plan, None);
    m.memory_mut().alloc(MEM_WORDS);
    poke_all(&mut m, &mem_init);
    m.try_run(&prog, 4, |_, _| {}).expect("kernel still halts")
}

/// Injected memory latency never changes *what* executes (issued
/// instructions, op mix, memory traffic) and can only lengthen the
/// schedule.
#[test]
fn fault_latency_is_engine_invariant_and_monotone() {
    let plan = FaultPlan::parse("mem-latency=30,rate=1:9").expect("plan parses");
    let clean = run_walk(None);
    let faulted = run_walk(Some(&plan));
    assert_eq!(
        faulted.issued, clean.issued,
        "latency must not change the work"
    );
    assert_eq!(faulted.op_mix, clean.op_mix);
    assert_eq!(faulted.mem, clean.mem);
    assert!(
        faulted.cycles >= clean.cycles,
        "extra latency can only lengthen the run ({} < {})",
        faulted.cycles,
        clean.cycles
    );
}

/// Delayed sync-retry wakeups on a kernel that leans on retries: it still
/// halts, and the final memory is the clean run's.
#[test]
fn fault_wake_delay_is_engine_invariant() {
    let plan = FaultPlan::parse("wake-delay=9,rate=0:3").expect("plan parses");
    for &(p, streams) in &[(1usize, 2usize), (2, 4)] {
        let prog = balanced_handshake((p * streams) as i64);
        let (out, mem) = try_kernel(&prog, p, streams, &[1], Some(&plan), None);
        let rep = out.expect("balanced handshake halts");
        assert!(rep.mem.sync_ops > 0, "handshake must use sync ops");
        let (_, mem_clean) = try_kernel(&prog, p, streams, &[1], None, None);
        assert_eq!(mem, mem_clean);
    }
}

/// A stuck-empty tag starves consumers: `readfe` can never observe a full
/// word, so the balanced handshake — which halts cleanly without the
/// fault — deadlocks.
#[test]
fn stuck_tag_fault_drives_the_deadlock_detector() {
    let plan = FaultPlan::parse("stuck-empty,rate=0:5").expect("plan parses");
    for &(p, streams) in &[(1usize, 2usize), (2, 4)] {
        let prog = balanced_handshake((p * streams) as i64);
        // Sanity: clean machine halts.
        let (clean, _) = try_kernel(&prog, p, streams, &[1], None, None);
        assert!(clean.is_ok(), "balanced handshake halts without the fault");
        let (out, _) = try_kernel(&prog, p, streams, &[1], Some(&plan), None);
        match out
            .as_ref()
            .expect_err("stuck-empty must starve the consumers")
        {
            SimError::Deadlock { blocked, .. } => {
                assert!(!blocked.is_empty());
                for bs in blocked {
                    assert_eq!(bs.op, "readfe");
                    assert!(!bs.full, "the observed tag is pinned empty");
                }
            }
            other => panic!("expected a deadlock, got {other}"),
        }
    }
}

/// The structural fault axis — per-processor stalls, degraded links,
/// brownouts, and all three at once — never changes what executes and
/// only ever lengthens the schedule.
#[test]
fn structural_faults_are_engine_invariant_and_monotone() {
    let clean = run_walk(None);
    for spec in [
        "stall=30,stall-period=300:7",
        "link-latency=60,rate=1:7",
        "brownout=4,brownout-at=300,brownout-for=3000:7",
        "stall=30,stall-period=300,link-latency=60,brownout=2,rate=1:7",
    ] {
        let plan = FaultPlan::parse(spec).expect("plan parses");
        let faulted = run_walk(Some(&plan));
        assert_eq!(
            faulted.issued, clean.issued,
            "{spec}: faults must not change the work"
        );
        assert_eq!(faulted.op_mix, clean.op_mix, "{spec}");
        assert_eq!(faulted.mem, clean.mem, "{spec}");
        assert!(
            faulted.cycles >= clean.cycles,
            "{spec}: structural faults can only lengthen the run ({} < {})",
            faulted.cycles,
            clean.cycles
        );
    }
}

/// Stall windows genuinely cost time: a plan whose windows cover three
/// tenths of every period must lengthen a memory-heavy kernel (guarding
/// against the adjustment silently short-circuiting).
#[test]
fn stall_windows_lengthen_the_schedule() {
    let clean = run_walk(None).cycles;
    let plan = FaultPlan::parse("stall=90,stall-period=300:7").unwrap();
    let stalled = run_walk(Some(&plan)).cycles;
    assert!(
        stalled > clean,
        "stalls must lengthen the run ({stalled} <= {clean})"
    );
}

/// A deadlock reached *through* a structural fault plan names the parked
/// streams the clean run names: stalls and link delays shift the
/// schedule, but the parked set does not depend on it.
#[test]
fn structural_faults_preserve_deadlock_identity() {
    let plan =
        FaultPlan::parse("stall=30,stall-period=300,link-latency=60,brownout=2,rate=1:11").unwrap();
    for &(p, streams) in &[(1usize, 2usize), (2, 4)] {
        let prog = unbalanced_handshake((p * streams) as i64);
        let parked = |plan| match try_kernel(&prog, p, streams, &[1], plan, None).0 {
            Err(SimError::Deadlock { blocked, .. }) => blocked
                .iter()
                .map(|b| (b.stream, b.pc, b.addr, b.op, b.full))
                .collect::<Vec<_>>(),
            other => panic!("over-consuming kernel must deadlock: {other:?}"),
        };
        assert_eq!(parked(Some(&plan)), parked(None));
    }
}

/// Build a full/empty kernel where the lower half of the streams each
/// perform `prod_reps` `writeef`s and the upper half `cons_reps`
/// `readfe`s against the same word. Balanced counts halt; unbalanced
/// counts deadlock.
fn repeated_handshake(total: i64, prod_reps: u8, cons_reps: u8) -> Program {
    let mut b = ProgramBuilder::new();
    let (v, half, t, k) = (Reg(2), Reg(3), Reg(5), Reg(6));
    b.li(half, total / 2);
    b.mul(v, Reg(1), Reg(1));
    let consumer = b.bge_fwd(Reg(1), half);
    if prod_reps > 0 {
        b.li(k, prod_reps as i64);
        let top = b.here();
        b.writeef(v, Reg(0), 1);
        b.addi(v, v, 1);
        b.addi(k, k, -1);
        b.bne(k, Reg(0), top);
    }
    b.halt();
    b.bind(consumer);
    if cons_reps > 0 {
        b.li(k, cons_reps as i64);
        let top = b.here();
        b.readfe(v, Reg(0), 1);
        b.fetch_add_imm(t, 4, v);
        b.addi(k, k, -1);
        b.bne(k, Reg(0), top);
    }
    b.halt();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every generated full/empty kernel halts if matched and deadlocks if
    /// deliberately unmatched, the same way on a second run.
    #[test]
    fn kernels_halt_or_deadlock_identically(
        prod_reps in 0u8..3,
        cons_reps in 0u8..3,
        shape_idx in 0usize..2,
    ) {
        let (p, streams) = [(1usize, 2usize), (2, 4)][shape_idx];
        let prog = repeated_handshake((p * streams) as i64, prod_reps, cons_reps);
        let (oracle, mem_oracle) = try_kernel(&prog, p, streams, &[1], None, None);
        // The outcome is decided by the aggregate writeef/readfe counts.
        if prod_reps == cons_reps {
            prop_assert!(oracle.is_ok(), "balanced kernel must halt: {:?}", oracle);
        } else {
            prop_assert!(
                matches!(oracle, Err(SimError::Deadlock { .. })),
                "unbalanced kernel must deadlock: {:?}",
                oracle
            );
        }
        let (out, mem_out) = try_kernel(&prog, p, streams, &[1], None, None);
        prop_assert_eq!(
            &out, &oracle,
            "outcome differs between runs (prod={}, cons={})", prod_reps, cons_reps
        );
        prop_assert_eq!(&mem_out, &mem_oracle, "memory differs between runs");
    }
}

/// `run` (the panicking wrapper) converts a deadlock into a panic that
/// carries the structured message — it must never hang — under a latency
/// plan (caught here) and on a clean machine (the test's own panic).
#[test]
#[should_panic(expected = "mta region failed: deadlock")]
fn run_panics_with_the_structured_message() {
    let prog = unbalanced_handshake(2);
    let run = |plan: Option<FaultPlan>| {
        let mut m = machine(1, plan.as_ref(), None);
        m.memory_mut().alloc(MEM_WORDS);
        m.memory_mut().set_empty(1);
        let _ = m.run(&prog, 2, |_, _| {});
    };
    let plan = Some(FaultPlan::parse("mem-latency=30,rate=1:9").unwrap());
    let faulted = std::panic::catch_unwind(|| run(plan)).expect_err("a deadlock panics");
    let msg = faulted.downcast::<String>().expect("a formatted message");
    assert!(msg.contains("mta region failed: deadlock"), "{msg}");
    run(None);
}

/// With both guardrails armed at once, the deadlock detector wins when
/// the deadlock completes before the budget boundary.
#[test]
fn deadlock_beats_a_generous_watchdog() {
    let prog = unbalanced_handshake(4);
    let (out, _) = try_kernel(&prog, 2, 2, &[1], None, Some(1 << 20));
    assert!(
        matches!(out, Err(SimError::Deadlock { .. })),
        "expected deadlock, got {out:?}"
    );
}
