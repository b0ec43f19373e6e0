//! The program fuzzer: generated micro-ISA programs × generated fault
//! plans × machine shapes, held to three relations and a pinned corpus.
//!
//! Each case is a program from the shared generator (`programs/mod.rs`:
//! bounded loops, forward skips, loads, stores, `int_fetch_add`, and on
//! four hot words `readfe` / `writeef` critical sections, `readff` and
//! hot fetch-adds, plus a `writeef` / `readfe` mailbox), a memory image
//! with some words empty, `p ∈ {1, 2, 4}` with 1–4 streams each, and a
//! [`FaultPlan`] drawn on both axes: latency spikes, wake delay and a
//! stuck-full or stuck-empty tag on the address axis; stall windows,
//! degraded links and brownouts on the structural one. Half the programs
//! are *race-free*: ordinary memory ops address a per-stream region, and
//! the hot-word and mailbox ops commute, so their result does not depend
//! on the schedule. The others share every word.
//!
//! The relations:
//! 1. two runs of a case agree, report or error and memory image alike;
//! 2. a latency or structural plan never changes what a race-free
//!    program issues (net of sync retries) or leaves in memory, values
//!    and tags, and never shortens it;
//! 3. under a stuck tag a race-free program either runs the same work to
//!    the same image or ends in [`SimError::Deadlock`], every parked op
//!    one the stuck state forbids; with every word stuck empty, a program
//!    that synchronizes at all always deadlocks.
//!
//! `golden/fuzz.txt` pins the first 256 cases' reports (or error text)
//! and an FNV hash of every word's value and full/empty tag. It was
//! recorded before the memory image moved from a vector of tagged words
//! to a value array and a tag bitset; a failure prints the lines that
//! moved and the whole text to paste after an intended model change. Cases come from the
//! proptest shim's deterministic seeds, so the corpus is the same on
//! every run.

mod programs;

use proptest::prelude::*;
use proptest::{BoxedStrategy, TestRng};

use archgraph_core::{MtaParams, RunConfig};
use archgraph_mta_sim::isa::{OpClass, N_OP_CLASSES};
use archgraph_mta_sim::machine::MtaMachine;
use archgraph_mta_sim::memory::MemCounters;
use archgraph_mta_sim::report::RunReport;
use archgraph_mta_sim::{FaultPlan, SimError};

use programs::{alu_op, lower, reg, segment, Addressing, BodyOp, Segment};

const GOLDEN: &str = include_str!("golden/fuzz.txt");

/// Cases held to the relations; the first `PINNED` also form the corpus.
const CASES: u64 = 2048;
const PINNED: u64 = 256;

/// Words in the image: not a multiple of 64, so the last tag word of a
/// bitset is partial.
const CAP: usize = 150;

/// Hot words `0..HOT`, shared by every stream in both modes: critical
/// sections take the lower half, fetch-adds the upper, since a fetch-add
/// landing inside another stream's critical section would be lost when
/// that section writes back.
const HOT: u8 = 4;

/// The shared mailbox word of a racy program.
const MAILBOX: usize = 4;

/// A race-free program's per-stream regions: `STRIDE` words each from
/// `FIRST`, enough for the widest shape (4 × 4 streams) below `CAP`.
const FIRST: usize = 8;
const STRIDE: usize = 8;

/// A fault plan as its parts, so a case can also run its timing axes
/// without the stuck tag.
#[derive(Debug, Clone)]
struct Plan {
    timing: Vec<String>,
    /// The stuck tag, as `FaultPlan::stuck_tag` gives it: `Some(true)`
    /// is stuck full.
    stuck: Option<bool>,
    rate: u8,
    seed: u16,
}

impl Plan {
    fn parse(&self, with_stuck: bool) -> FaultPlan {
        let mut items = self.timing.clone();
        if with_stuck {
            items.extend(
                self.stuck
                    .map(|full| if full { "stuck-full" } else { "stuck-empty" }.to_string()),
            );
        }
        items.push(format!("rate={}", self.rate));
        let text = format!("{}:{}", items.join(","), self.seed);
        FaultPlan::parse(&text).unwrap_or_else(|e| panic!("generated plan {text}: {e}"))
    }
}

#[derive(Debug, Clone)]
struct Case {
    segments: Vec<Segment>,
    race_free: bool,
    mem_init: Vec<i64>,
    empties: Vec<usize>,
    shape: (usize, usize),
    plan: Option<Plan>,
}

fn maybe<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(on, v)| on.then_some(v))
}

fn hot() -> impl Strategy<Value = u8> {
    0..HOT
}

fn lock_word() -> impl Strategy<Value = u8> {
    0..HOT / 2
}

fn add_word() -> impl Strategy<Value = u8> {
    HOT / 2..HOT
}

/// Body ops whose ordinary memory offsets fall in `0..offsets`.
fn ops(offsets: u8) -> BoxedStrategy<BodyOp> {
    prop_oneof![
        alu_op(),
        alu_op(),
        (reg(), 0..offsets).prop_map(|(d, a)| BodyOp::Load(d, a)),
        (reg(), 0..offsets).prop_map(|(s, a)| BodyOp::Store(s, a)),
        (reg(), 0..offsets).prop_map(|(d, a)| BodyOp::FetchAdd(d, a)),
        add_word().prop_map(BodyOp::HotAdd),
        (lock_word(), any::<i8>()).prop_map(|(h, k)| BodyOp::Lock(h, k)),
        hot().prop_map(BodyOp::Peek),
        reg().prop_map(BodyOp::Post),
    ]
    .boxed()
}

/// A race-free program's ops: offsets within the stream's own region.
fn private_op() -> BoxedStrategy<BodyOp> {
    ops(STRIDE as u8)
}

/// A racy program's ops: offsets anywhere in the image.
fn shared_op() -> BoxedStrategy<BodyOp> {
    ops(CAP as u8)
}

fn plan() -> impl Strategy<Value = Option<Plan>> {
    let address = (maybe(1u64..60), maybe(1u64..30), 0u8..3);
    let structural = (
        maybe((1u64..40, 1u64..300)),
        maybe(1u64..90),
        maybe((2u64..5, maybe((0u64..200, 1u64..400)))),
    );
    let plan = (address, structural, 0u8..3, any::<u16>()).prop_map(
        |((mem, wake, stuck), (stall, link, brownout), rate, seed)| {
            let mut timing = Vec::new();
            timing.extend(mem.map(|t| format!("mem-latency={t}")));
            timing.extend(wake.map(|t| format!("wake-delay={t}")));
            timing.extend(stall.map(|(s, gap)| format!("stall={s},stall-period={}", s + gap)));
            timing.extend(link.map(|t| format!("link-latency={t}")));
            if let Some((mult, window)) = brownout {
                timing.push(format!("brownout={mult}"));
                timing
                    .extend(window.map(|(at, len)| format!("brownout-at={at},brownout-for={len}")));
            }
            let stuck = [None, Some(true), Some(false)][stuck as usize];
            Plan {
                timing,
                stuck,
                rate,
                seed,
            }
        },
    );
    // One case in four runs clean.
    (0u8..4, plan).prop_map(|(k, p)| (k != 0).then_some(p))
}

fn case() -> impl Strategy<Value = Case> {
    let program = any::<bool>().prop_flat_map(|race_free| {
        let op = if race_free { private_op } else { shared_op };
        (
            Just(race_free),
            proptest::collection::vec(segment(op), 0..6),
        )
    });
    (
        program,
        proptest::collection::vec(-4i64..5, CAP..CAP + 1),
        proptest::collection::vec(0..CAP, 0..6),
        (0usize..3, 1usize..5),
        plan(),
    )
        .prop_map(
            |((race_free, segments), mem_init, empties, (p, s), plan)| Case {
                segments,
                race_free,
                mem_init,
                empties,
                shape: ([1, 2, 4][p], s),
                plan,
            },
        )
}

impl Case {
    fn addressing(&self) -> Addressing {
        if self.race_free {
            Addressing::Private {
                first: FIRST,
                stride: STRIDE,
            }
        } else {
            Addressing::Shared { mailbox: MAILBOX }
        }
    }

    /// The words that start empty: the mailboxes, plus the generated
    /// words (in a race-free program, only those no sync op touches).
    fn empty_words(&self) -> Vec<usize> {
        let (p, s) = self.shape;
        let mut out = if self.race_free {
            (0..p * s).map(|id| FIRST + STRIDE * id).collect()
        } else {
            vec![MAILBOX]
        };
        let synced =
            |a: usize| a < HOT as usize || (a >= FIRST && (a - FIRST).is_multiple_of(STRIDE));
        out.extend(
            self.empties
                .iter()
                .copied()
                .filter(|&a| !self.race_free || !synced(a)),
        );
        out
    }
}

/// One run's outcome: the report or error, and every word's value and
/// tag.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<RunReport, SimError>,
    image: Vec<(i64, bool)>,
}

fn run(case: &Case, plan: Option<FaultPlan>) -> Outcome {
    let (p, streams) = case.shape;
    let scope = RunConfig {
        faults: plan,
        ..RunConfig::CLEAN
    };
    let mut m = scope.scope(|| MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), p, CAP));
    let mem = m.memory_mut();
    assert_eq!(mem.alloc(CAP), 0);
    for (a, &v) in case.mem_init.iter().enumerate() {
        mem.poke(a, v);
    }
    for a in case.empty_words() {
        mem.set_empty(a);
    }
    let result = m.try_run(
        &lower(&case.segments, case.addressing()),
        streams,
        |_, _| {},
    );
    let mem = m.memory();
    let image = (0..CAP).map(|a| (mem.peek(a), mem.is_full(a))).collect();
    Outcome { result, image }
}

/// What a run did, net of sync retries: instructions issued, the op mix
/// and the memory traffic.
fn work(r: &RunReport) -> (u64, [u64; N_OP_CLASSES], MemCounters) {
    let mut mix = r.op_mix;
    mix[OpClass::Sync.index()] -= r.sync_retries;
    let mem = MemCounters {
        sync_retries: 0,
        ..r.mem
    };
    (r.issued - r.sync_retries, mix, mem)
}

/// The corpus line of case `k`.
fn line(k: u64, case: &Case, out: &Outcome) -> String {
    let fnv = out
        .image
        .iter()
        .flat_map(|&(v, full)| v.to_le_bytes().into_iter().chain([full as u8]))
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    let plan = case
        .plan
        .as_ref()
        .map_or("-".to_string(), |p| p.parse(true).to_string());
    let (p, s) = case.shape;
    let mode = if case.race_free { "private" } else { "shared" };
    let what = match &out.result {
        Ok(r) => {
            let mix: Vec<String> = r.op_mix.iter().map(u64::to_string).collect();
            format!(
                "cycles={} issued={} thirds={} retries={} mix={} mem={},{},{},{}",
                r.cycles,
                r.issued,
                r.issued_thirds,
                r.sync_retries,
                mix.join(","),
                r.mem.loads,
                r.mem.stores,
                r.mem.sync_ops,
                r.mem.fetch_adds,
            )
        }
        Err(e) => format!("error={}", e.to_string().replace('\n', " |")),
    };
    format!("{k:03} p={p} s={s} {mode} plan={plan} {what} image={fnv:016x}\n")
}

/// Relations 2 and 3 for a race-free case; `faulted` is its run under
/// its own plan.
fn check_race_free(case: &Case, faulted: &Outcome) {
    let Some(plan) = &case.plan else {
        assert!(
            faulted.result.is_ok(),
            "a race-free program wedged a clean machine"
        );
        return;
    };
    let clean = run(case, None);
    let clean_rep = clean
        .result
        .as_ref()
        .expect("a race-free program halts on a clean machine");
    let timing_only;
    let timing = if plan.stuck.is_some() {
        timing_only = run(case, Some(plan.parse(false)));
        &timing_only
    } else {
        faulted
    };
    let rep = timing
        .result
        .as_ref()
        .expect("a latency or structural plan cannot wedge a race-free program");
    assert_eq!(work(rep), work(clean_rep), "the plan changed the work");
    assert_eq!(timing.image, clean.image, "the plan changed the image");
    assert!(
        rep.cycles >= clean_rep.cycles,
        "the plan shortened the run: {} < {}",
        rep.cycles,
        clean_rep.cycles
    );

    let Some(stuck_full) = plan.stuck else { return };
    let fault = plan.parse(true);
    match &faulted.result {
        Ok(r) => {
            assert_eq!(
                work(r),
                work(clean_rep),
                "a harmless stuck tag changed the work"
            );
            assert_eq!(
                faulted.image, clean.image,
                "a harmless stuck tag changed the image"
            );
        }
        Err(SimError::Deadlock { blocked, .. }) => {
            for b in blocked {
                assert_eq!(
                    fault.stuck_tag(b.addr),
                    Some(stuck_full),
                    "{b}: not a stuck word"
                );
                assert_eq!(b.full, stuck_full, "{b}");
                // Stuck full parks only writeef; stuck empty only the reads.
                assert_eq!(
                    b.op == "writeef",
                    stuck_full,
                    "{b}: the stuck tag allows it"
                );
            }
        }
        Err(e) => panic!("a stuck tag ended in {e}"),
    }
    if !stuck_full && plan.rate == 0 && clean_rep.mem.sync_ops > 0 {
        assert!(
            matches!(faulted.result, Err(SimError::Deadlock { .. })),
            "every word stuck empty, yet a synchronizing program halted"
        );
    }
}

#[test]
fn generated_programs_keep_the_relations_and_the_corpus() {
    let strategy = case();
    let mut fresh = String::new();
    for k in 0..CASES {
        let case = strategy.generate(&mut TestRng::for_case("program_fuzz", k));
        let outcome = std::panic::catch_unwind(|| {
            let plan = || case.plan.as_ref().map(|p| p.parse(true));
            let first = run(&case, plan());
            assert_eq!(run(&case, plan()), first, "two runs disagree");
            if case.race_free {
                check_race_free(&case, &first);
            }
            line(k, &case, &first)
        });
        match outcome {
            Ok(l) if k < PINNED => fresh += &l,
            Ok(_) => {}
            Err(e) => {
                eprintln!("program fuzz case {k} failed:\n{case:#?}");
                std::panic::resume_unwind(e);
            }
        }
    }
    let want: Vec<&str> = GOLDEN.lines().collect();
    let moved: Vec<&str> = fresh
        .lines()
        .enumerate()
        .filter(|&(i, l)| want.get(i) != Some(&l))
        .map(|(_, l)| l)
        .collect();
    assert!(
        moved.is_empty() && fresh.lines().count() == want.len(),
        "{} corpus line(s) moved off golden/fuzz.txt, first:\n{}\nthis run:\n{fresh}",
        moved.len(),
        moved.iter().take(5).copied().collect::<Vec<_>>().join("\n"),
    );
}
