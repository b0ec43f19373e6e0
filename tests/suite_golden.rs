//! The bench suite's `sim` fingerprints, clean and under five fault plans.
//!
//! Clean, every cell must render the `sim` object `BENCH_archgraph.json`
//! holds for it, byte for byte. Under each plan of
//! `tests/golden/chaos_soak.txt` (its blocks were recorded on commit
//! 9c672cf), every cell must render its line of that plan's block. The
//! thirteen MTA cells without a plan of their own move with the plan; the
//! four degradation cells' own plans outrank it, and the SMP and native
//! cells pin nothing a plan reaches, so those lines read the same in every
//! block. After an intended change to the simulators, refresh the baseline
//! with `cargo run --release -p archgraph-bench --bin bench`, or replace a
//! plan's block with the lines the failure prints.

use std::collections::BTreeSet;

use archgraph_bench::cells::{bench_suite, render_sim, CellSpec};
use archgraph_core::{with_fault_plan, FaultPlan};

const BASELINE: &str = include_str!("../BENCH_archgraph.json");
const CHAOS: &str = include_str!("golden/chaos_soak.txt");

/// The suite under `plan` (`None`: clean), one
/// `"name": "<cell>", "sim": { … }` line a cell.
fn suite(plan: Option<&str>) -> String {
    let plan = plan.map(|p| FaultPlan::parse(p).expect("the plan parses"));
    let line = |(name, spec): (&str, CellSpec)| {
        format!(
            "\"name\": \"{name}\", \"sim\": {}\n",
            render_sim(&spec.run())
        )
    };
    with_fault_plan(plan, || bench_suite().into_iter().map(line).collect())
}

/// The `<cell>` of each `"name": "<cell>", …` line.
fn names(lines: &str) -> BTreeSet<&str> {
    lines.lines().filter_map(|l| l.split('"').nth(3)).collect()
}

fn assert_recorded(what: &str, recorded: &str, actual: &str) {
    let moved: Vec<String> = recorded
        .lines()
        .zip(actual.lines())
        .filter(|(r, a)| r != a)
        .map(|(r, a)| format!("recorded {r}\n     now {a}\n"))
        .collect();
    assert!(
        actual == recorded,
        "{what}: {} of {} cells moved:\n{}\nThis run:\n{actual}",
        moved.len(),
        recorded.lines().count(),
        moved.concat()
    );
}

#[test]
fn the_suite_matches_the_committed_baseline() {
    // The baseline's `"name"` and `"sim"` lines, paired into the chaos
    // golden's line format.
    let field = |key| {
        BASELINE
            .lines()
            .map(str::trim)
            .filter(move |l| l.starts_with(key))
    };
    let pairs = field("\"name\":").zip(field("\"sim\":"));
    let recorded: String = pairs.map(|(name, sim)| format!("{name} {sim}\n")).collect();
    let actual = suite(None);
    let (was, now) = (names(&recorded), names(&actual));
    assert!(
        was == now,
        "stale baseline: BENCH_archgraph.json names {:?} the suite lacks and lacks {:?}; \
         refresh it with `cargo run --release -p archgraph-bench --bin bench` and commit it",
        was.difference(&now).collect::<Vec<_>>(),
        now.difference(&was).collect::<Vec<_>>()
    );
    assert_recorded("BENCH_archgraph.json", &recorded, &actual);
}

/// The suite under `plan` against its `# plan` block.
fn chaos(plan: &str) {
    let head = format!("# plan {plan}");
    let recorded: String = CHAOS
        .lines()
        .skip_while(|l| *l != head)
        .skip(1)
        .take_while(|l| !l.starts_with("# plan "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(!recorded.is_empty(), "no `{head}` block in chaos_soak.txt");
    assert_recorded(&head, &recorded, &suite(Some(plan)));
}

macro_rules! chaos_plans {
    ($($test:ident: $plan:literal;)*) => {
        $(#[test] fn $test() { chaos($plan); })*
    };
}

chaos_plans! {
    chaos_stalls: "stall=30,stall-period=300:7";
    chaos_degraded_links: "link-latency=60,rate=1:7";
    chaos_stalls_links_and_a_brownout:
        "stall=40,stall-period=240,link-latency=60,brownout=2,brownout-at=2000,rate=1:11";
    chaos_a_long_brownout: "brownout=6,brownout-at=1000,brownout-for=50000:3";
    chaos_both_axes:
        "mem-latency=30,wake-delay=9,stall=20,stall-period=500,link-latency=40,brownout=2,rate=2:13";
}
