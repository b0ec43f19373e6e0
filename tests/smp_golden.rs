//! The SMP cache model's tripwire.
//!
//! Every committed SMP fingerprint (`CellRun::smp` in `bench::cells`,
//! `benchmarks/expected.json`, `suite_golden.rs`) pins `instructions` and
//! `accesses`, and neither depends on what the TLB or the caches answer.
//! This test pins what does: the whole `RunStats` of every SMP kernel —
//! the four `f64` clocks by bit pattern, every hit, miss, bus and phase
//! count — on the paper's machine, on the tiny test machine (whose small
//! caches and TLB show capacity effects at toy sizes) and under one
//! structural fault plan. `prefetch_hits` is 0 on every line: the model
//! has no prefetcher.
//!
//! `tests/golden/smp_runstats.txt` was recorded by running this file on
//! commit 64667d8 (the scan-and-rotate `Tlb` and `Cache`, four host arrays
//! in the Helman–JáJá walk), and its last eight lines — the list cells at
//! the benchmark's `p = 8` and at `p = 1` — on commit 5cd33e5 (the serial
//! walk, before it became a host chase and a replay). Its 14 `tiny` and
//! `tiny+plan` lines were re-recorded when the stream prefetcher, which
//! only the tiny machine turned on, was deleted. A host-speed change
//! to `smp-sim` or to a `sim_smp.rs` kernel must leave it byte-identical.
//! After an intended model change, replace the file with the text the
//! failure prints.

use archgraph::apps::sim::try_simulate_euler_smp;
use archgraph::apps::tree::Tree;
use archgraph::bfs::sim_smp::try_simulate_bfs_smp;
use archgraph::coloring::sim_smp::try_simulate_coloring_smp;
use archgraph::concomp::sim_smp::try_simulate_sv;
use archgraph::core::machine::SmpParams;
use archgraph::core::{with_fault_plan, FaultPlan};
use archgraph::graph::gen;
use archgraph::graph::list::LinkedList;
use archgraph::graph::rng::Rng;
use archgraph::listrank::sim_smp::{try_simulate_hj, try_simulate_seq};
use archgraph::smp::stats::RunStats;

const GOLDEN: &str = include_str!("golden/smp_runstats.txt");

/// Stalls of 100 cycles in every 1 000, and main memory four times slower
/// from cycle 10 000 to cycle 1 010 000 (plan times are thirds of a cycle):
/// every run below starts outside the brownout and enters it, and all but
/// the shortest leave it again.
const PLAN: &str =
    "stall=300,stall-period=3000,brownout=4,brownout-at=30000,brownout-for=3000000:7";

fn line(name: &str, s: &RunStats) -> String {
    format!(
        "{name} cycles={:016x} compute={:016x} mem_stall={:016x} tlb_stall={:016x} \
         instructions={} loads={} stores={} l1_hits={} l2_hits={} mem_accesses={} \
         tlb_misses={} prefetch_hits={} bus_lines={} barriers={} phases={} \
         bus_limited_phases={}\n",
        s.cycles.to_bits(),
        s.compute_cycles.to_bits(),
        s.mem_stall_cycles.to_bits(),
        s.tlb_stall_cycles.to_bits(),
        s.instructions,
        s.loads,
        s.stores,
        s.l1_hits,
        s.l2_hits,
        s.mem_accesses,
        s.tlb_misses,
        s.prefetch_hits,
        s.bus_lines,
        s.barriers,
        s.phases,
        s.bus_limited_phases,
    )
}

/// The Random and the Ordered list and the tree. `scale` shifts every
/// input size down: unscaled, a list is 2 MB a column, so Helman–JáJá's
/// three columns pass the E4500's 4 MB L2 as well as its TLB's 512 KB
/// reach; the tiny machine thrashes everything at a sixteenth of that.
fn list_inputs(scale: u32) -> (LinkedList, LinkedList, Tree) {
    let n_list = (1usize << 19) >> scale;
    let n_tree = (1usize << 14) >> scale;
    (
        LinkedList::random(n_list, &mut Rng::new(2005)),
        LinkedList::ordered(n_list),
        Tree::random_attachment(n_tree, 2005),
    )
}

/// The seven kernels on one machine at `p = 4`.
fn kernels(machine: &str, params: &SmpParams, scale: u32) -> String {
    let p = 4;
    let n_graph = (1usize << 13) >> scale;
    let (random, ordered, tree) = list_inputs(scale);
    let g = gen::random_gnm(n_graph, 5 * n_graph, 2005);

    let mut out = String::new();
    let mut put =
        |kernel: &str, s: RunStats| out.push_str(&line(&format!("{machine}/{kernel}"), &s));
    put(
        "hj-random",
        try_simulate_hj(&random, params, p, 8, 1).unwrap().stats,
    );
    put(
        "hj-ordered",
        try_simulate_hj(&ordered, params, p, 8, 1).unwrap().stats,
    );
    put(
        "seq-random",
        try_simulate_seq(&random, params).unwrap().stats,
    );
    put("sv", try_simulate_sv(&g, params, p).unwrap().stats);
    put(
        "coloring",
        try_simulate_coloring_smp(&g, params, p).unwrap().stats,
    );
    put("bfs", try_simulate_bfs_smp(&g, 0, params, p).unwrap().stats);
    put(
        "euler",
        try_simulate_euler_smp(&tree, 0, params, p, 8)
            .unwrap()
            .stats,
    );
    out
}

/// The Helman–JáJá cells as `smp-cache` runs them — eight processors, so
/// 64 sublists dealt round-robin — and the one-processor walk, where a
/// single `ProcCtx` takes every sublist in turn.
fn list_cells(machine: &str, params: &SmpParams, scale: u32) -> String {
    let (random, ordered, tree) = list_inputs(scale);
    let hj = |list, p| try_simulate_hj(list, params, p, 8, 1).unwrap().stats;
    let euler = try_simulate_euler_smp(&tree, 0, params, 8, 8).unwrap();
    [
        ("hj-random@p8", hj(&random, 8)),
        ("hj-ordered@p8", hj(&ordered, 8)),
        ("euler@p8", euler.stats),
        ("hj-random@p1", hj(&random, 1)),
    ]
    .iter()
    .map(|(kernel, s)| line(&format!("{machine}/{kernel}"), s))
    .collect()
}

#[test]
fn smp_runstats_are_bit_identical_to_the_recorded_model() {
    let e4500 = SmpParams::sun_e4500();
    let tiny = SmpParams::tiny_for_tests();
    let plan = FaultPlan::parse(PLAN).unwrap();
    let mut actual = kernels("e4500", &e4500, 0) + &kernels("tiny", &tiny, 4);
    actual += &with_fault_plan(Some(plan.clone()), || {
        kernels("e4500+plan", &e4500, 2) + &kernels("tiny+plan", &tiny, 4)
    });
    // After the 28 lines of the first recording, so those keep their place.
    actual += &list_cells("e4500", &e4500, 0);
    actual += &with_fault_plan(Some(plan), || list_cells("e4500+plan", &e4500, 2));
    let moved: Vec<String> = GOLDEN
        .lines()
        .zip(actual.lines())
        .filter(|(recorded, now)| recorded != now)
        .map(|(recorded, now)| format!("recorded {recorded}\n     now {now}\n"))
        .collect();
    assert!(
        actual == GOLDEN,
        "SMP RunStats moved on {} of {} lines:\n{}\nThis run:\n{actual}",
        moved.len(),
        GOLDEN.lines().count(),
        moved.concat()
    );
}
