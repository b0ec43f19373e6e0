//! One run of one workload: set-up, timed passes, verification, and the
//! result line. The untraced run yields the end-to-end metrics; the traced
//! run records spans, runs the per-engine passes and the layer probes, and
//! yields the per-layer metrics. End-to-end numbers never come from it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use archgraph_core::machine::MtaParams;
use archgraph_mta_sim::machine::{with_engine, with_workers, MtaEngine};
use archgraph_mta_sim::MtaMachine;
use archgraphd::json::Json;

use crate::daemon::{DaemonWorkload, WARM_SUBMITS};
use crate::metrics::{self, END_TO_END, ENGINES};
use crate::probes;
use crate::stats::{highest_percentile, median, percentile};
use crate::trace::{self, Tracer};
use crate::workloads::{self, build_kernel, KernelWorkload, Op, Pass, THREADS};

/// The seed of a run that is not given one; pinned fingerprints apply to it.
pub const DEFAULT_SEED: u64 = 2005;

/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 5;

/// Set-ups an untraced run makes; `setup_s` is their median.
const SETUPS: usize = 3;

/// Size divisor of the per-engine passes (the slower engines run at a
/// tenth of the default's speed or less).
const ROSTER_DIV: usize = 4;

/// Environment variables that would silently change what is measured.
const AMBIENT: [&str; 5] = [
    "ARCHGRAPH_MTA_ENGINE",
    "ARCHGRAPH_MTA_WORKERS",
    "ARCHGRAPH_FAULTS",
    "ARCHGRAPH_MAX_CYCLES",
    "ARCHGRAPH_BENCH_PANIC_CELL",
];

/// Arguments of one run.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
    /// The benchmark's own directory (`results/` goes under it).
    pub dir: PathBuf,
}

/// Operations attempted and failed so far.
#[derive(Default)]
pub struct Tally {
    /// Cells run, submits made and cross-checks done.
    pub attempted: u64,
    /// Those that errored, were refused or failed verification.
    pub failed: u64,
}

impl Tally {
    /// Count one check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("archperf: FAILED: {what}");
        }
    }

    fn pass(&mut self, workload: &str, pass: &Pass) {
        for op in &pass.ops {
            self.check(op.out.ok, &format!("{workload}/{} did not verify", op.name));
        }
    }
}

enum AnyWorkload {
    Kernel(KernelWorkload),
    Daemon(DaemonWorkload),
}

impl AnyWorkload {
    fn build(args: &Args, tr: &Tracer) -> Option<AnyWorkload> {
        if args.workload == "daemon-serve" {
            let dir = args
                .dir
                .join(format!("results/daemon-{}", std::process::id()));
            return Some(AnyWorkload::Daemon(DaemonWorkload::new(
                dir,
                args.seed,
                1,
                WARM_SUBMITS,
            )));
        }
        build_kernel(&args.workload, tr, args.seed, 1, usize::MAX).map(AnyWorkload::Kernel)
    }

    fn pass(&mut self, tr: &Tracer, i: usize) -> Pass {
        match self {
            AnyWorkload::Kernel(w) => w.pass(tr, i),
            AnyWorkload::Daemon(w) => w.pass(tr),
        }
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn engine_name(e: MtaEngine, workers: usize) -> String {
    match e {
        MtaEngine::Partitioned => format!("partitioned-w{workers}"),
        e => archgraph_bench::cells::engine_name(e).to_string(),
    }
}

fn engine_config(name: &str) -> (MtaEngine, usize) {
    match name {
        "single-step" => (MtaEngine::SingleStep, 1),
        "trace" => (MtaEngine::Trace, 1),
        "compiled" => (MtaEngine::Compiled, 1),
        "partitioned-w1" => (MtaEngine::Partitioned, 1),
        "partitioned-w2" => (MtaEngine::Partitioned, 2),
        other => unreachable!("no engine configuration called {other}"),
    }
}

/// Run `f` with every machine built inside it on the named configuration.
pub fn under_engine<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let (engine, workers) = engine_config(name);
    with_engine(engine, || with_workers(workers, f))
}

fn print_header(args: &Args, setups: usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let probe = MtaMachine::with_memory_words(MtaParams::mta2(), 1, 16);
    println!(
        "# archperf workload={} seed={} seconds={} trace={} nproc={nproc} threads={THREADS} \
         default-engine={} setups={setups} min-passes={MIN_PASSES} unset={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        engine_name(probe.engine(), probe.workers()),
        AMBIENT.join(","),
    );
}

/// Fingerprints pinned at the default seed, `workload → op → key → value`.
fn expected(dir: &Path, workload: &str) -> Option<BTreeMap<String, Json>> {
    let text = std::fs::read_to_string(dir.join("expected.json")).ok()?;
    let v = Json::parse(&text).ok()?;
    if v.get("seed").and_then(Json::as_u64) != Some(DEFAULT_SEED) {
        return None;
    }
    v.get("workloads")?.get(workload)?.as_obj().cloned()
}

/// At the default seed, compare the first pass with `expected.json`.
fn check_pinned(args: &Args, pass: &Pass, tally: &mut Tally) {
    if args.seed != DEFAULT_SEED {
        return;
    }
    let Some(pins) = expected(&args.dir, &args.workload) else {
        tally.check(false, "expected.json has no pins for this workload");
        return;
    };
    for op in pass.ops.iter().filter(|o| !o.out.fp.is_empty()) {
        let same = pins.get(&op.name).is_some_and(|pin| {
            op.out
                .fp
                .iter()
                .all(|(k, v)| pin.get(k).and_then(Json::as_u64) == Some(*v))
        });
        let what = format!(
            "{}/{}: fingerprint {:?} differs from expected.json",
            args.workload, op.name, op.out.fp
        );
        tally.check(same, &what);
    }
}

/// Render the fingerprints of one first pass as an `expected.json` member.
pub fn pin_workload(name: &str, dir: &Path) -> String {
    let args = Args {
        workload: name.to_string(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        dir: dir.to_path_buf(),
    };
    let tr = Tracer::new();
    let mut w = AnyWorkload::build(&args, &tr).expect("a known workload");
    let pass = w.pass(&tr, 0);
    let ops: Vec<String> = pass
        .ops
        .iter()
        .filter(|o| !o.out.fp.is_empty())
        .map(|o| {
            let kv: Vec<String> = o
                .out
                .fp
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            format!("      \"{}\": {{{}}}", o.name, kv.join(", "))
        })
        .collect();
    format!("    \"{name}\": {{\n{}\n    }}", ops.join(",\n"))
}

/// Per-operation medians of the timed passes, for the readable output.
fn print_ops(passes: &[Pass]) {
    let mut by_name: BTreeMap<&str, (Vec<f64>, u64)> = BTreeMap::new();
    for op in passes.iter().flat_map(|p| &p.ops) {
        let e = by_name.entry(&op.name).or_default();
        e.0.push(op.out.secs * 1e3);
        e.1 = op.out.work;
    }
    for (name, (ms, work)) in by_name {
        println!(
            "#   op {name:<28} median {:>10.3} ms  n={:<4} work={work}",
            median(&ms),
            ms.len()
        );
    }
}

/// The end-to-end metrics of an untraced run, by name.
fn e2e_values(setup_s: &[f64], passes: &[Pass]) -> BTreeMap<String, f64> {
    let of = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let op_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ops.iter().map(|o| o.out.secs * 1e3))
        .collect();
    let slowest = |p: &Pass| p.ops.iter().map(|o| o.out.secs).fold(0.0, f64::max) * 1e3;
    [
        ("setup_s", median(setup_s)),
        ("run_s", median(&of(&Pass::secs))),
        ("work_per_s", median(&of(&|p| p.work() as f64 / p.secs()))),
        ("first_result_ms", median(&of(&|p| p.first_result_s * 1e3))),
        ("op_ms_p50", percentile(&op_ms, 50)),
        ("slowest_op_ms", median(&of(&slowest))),
        ("peak_rss_mb", peak_rss_mb()),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

fn result_line(tally: &Tally, metrics: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Run the workload; returns the process exit code and the result line.
pub fn run(args: &Args) -> (i32, Option<String>) {
    for var in AMBIENT {
        std::env::remove_var(var);
    }
    // The rayon shim reads this once, at its first parallel call.
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    if !workloads::ALL.iter().any(|w| w.name == args.workload) {
        eprintln!("archperf: unknown workload {:?}", args.workload);
        return (2, None);
    }
    let setups = if args.trace { 1 } else { SETUPS };
    print_header(args, setups);
    let _ = std::fs::create_dir_all(args.dir.join("results"));

    let tr = Tracer::new();
    tr.set_on(args.trace);
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..setups {
        drop(built.take());
        let t0 = Instant::now();
        let (w, warm) = tr.span("archperf.setup", || {
            let mut w = AnyWorkload::build(args, &tr).expect("a known workload");
            let warm = w.pass(&tr, 0);
            (w, warm)
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        tally.pass(&args.workload, &warm);
        check_pinned(args, &warm, &mut tally);
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up");

    let (table, values): (Vec<(String, &str)>, _) = if args.trace {
        let table = metrics::per_layer();
        (
            table.into_iter().map(|m| (m.name, m.unit)).collect(),
            traced(args, &tr, &mut w, &mut tally),
        )
    } else {
        let mut passes = Vec::new();
        let t0 = Instant::now();
        while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
            let pass = w.pass(&tr, passes.len());
            tally.pass(&args.workload, &pass);
            passes.push(pass);
        }
        let secs: Vec<String> = passes.iter().map(|p| format!("{:.4}", p.secs())).collect();
        println!("# {} timed passes, s: {}", passes.len(), secs.join(" "));
        print_ops(&passes);
        (
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), m.unit))
                .collect(),
            e2e_values(&setup_s, &passes),
        )
    };
    // A layer the workload does not call was never measured and reads 0.
    let metrics: Vec<(String, &str, f64)> = table
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            (name, unit, value)
        })
        .collect();
    drop(w);

    for (name, unit, value) in &metrics {
        println!("{name:<52} {value:>16.6} {unit}");
    }
    println!(
        "# attempted={} failed={} failed_share={}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let line = result_line(&tally, &metrics);
    println!("{line}");
    (i32::from(tally.failed != 0), Some(line))
}

/// Σ time ÷ Σ work of the operations feeding each per-layer metric, ns.
fn kernel_layer_metrics(passes: &[Pass], out: &mut BTreeMap<String, f64>) {
    let mut sums: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for op in passes.iter().flat_map(|p| &p.ops) {
        if !op.metric.is_empty() {
            let e = sums.entry(op.metric).or_default();
            e.0 += op.out.secs;
            e.1 += op.out.work;
        }
    }
    for (name, (secs, work)) in sums {
        out.insert(name.to_string(), secs * 1e9 / work.max(1) as f64);
    }
    // Exact counts, from the first traced pass (input variant 0).
    let Some(first) = passes.first() else { return };
    let steps = |suffix: &str| first.ops.iter().find(|o| o.metric.ends_with(suffix));
    for (name, metric) in [
        ("coloring.rounds_mta", "coloring.sim_mta_ns_per_instr"),
        ("coloring.rounds_smp", "coloring.sim_smp_ns_per_access"),
    ] {
        if let Some(op) = steps(metric) {
            out.insert(name.to_string(), op.out.steps as f64);
        }
    }
    if let Some(op) = first.ops.iter().find(|o| o.metric.starts_with("bfs.")) {
        out.insert("bfs.levels".to_string(), op.out.steps as f64);
    }
}

/// Simulated behaviour of the MTA cells of one pass: exact counts.
fn mta_behaviour(pass: &Pass, out: &mut BTreeMap<String, f64>) {
    let reports: Vec<_> = pass
        .ops
        .iter()
        .filter_map(|o| o.out.report.as_ref())
        .collect();
    if reports.is_empty() {
        return;
    }
    let thirds: u64 = reports.iter().map(|r| r.issued_thirds).sum();
    let slots: u64 = reports
        .iter()
        .map(|r| 3 * r.cycles * r.processors as u64)
        .sum();
    let issued: u64 = reports.iter().map(|r| r.issued).sum();
    let retries: u64 = reports.iter().map(|r| r.sync_retries).sum();
    out.insert("mta-sim.utilization".into(), thirds as f64 / slots as f64);
    out.insert(
        "mta-sim.sync_retries_per_instr".into(),
        retries as f64 / issued as f64,
    );
    let ns_per_instr = |name: &str| {
        pass.ops
            .iter()
            .find(|o| o.name == name)
            .map(|o| o.out.secs * 1e9 / o.out.work as f64)
    };
    if let (Some(clean), Some(faulted)) = (ns_per_instr("sync/p8"), ns_per_instr("sync/p8+struct"))
    {
        out.insert("mta-sim.fault_slowdown".into(), faulted / clean);
    }
}

/// Simulated behaviour of the SMP cells of one pass: exact counts.
fn smp_behaviour(pass: &Pass, out: &mut BTreeMap<String, f64>) {
    let stats: Vec<_> = pass
        .ops
        .iter()
        .filter_map(|o| o.out.stats.as_ref())
        .collect();
    if stats.is_empty() {
        return;
    }
    let sum = |f: &dyn Fn(&archgraph_smp_sim::RunStats) -> u64| -> f64 {
        stats.iter().map(|s| f(s)).sum::<u64>() as f64
    };
    let accesses = sum(&|s| s.accesses());
    let mem = sum(&|s| s.mem_accesses);
    out.insert("smp-sim.l1_hit_rate".into(), sum(&|s| s.l1_hits) / accesses);
    out.insert("smp-sim.mem_access_rate".into(), mem / accesses);
    out.insert(
        "smp-sim.prefetch_coverage".into(),
        sum(&|s| s.prefetch_hits) / mem.max(1.0),
    );
    out.insert(
        "smp-sim.tlb_misses_per_kaccess".into(),
        sum(&|s| s.tlb_misses) * 1e3 / accesses,
    );
    out.insert(
        "smp-sim.bus_limited_phase_share".into(),
        sum(&|s| s.bus_limited_phases) / sum(&|s| s.phases).max(1.0),
    );
    let op = |name: &str| pass.ops.iter().find(|o| o.name == name);
    if let (Some(o), Some(r)) = (op("fig1/ordered/p8"), op("fig1/random/p8")) {
        if let (Some(os), Some(rs)) = (&o.out.stats, &r.out.stats) {
            out.insert(
                "smp-sim.ordered_over_random_sim".into(),
                os.cycles / rs.cycles,
            );
            out.insert(
                "smp-sim.ordered_over_random_host".into(),
                o.out.secs / r.out.secs,
            );
        }
    }
}

/// One pass per engine configuration over the workload's MTA cells at a
/// quarter of their size; every configuration must produce the reports the
/// single-step oracle produces.
fn roster(args: &Args, tally: &mut Tally, out: &mut BTreeMap<String, f64>) {
    let quiet = Tracer::new();
    let Some(mut w) = build_kernel(&args.workload, &quiet, args.seed, ROSTER_DIV, 1) else {
        return;
    };
    let mut oracle: Option<Vec<Op>> = None;
    for engine in ENGINES {
        let pass = under_engine(engine, || w.pass(&quiet, 0));
        tally.pass(&args.workload, &pass);
        out.insert(
            format!("mta-sim.{engine}.ns_per_instr"),
            pass.secs() * 1e9 / pass.work() as f64,
        );
        match &oracle {
            None => oracle = Some(pass.ops),
            Some(reference) => {
                for (a, b) in reference.iter().zip(&pass.ops) {
                    let what =
                        format!("{}: report under {engine} differs from single-step", b.name);
                    tally.check(a.out.report == b.out.report, &what);
                }
            }
        }
    }
}

/// The traced part of a run; returns the per-layer metrics it measured.
fn traced(
    args: &Args,
    tr: &Tracer,
    w: &mut AnyWorkload,
    tally: &mut Tally,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let setup_spans = tr.spans();

    // Default-engine passes in pairs, one with recording off and one with it
    // on, taking turns to go first. The two passes of a pair see the same
    // weather on the host, so the median of the pairs' ratios is what
    // recording costs; the medians of the two kinds, minutes apart at
    // worst, would mostly measure the weather.
    let budget = args.seconds * 0.6;
    let (mut plain, mut spanned): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while spanned.len() < 3 || t0.elapsed().as_secs_f64() < budget {
        let i = spanned.len();
        for recording in [i % 2 == 1, i % 2 == 0] {
            tr.set_on(recording);
            if recording {
                tr.set_pass(i as i64);
                spanned.push(tr.span("archperf.pass", || w.pass(tr, i)));
                tr.set_pass(-1);
            } else {
                plain.push(w.pass(tr, i));
            }
        }
    }
    tr.set_on(true);
    for pass in plain.iter().chain(&spanned) {
        tally.pass(&args.workload, pass);
    }
    let ratios: Vec<f64> = plain
        .iter()
        .zip(&spanned)
        .map(|(p, s)| s.secs() / p.secs() - 1.0)
        .collect();
    out.insert("archperf.trace_overhead_share".to_string(), median(&ratios));
    let run_spanned = median(&spanned.iter().map(Pass::secs).collect::<Vec<_>>());
    println!(
        "# {} pairs of passes, traced over untraced: {}",
        ratios.len(),
        ratios
            .iter()
            .map(|r| format!("{r:+.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    print_ops(&spanned);

    kernel_layer_metrics(&spanned, &mut out);
    mta_behaviour(&spanned[0], &mut out);
    smp_behaviour(&spanned[0], &mut out);
    probes::graph_metrics(&setup_spans, run_spanned, &mut out);

    match args.workload.as_str() {
        "listrank-mta" | "graphkernels-mta" | "sync-faults-mta" => {
            roster(args, tally, &mut out);
            probes::mta(tr, tally, &mut out);
            if args.workload == "sync-faults-mta" {
                probes::core_faults(&mut out);
            }
        }
        "smp-cache" => probes::smp(tr, &mut out),
        "daemon-serve" => {
            let warm_ms: Vec<f64> = plain
                .iter()
                .chain(&spanned)
                .flat_map(|p| p.ops.iter().filter(|o| o.name == "warm"))
                .map(|o| o.out.secs * 1e3)
                .collect();
            println!(
                "# {} warm submits; highest percentile with ten samples beyond it: {:?}",
                warm_ms.len(),
                highest_percentile(warm_ms.len())
            );
            out.insert(
                "archgraphd.warm_submit_ms_p90".into(),
                percentile(&warm_ms, 90),
            );
            if let AnyWorkload::Daemon(d) = w {
                let (hits, cells) = d.warm_cells;
                out.insert(
                    "archgraphd.warm_hit_ratio".into(),
                    hits as f64 / cells.max(1) as f64,
                );
            }
            let cold_s = median(
                &spanned
                    .iter()
                    .map(|p| p.ops[0].out.secs)
                    .collect::<Vec<_>>(),
            );
            probes::bench_layer(&args.dir, &mut out);
            probes::daemon_layer(tr, &args.dir, args.seed, cold_s, tally, &mut out);
        }
        _ => {}
    }

    let spans = tr.spans();
    for e in trace::nesting_errors(&spans) {
        tally.check(false, &e);
    }
    let path = args.dir.join("results/trace.jsonl");
    match trace::write_jsonl(&path, &args.workload, &spans) {
        Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
        Err(e) => tally.check(false, &format!("cannot write {}: {e}", path.display())),
    }
    out
}
