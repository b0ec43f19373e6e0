//! Layer probes: small measurements of one layer through its public
//! functions, run by the traced run of the workloads that load the layer.
//! Each writes per-layer metrics into `out`; a layer a workload does not
//! touch is never probed and reads 0.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use archgraph_bench::sweep::{self, Checkpoint};
use archgraph_bench::CellSpec;
use archgraph_core::machine::{MtaParams, SmpParams};
use archgraph_mta_sim::isa::{Program, ProgramBuilder, Reg};
use archgraph_mta_sim::{asm, FaultPlan, Memory, MtaMachine};
use archgraph_smp_sim::SmpMachine;
use archgraphd::cache::Cache;
use archgraphd::json::Json;
use archgraphd::protocol::{self, Request};
use archgraphd::queue::{CellEvent, CellStatus, Event, Runner, Scheduler};
use archgraphd::server;

use crate::cells::MTA_STREAMS;
use crate::daemon::{self, Daemon};
use crate::metrics::{PROBES, PROBE_ENGINES};
use crate::run::{under_engine, Tally};
use crate::trace::{Span, Tracer};
use crate::workloads::THREADS;

/// Processors of the probe machines.
const P: usize = 8;

/// The plan of the `sync+struct` cell: all three structural axes at once.
const STRUCT_PLAN: &str = "stall=30,stall-period=300,link-latency=60,brownout=2,rate=1:11";

/// Seconds per call of `f`, over `reps` calls.
fn per_call<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// [`per_call`] inside one span: a span per call would cost more than the
/// calls these probes time.
fn per_call_in<R>(tr: &Tracer, span: &str, reps: usize, f: impl FnMut() -> R) -> f64 {
    tr.span(span, || per_call(reps, f))
}

/// A cheap deterministic index stream for the access probes.
fn lcg(x: &mut u64) -> usize {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*x >> 33) as usize
}

/// The generator metrics, from the set-up spans of this run: Σ time ÷ Σ
/// nodes or edges generated, and all generation against one pass.
pub fn graph_metrics(setup: &[Span], pass_s: f64, out: &mut BTreeMap<String, f64>) {
    let ns = |s: &Span| (s.end_ns - s.start_ns) as f64;
    for (metric, span) in [
        ("graph.list_random_ns_per_node", "graph.list_random"),
        ("graph.gnm_ns_per_edge", "graph.random_gnm"),
        ("graph.csr_ns_per_edge", "graph.csr"),
    ] {
        let calls = || setup.iter().filter(|s| s.name == span);
        let work: u64 = calls().map(|s| s.work).sum();
        if work > 0 {
            let total = calls().fold(0.0, |acc, s| acc + ns(s));
            out.insert(metric.into(), total / work as f64);
        }
    }
    let generation = setup
        .iter()
        .filter(|s| s.name.starts_with("graph.") || s.name == "apps.tree_random")
        .fold(0.0, |acc, s| acc + ns(s));
    out.insert("graph.gen_share".into(), generation / 1e9 / pass_s);
}

/// A probe program, its memory image from word 0, the processors and
/// streams per processor it runs on, and the value each stream starts with
/// in `r2`.
struct Probe {
    prog: Program,
    words: Vec<i64>,
    procs: usize,
    streams: usize,
    start: fn(usize) -> i64,
}

/// Build one of the four direct probes.
fn build_probe(tr: &Tracer, name: &str) -> Probe {
    let (r, c, lim, one, t) = (Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));
    let mut b = ProgramBuilder::new();
    let mut words = vec![0i64; 16];
    let (mut procs, mut streams) = (P, MTA_STREAMS);
    let mut start: fn(usize) -> i64 = |_| 1;
    match name {
        // Dependent loads round one random cycle: every load waits out the
        // memory latency before the next can issue.
        "chase" => {
            let n = 1 << 16;
            let mut perm: Vec<usize> = (0..n).collect();
            let mut x = 0x5EED_u64;
            for i in (1..n).rev() {
                perm.swap(i, lcg(&mut x) % (i + 1));
            }
            words = vec![0; n];
            for i in 0..n {
                words[perm[i]] = perm[(i + 1) % n] as i64;
            }
            start = |id| (id * 67) as i64;
            b.li(c, 0).li(lim, 160);
            let top = b.here();
            b.load(r, r, 0).addi(c, c, 1).blt(c, lim, top);
        }
        // Long private runs: nothing but register arithmetic, on a single
        // stream. A run is batched only while no other stream's event is
        // due, anywhere on the machine; with 800 streams one always is,
        // which is the kernels' regime and what the other three probes
        // count. This one shows what batching buys when it can fire.
        "alu" => {
            (procs, streams) = (1, 1);
            b.li(c, 0).li(lim, 100_000).li(one, 3);
            let top = b.here();
            b.add(r, r, one)
                .mul(t, r, one)
                .sub(r, t, r)
                .add(t, t, one)
                .addi(c, c, 1)
                .blt(c, lim, top);
        }
        // Every stream fetch-adds the same word.
        "hotspot" => {
            b.li(c, 0).li(lim, 100).li(one, 1);
            let top = b.here();
            b.fetch_add_imm(t, 0, one).addi(c, c, 1).blt(c, lim, top);
        }
        // readfe/writeef ping-pong: the streams share 64 words.
        "sync" => {
            words = vec![0; 64];
            start = |id| (id % 64) as i64;
            b.li(c, 0).li(lim, 12);
            let top = b.here();
            b.readfe(t, r, 0)
                .addi(t, t, 1)
                .writeef(t, r, 0)
                .addi(c, c, 1)
                .blt(c, lim, top);
        }
        other => unreachable!("no probe called {other}"),
    }
    b.halt();
    let prog = tr.span("mta-sim.ProgramBuilder::build", || b.build());
    Probe {
        prog,
        words,
        procs,
        streams,
        start,
    }
}

/// The direct probes under each engine, then the fixed costs and the memory
/// image: everything of `mta-sim` the kernels do not hide.
pub fn mta(tr: &Tracer, tally: &mut Tally, out: &mut BTreeMap<String, f64>) {
    for name in PROBES {
        let probe = build_probe(tr, name);
        let mut oracle = None;
        for engine in PROBE_ENGINES {
            let mut mach = under_engine(engine, || {
                let words = probe.words.len().max(16);
                MtaMachine::with_memory_words(MtaParams::mta2(), probe.procs, words)
            });
            mach.memory_mut().alloc_init(&probe.words);
            let t0 = Instant::now();
            let report = tr.span("mta-sim.MtaMachine::run", || {
                mach.run(&probe.prog, probe.streams, |id, regs| {
                    regs[2] = (probe.start)(id)
                })
            });
            let secs = t0.elapsed().as_secs_f64();
            out.insert(
                format!("mta-sim.probe.{name}.{engine}.ns_per_instr"),
                secs * 1e9 / report.issued as f64,
            );
            let stats = mach.engine_stats();
            if engine == "trace" {
                out.insert(
                    format!("mta-sim.probe.{name}.events_per_instr"),
                    stats.events as f64 / report.issued as f64,
                );
                out.insert(
                    format!("mta-sim.probe.{name}.batched_fraction"),
                    stats.batched_fraction(report.issued),
                );
            }
            if name == "sync" && engine == "partitioned-w2" {
                out.insert(
                    "mta-sim.windows_per_kcycle".into(),
                    stats.windows as f64 * 1e3 / report.cycles as f64,
                );
            }
            match &oracle {
                None => oracle = Some(report),
                Some(reference) => tally.check(
                    *reference == report,
                    &format!("probe {name}: report under {engine} differs from single-step"),
                ),
            }
        }
    }

    mta_fixed_costs(tr, out);
    mta_memory(out);
}

/// Fixed costs: program construction and the price of an empty region.
fn mta_fixed_costs(tr: &Tracer, out: &mut BTreeMap<String, f64>) {
    let body = |b: &mut ProgramBuilder| {
        let (a, c) = (Reg(2), Reg(3));
        for i in 0..400 {
            b.addi(a, a, i).load(c, a, 0).add(a, a, c).store(a, c, 8);
            let skip = b.bge_fwd(a, c);
            b.fetch_add_imm(c, 0, a);
            b.bind(skip);
        }
        b.halt();
    };
    let mut sample = ProgramBuilder::new();
    body(&mut sample);
    let instrs = sample.build().len();
    let build_s = per_call_in(tr, "mta-sim.ProgramBuilder::build x50", 50, || {
        let mut b = ProgramBuilder::new();
        body(&mut b);
        b.build()
    });
    // Building the instruction list is part of every kernel's build step,
    // so it is counted with `build`.
    out.insert(
        "mta-sim.build_ns_per_instr".into(),
        build_s * 1e9 / instrs as f64,
    );

    let mut source = String::from("        li    r3, 1\n        li    r4, 1000\n");
    for i in 0..300 {
        source.push_str(&format!(
            "l{i}:    faa   r2, [r0+0], r3\n        addi  r5, r2, {i}\n        ld    r6, [r5+4]\n        bge   r2, r4, @l{i}\n"
        ));
    }
    source.push_str("        halt\n");
    let lines = source.lines().count();
    let asm_s = per_call_in(tr, "mta-sim.asm::assemble x50", 50, || {
        asm::assemble(&source).expect("the probe assembles")
    });
    out.insert("mta-sim.asm_ns_per_line".into(), asm_s * 1e9 / lines as f64);

    let mut halt = ProgramBuilder::new();
    halt.halt();
    let halt = halt.build();
    let mut mach = MtaMachine::with_memory_words(MtaParams::mta2(), P, 16);
    let region_s = per_call_in(tr, "mta-sim.MtaMachine::run x200", 200, || {
        mach.run(&halt, MTA_STREAMS, |_, _| {})
    });
    out.insert("mta-sim.region_setup_us".into(), region_s * 1e6);
}

/// The memory image, called directly.
fn mta_memory(out: &mut BTreeMap<String, f64>) {
    let words = 1 << 22;
    let ops = 1 << 21;
    let mut mem = Memory::new(words);
    mem.alloc(words);
    let mut x = 1u64;
    let load_s = per_call(ops, || mem.load(lcg(&mut x) % words));
    let store_s = per_call(ops, || mem.store(lcg(&mut x) % words, 7));
    let faa_s = per_call(ops, || mem.int_fetch_add(lcg(&mut x) % words, 1));
    let pair_s = per_call(ops, || {
        let addr = lcg(&mut x) % words;
        let v = mem.readfe(addr);
        mem.writeef(addr, v.unwrap_or(0))
    });
    out.insert("mta-sim.memory.load_ns".into(), load_s * 1e9);
    out.insert("mta-sim.memory.store_ns".into(), store_s * 1e9);
    out.insert("mta-sim.memory.fetch_add_ns".into(), faa_s * 1e9);
    out.insert("mta-sim.memory.sync_pair_ns".into(), pair_s * 1e9);
}

/// `FaultPlan::parse` and the two touch points every engine calls per
/// memory operation and per issue under a structural plan.
pub fn core_faults(out: &mut BTreeMap<String, f64>) {
    let parse_s = per_call(20_000, || FaultPlan::parse(STRUCT_PLAN));
    out.insert("core.fault_parse_us".into(), parse_s * 1e6);
    let mut mem = Memory::new(1 << 16);
    mem.set_fault_plan(Some(
        FaultPlan::parse(STRUCT_PLAN).expect("the plan parses"),
    ));
    let (mut x, mut t) = (1u64, 0u64);
    let touch_s = per_call(1 << 21, || {
        let addr = lcg(&mut x) % (1 << 16);
        t += 7;
        mem.fault_mem_extra(addr % P, addr, t, 300) + mem.fault_stall_adjust(addr % P, t)
    });
    out.insert("core.fault_touch_ns".into(), touch_s * 1e9);
}

/// `SmpMachine::phase` and `ProcCtx` driven directly.
pub fn smp(tr: &Tracer, out: &mut BTreeMap<String, f64>) {
    let n = 1 << 21;
    let per_proc = n / P;
    let mut mach = SmpMachine::new(SmpParams::sun_e4500(), P);
    let arr = mach.alloc_elems::<u64>(n);
    let mut phase = |name: &str, f: &mut dyn FnMut(usize, &mut archgraph_smp_sim::ProcCtx)| {
        let t0 = Instant::now();
        tr.span("smp-sim.SmpMachine::phase", || {
            mach.phase(name, |pid, ctx| f(pid, ctx));
        });
        t0.elapsed().as_secs_f64()
    };
    let seq = phase("seq-read", &mut |pid, ctx| {
        for i in 0..per_proc {
            ctx.read_elem(arr, pid * per_proc + i);
        }
    });
    let mut x = 1u64;
    let rand_r = phase("rand-read", &mut |_, ctx| {
        for _ in 0..per_proc {
            ctx.read_elem(arr, lcg(&mut x) % n);
        }
    });
    let rand_w = phase("rand-write", &mut |_, ctx| {
        for _ in 0..per_proc {
            ctx.write_elem(arr, lcg(&mut x) % n);
        }
    });
    out.insert("smp-sim.seq_read_ns".into(), seq * 1e9 / n as f64);
    out.insert("smp-sim.rand_read_ns".into(), rand_r * 1e9 / n as f64);
    out.insert("smp-sim.rand_write_ns".into(), rand_w * 1e9 / n as f64);
    let empty_s = per_call_in(tr, "smp-sim.SmpMachine::phase x2000", 2000, || {
        mach.phase("empty", |_, _| {});
    });
    out.insert("smp-sim.phase_overhead_us".into(), empty_s * 1e6);
}

fn parsed_job(seed: u64) -> Vec<CellSpec> {
    match protocol::parse_request(&daemon::submit_line(seed, 1)) {
        Ok(Request::Submit { cells, .. }) => cells,
        other => panic!("the benchmark's own submit line did not parse: {other:?}"),
    }
}

/// What the daemon calls in `bench` for every cell it serves.
pub fn bench_layer(dir: &Path, out: &mut BTreeMap<String, f64>) {
    let spec = parsed_job(0).remove(0);
    let reps = 20_000;
    out.insert(
        "bench.spec_validate_ns".into(),
        per_call(reps, || spec.validate()) * 1e9,
    );
    out.insert(
        "bench.cache_key_ns".into(),
        per_call(reps, || spec.cache_key()) * 1e9,
    );
    out.insert(
        "bench.display_name_us".into(),
        per_call(2000, || spec.display_name()) * 1e6,
    );
    out.insert(
        "bench.isolate_ns".into(),
        per_call(reps, || sweep::isolate("probe", || 1u64)) * 1e9,
    );
    let ckdir = dir.join(format!("results/probe-checkpoint-{}", std::process::id()));
    let ck = Checkpoint::at_spec(ckdir.clone(), "archperf-probe");
    let mut k = 0u64;
    let record_s = per_call(300, || {
        k += 1;
        ck.record(&format!("cell-{}", k % 32), "cycles=1 issued=2");
    });
    let lookup_s = per_call(3000, || {
        k += 1;
        ck.lookup(&format!("cell-{}", k % 32))
    });
    out.insert("bench.checkpoint_record_us".into(), record_s * 1e6);
    out.insert("bench.checkpoint_lookup_us".into(), lookup_s * 1e6);
    let _ = std::fs::remove_dir_all(ckdir);
}

/// The daemon's own layers, one by one, then the server round trips on a
/// live daemon whose cache already holds the job.
pub fn daemon_layer(
    tr: &Tracer,
    dir: &Path,
    seed: u64,
    cold_sweep_s: f64,
    tally: &mut Tally,
    out: &mut BTreeMap<String, f64>,
) {
    let line = daemon::submit_line(seed, 1);
    let parse_s = per_call_in(tr, "archgraphd.Json::parse x2000", 2000, || {
        Json::parse(&line)
    });
    out.insert(
        "archgraphd.json.parse_ns_per_byte".into(),
        parse_s * 1e9 / line.len() as f64,
    );
    let request_s = per_call_in(tr, "archgraphd.protocol::parse_request x2000", 2000, || {
        protocol::parse_request(&line)
    });
    out.insert(
        "archgraphd.protocol.parse_request_us".into(),
        request_s * 1e6,
    );

    let specs = parsed_job(seed);
    let sim = vec![
        ("cycles".to_string(), 123_456u64),
        ("issued".to_string(), 7_654_321),
    ];
    let event = CellEvent {
        index: 3,
        name: specs[0].display_name(),
        key: specs[0].cache_key(),
        status: CellStatus::Done {
            sim: sim.clone(),
            cached: true,
        },
    };
    let cell_line_s = per_call(20_000, || protocol::cell_line("j1", &event));
    out.insert("archgraphd.protocol.cell_line_ns".into(), cell_line_s * 1e9);

    let probe_dir = dir.join(format!("results/probe-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&probe_dir);
    let cache = Cache::open(probe_dir.join("cache-probe"));
    let mut k = 0;
    let record_s = per_call_in(tr, "archgraphd.Cache::record x240", 240, || {
        k += 1;
        cache.record(&specs[k % specs.len()], &sim)
    });
    let lookup_s = per_call_in(tr, "archgraphd.Cache::lookup x2400", 2400, || {
        k += 1;
        cache.lookup(&specs[k % specs.len()])
    });
    out.insert("archgraphd.cache.record_us".into(), record_s * 1e6);
    out.insert("archgraphd.cache.lookup_us".into(), lookup_s * 1e6);

    // 1 000 cells through the scheduler with a runner that does nothing.
    let cells = 1000;
    let noop: Runner = Arc::new(|_| Ok(vec![("cycles".to_string(), 1)]));
    let workers = THREADS;
    let sched = Scheduler::new(workers, cells, Cache::disabled(), noop);
    let job: Vec<CellSpec> = specs.iter().cycle().take(cells).cloned().collect();
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    let accepted = tr.span("archgraphd.Scheduler::submit", || {
        sched.submit(job, None, None, tx)
    });
    let submit_s = t0.elapsed().as_secs_f64();
    let served = rx
        .iter()
        .take_while(|e| !matches!(e, Event::Done(_)))
        .count();
    let drained_s = t0.elapsed().as_secs_f64();
    sched.shutdown_and_join();
    tally.check(
        accepted.is_ok() && served == cells,
        "the no-op scheduler probe did not serve every cell",
    );
    out.insert("archgraphd.queue.submit_us".into(), submit_s * 1e6);
    out.insert(
        "archgraphd.queue.noop_cell_us".into(),
        drained_s * 1e6 / cells as f64,
    );

    // Σ standalone cell times ÷ (cold sweep × workers): how busy the cold
    // sweep keeps its workers.
    let runner = archgraphd::sim_runner();
    let t0 = Instant::now();
    let all_ran = specs.iter().all(|s| runner(s).is_ok());
    let alone_s = t0.elapsed().as_secs_f64();
    tally.check(all_ran, "a job cell failed when run on its own");
    out.insert(
        "archgraphd.cold_worker_busy_share".into(),
        alone_s / (cold_sweep_s * workers as f64),
    );

    // Round trips on a live daemon with the job already cached.
    let mut live = Daemon::start(&probe_dir, workers).expect("the probe daemon starts");
    let quiet = Tracer::new();
    let warmed = daemon::submit_fresh(&quiet, &live.endpoint, &line).is_ok_and(|r| r.bad == 0);
    tally.check(warmed, "the probe daemon's cold submit failed");
    let mut pings_ok = true;
    let connect_ping_s = per_call(10, || pings_ok &= live.ping());
    out.insert(
        "archgraphd.server.connect_ping_ms".into(),
        connect_ping_s * 1e3,
    );
    let mut conn = server::connect(&live.endpoint).expect("the probe daemon accepts");
    let mut reader = BufReader::new(conn.try_clone().expect("a second handle"));
    pings_ok &= daemon::ping_on(&mut conn, &mut reader);
    let rtt_s = per_call(500, || pings_ok &= daemon::ping_on(&mut conn, &mut reader));
    out.insert("archgraphd.server.ping_rtt_us".into(), rtt_s * 1e6);
    tally.check(pings_ok, "a ping to the probe daemon went unanswered");
    let mut all_cached = true;
    let persistent_s = per_call(20, || {
        let reply = daemon::submit_on(&quiet, &conn, &line);
        all_cached &= reply.is_ok_and(|r| r.bad == 0 && r.cached == daemon::JOB_CELLS);
    });
    tally.check(
        all_cached,
        "a warm submit on the open connection missed the cache",
    );
    out.insert(
        "archgraphd.server.warm_submit_persistent_ms".into(),
        persistent_s * 1e3,
    );
    drop((conn, reader));
    live.shutdown();
    let _ = std::fs::remove_dir_all(&probe_dir);
}
