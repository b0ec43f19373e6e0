//! `daemon-serve`: `archgraphd` run in-process through its public library,
//! driven by one closed-loop client on a Unix socket.
//!
//! A pass is one round: a fresh daemon over an empty cache directory, one
//! cold submit of the 24-cell job that regenerates Figs. 1–2, then
//! [`WARM_SUBMITS`] resubmits, each on a fresh connection as
//! `archgraph-client` makes them. The cold submit is bound by the
//! simulators; a warm one runs neither and is all server, json, protocol,
//! cache and queue.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use archgraph_graph::rng::Rng;
use archgraphd::cache::Cache;
use archgraphd::json::Json;
use archgraphd::queue::Scheduler;
use archgraphd::server::{self, Conn, Endpoint};

use crate::cells::Outcome;
use crate::trace::Tracer;
use crate::workloads::{Op, Pass, THREADS};

/// Warm resubmits per round.
pub const WARM_SUBMITS: usize = 20;

/// Cells in the job.
pub const JOB_CELLS: usize = 24;

/// Admission bound of the daemon under test (its binary's default).
const MAX_QUEUE: usize = 64;

/// The job: Figs. 1–2 on both machines at p ∈ {1, 2, 4, 8}, as structured
/// specs with no engine pin. `div` divides the sizes.
pub fn job_specs(div: usize) -> Vec<String> {
    let (n_list, n_graph) = ((1usize << 14) / div, (1usize << 11) / div);
    let mut specs = Vec::with_capacity(JOB_CELLS);
    for machine in ["mta", "smp"] {
        for p in [1, 2, 4, 8] {
            for kernel in ["fig1-random", "fig1-ordered"] {
                specs.push(format!(
                    r#"{{"kernel":"{kernel}","machine":"{machine}","p":{p},"n":{n_list}}}"#
                ));
            }
            specs.push(format!(
                r#"{{"kernel":"fig2","machine":"{machine}","p":{p},"n":{n_graph},"m":{}}}"#,
                5 * n_graph
            ));
        }
    }
    specs
}

/// The submit line for the job. The cheapest cell (Fig. 2 on the SMP at
/// p = 1) goes first, so that the first result line measures the serving
/// path and not whichever cell the seed put in front; `seed` orders the
/// other 23.
pub fn submit_line(seed: u64, div: usize) -> String {
    let mut specs = job_specs(div);
    let cheapest = specs
        .iter()
        .position(|s| s.contains(r#""fig2","machine":"smp","p":1,"#))
        .expect("the job has a fig2/smp/p1 cell");
    specs.swap(0, cheapest);
    let mut rng = Rng::new(seed);
    for i in (2..specs.len()).rev() {
        specs.swap(i, 1 + rng.below(i as u64) as usize);
    }
    format!(r#"{{"op":"submit","cells":[{}]}}"#, specs.join(","))
}

/// A daemon serving on a socket under `dir`, on its own thread.
pub struct Daemon {
    /// Where clients connect.
    pub endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    serving: Option<JoinHandle<&'static str>>,
}

impl Daemon {
    /// Start a daemon with `workers` workers over an empty cache in `dir`.
    pub fn start(dir: &Path, workers: usize) -> std::io::Result<Daemon> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let endpoint = Endpoint::Unix(dir.join("d.sock"));
        let cache = Cache::open(dir.join("cache"));
        let sched = Arc::new(Scheduler::new(
            workers,
            MAX_QUEUE,
            cache,
            archgraphd::sim_runner(),
        ));
        let listener = server::bind(&endpoint)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let serving = std::thread::Builder::new()
            .name("archperf-daemon".into())
            .spawn(move || server::serve(listener, sched, flag, None, None))?;
        Ok(Daemon {
            endpoint,
            stop,
            serving: Some(serving),
        })
    }

    /// One `ping` on a fresh connection; whether `pong` came back.
    pub fn ping(&self) -> bool {
        server::connect(&self.endpoint).is_ok_and(|mut conn| {
            conn.try_clone()
                .is_ok_and(|read_half| ping_on(&mut conn, &mut BufReader::new(read_half)))
        })
    }

    /// Ask the accept loop to stop, and wait until it has drained.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.serving.take() {
            let _ = h.join();
        }
    }
}

/// One `ping` on an open connection; whether `pong` came back.
pub fn ping_on(conn: &mut Conn, reader: &mut impl BufRead) -> bool {
    let mut line = String::new();
    writeln!(conn, r#"{{"op":"ping"}}"#).is_ok()
        && conn.flush().is_ok()
        && reader.read_line(&mut line).is_ok()
        && line.contains("pong")
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What one submit returned.
pub struct Reply {
    /// Connect (or, on an open connection, write) → `done`, seconds.
    pub secs: f64,
    /// Connect → first `cell` line, seconds.
    pub first_cell_s: f64,
    /// The raw `sim` object of each cell, by submit index.
    pub sims: Vec<String>,
    /// The name of each cell, by submit index.
    pub names: Vec<String>,
    /// Cells the daemon said it served from its cache.
    pub cached: usize,
    /// Lines carrying an error, a cancellation, or nothing parseable.
    pub bad: usize,
}

impl Reply {
    /// FNV-1a over the `name=sim` pairs in name order: one number that pins
    /// every simulated result of the job, whatever order it was served in.
    pub fn fingerprint(&self) -> u64 {
        let mut pairs: Vec<String> = self
            .names
            .iter()
            .zip(&self.sims)
            .map(|(n, s)| format!("{n}={s};"))
            .collect();
        pairs.sort();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in pairs.concat().bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Keep it exactly representable as a JSON number.
        h >> 12
    }
}

/// Send `line` on `conn` and read the job's stream up to its `done` line.
fn exchange(tr: &Tracer, mut conn: Conn, line: &str, t0: Instant) -> std::io::Result<Reply> {
    let reader = BufReader::new(conn.try_clone()?);
    tr.span("archperf.client_write", || {
        writeln!(conn, "{line}").and_then(|()| conn.flush())
    })?;
    let mut reply = Reply {
        secs: 0.0,
        first_cell_s: 0.0,
        sims: vec![String::new(); JOB_CELLS],
        names: vec![String::new(); JOB_CELLS],
        cached: 0,
        bad: 0,
    };
    let mut lines = reader.lines();
    let mut next = |what: &str| -> std::io::Result<String> {
        tr.span(what, || lines.next()).unwrap_or_else(|| {
            Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "the daemon closed the stream before `done`",
            ))
        })
    };
    let mut cells_seen = 0;
    loop {
        let text = next(if cells_seen == 0 {
            "archperf.client_first_line"
        } else {
            "archperf.client_next_line"
        })?;
        let Ok(v) = Json::parse(&text) else {
            reply.bad += 1;
            continue;
        };
        match v.get("type").and_then(Json::as_str) {
            Some("accepted") => {}
            Some("cell") => {
                if cells_seen == 0 {
                    reply.first_cell_s = t0.elapsed().as_secs_f64();
                }
                cells_seen += 1;
                let index = v.get("index").and_then(Json::as_u64).map(|i| i as usize);
                let sim = text
                    .find("\"sim\":")
                    .map(|at| &text[at + 6..text.len() - 1]);
                match (index, sim) {
                    (Some(i), Some(sim)) if i < JOB_CELLS && v.get("error").is_none() => {
                        reply.sims[i] = sim.to_string();
                        reply.names[i] = v.get("name").and_then(Json::as_str).unwrap_or("").into();
                        if v.get("cached") == Some(&Json::Bool(true)) {
                            reply.cached += 1;
                        }
                    }
                    _ => reply.bad += 1,
                }
            }
            Some("done") => {
                reply.secs = t0.elapsed().as_secs_f64();
                if v.get("ok").and_then(Json::as_u64) != Some(JOB_CELLS as u64) {
                    reply.bad += 1;
                }
                return Ok(reply);
            }
            _ => reply.bad += 1,
        }
    }
}

/// One submit on a fresh connection, timed from before the connect.
pub fn submit_fresh(tr: &Tracer, ep: &Endpoint, line: &str) -> std::io::Result<Reply> {
    tr.span("archperf.client_submit", || {
        let t0 = Instant::now();
        let conn = tr.span("archgraphd.server::connect", || server::connect(ep))?;
        exchange(tr, conn, line, t0)
    })
}

/// One submit on an already open connection, timed from the write.
pub fn submit_on(tr: &Tracer, conn: &Conn, line: &str) -> std::io::Result<Reply> {
    exchange(tr, conn.try_clone()?, line, Instant::now())
}

/// The workload: see the module documentation.
pub struct DaemonWorkload {
    dir: PathBuf,
    line: String,
    workers: usize,
    warm_submits: usize,
    /// Hits ÷ cells over every warm submit so far.
    pub warm_cells: (usize, usize),
}

impl DaemonWorkload {
    /// A workload whose daemons live under `dir` (which it may wipe).
    pub fn new(dir: PathBuf, seed: u64, div: usize, warm_submits: usize) -> DaemonWorkload {
        DaemonWorkload {
            dir,
            line: submit_line(seed, div),
            workers: THREADS,
            warm_submits,
            warm_cells: (0, 0),
        }
    }

    fn op(name: &str, reply: std::io::Result<Reply>, ok: impl Fn(&Reply) -> bool) -> (Op, f64) {
        let (secs, first, ok, fp) = match &reply {
            Ok(r) => (r.secs, r.first_cell_s, r.bad == 0 && ok(r), r.fingerprint()),
            Err(e) => {
                eprintln!("archperf: {name} submit failed: {e}");
                (0.0, 0.0, false, 0)
            }
        };
        // The cells run from the suite's fixed seeds, so a cold sweep's
        // results are the same whatever the benchmark's seed.
        let fp = if name == "cold" {
            vec![("sims_fnv", fp)]
        } else {
            vec![]
        };
        let out = Outcome::new(secs, JOB_CELLS as u64, ok, fp);
        let op = Op {
            name: name.to_string(),
            metric: "",
            out,
        };
        (op, first)
    }
}

impl DaemonWorkload {
    /// Run one round and verify every line the daemon streamed.
    pub fn pass(&mut self, tr: &Tracer) -> Pass {
        let mut daemon = Daemon::start(&self.dir, self.workers).expect("the daemon starts");
        // A client first checks that the daemon is up; this also leaves the
        // accept loop in the same phase of its poll at every cold submit.
        let up = daemon.ping();
        let cold = submit_fresh(tr, &daemon.endpoint, &self.line);
        let cold_sims = cold.as_ref().map(|r| r.sims.clone()).unwrap_or_default();
        let (cold_op, first_result_s) = Self::op("cold", cold, |r| up && r.cached == 0);
        let mut ops = vec![cold_op];
        for _ in 0..self.warm_submits {
            let warm = submit_fresh(tr, &daemon.endpoint, &self.line);
            if let Ok(r) = &warm {
                self.warm_cells.0 += r.cached;
                self.warm_cells.1 += JOB_CELLS;
            }
            // Every cell served from the cache, byte-equal to the cold run.
            ops.push(
                Self::op("warm", warm, |r| {
                    r.cached == JOB_CELLS && r.sims == cold_sims
                })
                .0,
            );
        }
        daemon.shutdown();
        Pass {
            ops,
            first_result_s,
        }
    }
}

impl Drop for DaemonWorkload {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraphd::protocol::{parse_request, Request};

    #[test]
    fn the_submit_line_parses_and_the_seed_only_reorders_it() {
        let parse = |seed| match parse_request(&submit_line(seed, 16)) {
            Ok(Request::Submit { cells, .. }) => cells,
            other => panic!("not a submit: {other:?}"),
        };
        let (a, b) = (parse(1), parse(2));
        assert_eq!(a.len(), JOB_CELLS);
        assert_ne!(a, b, "two seeds give two orders");
        assert_eq!(a, parse(1), "one seed gives one order");
        let key = |cells: &[archgraph_bench::CellSpec]| {
            let mut keys: Vec<String> = cells.iter().map(|c| c.cache_key()).collect();
            keys.sort();
            keys
        };
        assert_eq!(key(&a), key(&b), "the same cells either way");
        assert!(a.iter().all(|c| c.engine.is_none()), "no engine pins");
    }

    #[test]
    fn a_round_at_a_sixteenth_of_the_size_verifies() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("results/test-{}", std::process::id()));
        let mut w = DaemonWorkload::new(dir, 3, 16, 2);
        let pass = w.pass(&Tracer::new());
        assert_eq!(pass.ops.len(), 3);
        assert!(pass.ops.iter().all(|o| o.out.ok));
        assert!(pass.first_result_s > 0.0 && pass.first_result_s <= pass.ops[0].out.secs);
        assert_eq!(w.warm_cells, (2 * JOB_CELLS, 2 * JOB_CELLS));
    }
}
