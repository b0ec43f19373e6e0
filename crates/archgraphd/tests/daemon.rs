//! End-to-end daemon tests: real `archgraphd` processes, real Unix
//! sockets, real kills.
//!
//! Covers the durability story the unit tests cannot: SIGTERM mid-job
//! flushes the in-progress cell to the content-addressed cache, and a
//! restarted daemon serves the killed sweep's completed cells with
//! fingerprints identical to an uninterrupted run; a poisoned cell
//! (`ARCHGRAPH_BENCH_PANIC_CELL`) surfaces as a structured error while
//! the rest of the grid — and the daemon — keep going; the whole bench
//! suite, served cold and cached, renders the `sim` text of
//! `BENCH_archgraph.json` byte for byte.
//!
//! Apart from that suite, cells are tiny structured specs (color, p=2,
//! n≈128) so the whole file stays fast in debug builds. Assertions are
//! written to hold under any worker/signal interleaving.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use archgraph_bench::cells::{CellSpec, Kernel, MachineKind};
use archgraphd::json::Json;

const DAEMON: &str = env!("CARGO_BIN_EXE_archgraphd");
const CLIENT: &str = env!("CARGO_BIN_EXE_archgraph-client");
const BASELINE: &str = include_str!("../../../BENCH_archgraph.json");

/// Kill-on-drop guard so a failing test never leaks a daemon process.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn temp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("archgraphd-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp root");
    dir
}

fn start_daemon(root: &Path, jobs: usize, extra_env: &[(&str, &str)]) -> Daemon {
    let socket = root.join("archgraphd.sock");
    let mut cmd = Command::new(DAEMON);
    cmd.args([
        "--socket",
        socket.to_str().unwrap(),
        "--jobs",
        &jobs.to_string(),
        "--cache-dir",
        root.join("cache").to_str().unwrap(),
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::null())
    // A served cell runs under its spec alone: the daemon reads neither
    // run knob, so a plan and a one-cycle budget here change nothing.
    .env("ARCHGRAPH_FAULTS", "stall=30,stall-period=300:7")
    .env("ARCHGRAPH_MAX_CYCLES", "1")
    .env_remove("ARCHGRAPH_BENCH_PANIC_CELL");
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let child = cmd.spawn().expect("spawn archgraphd");
    let daemon = Daemon { child, socket };
    // Readiness: the socket file appears once the listener is bound.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !daemon.socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon
}

fn dial(daemon: &Daemon) -> (BufReader<UnixStream>, UnixStream) {
    let stream = UnixStream::connect(&daemon.socket).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    (
        BufReader::new(stream.try_clone().expect("clone stream")),
        stream,
    )
}

/// One request line in one write: `writeln!` on the bare socket would
/// send the newline separately, after the daemon may already have acted
/// on (and closed after) an earlier line of the same send.
fn send(w: &mut UnixStream, line: &str) {
    w.write_all(format!("{line}\n").as_bytes())
        .expect("send request");
}

fn recv_line(r: &mut BufReader<UnixStream>) -> String {
    let mut line = String::new();
    r.read_line(&mut line).expect("read reply line");
    assert!(!line.is_empty(), "daemon closed the stream unexpectedly");
    line.truncate(line.trim_end().len());
    line
}

fn parse(line: &str) -> Json {
    Json::parse(line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
}

fn recv(r: &mut BufReader<UnixStream>) -> Json {
    parse(&recv_line(r))
}

fn spec(n: usize) -> CellSpec {
    let mut s = CellSpec::new(Kernel::Color, MachineKind::Mta, 2);
    s.n = n;
    s.m = 3 * n;
    s
}

fn submit_line(ns: &[usize]) -> String {
    let specs: Vec<CellSpec> = ns.iter().map(|&n| spec(n)).collect();
    submit_specs(&specs)
}

/// A submit of color specs shaped like [`spec`]'s, each with its plan.
fn submit_specs(specs: &[CellSpec]) -> String {
    let cells: Vec<String> = specs
        .iter()
        .map(|s| {
            let faults = s
                .faults
                .as_ref()
                .map_or(String::new(), |f| format!(r#","faults":"{f}""#));
            format!(
                r#"{{"kernel":"color","machine":"mta","p":2,"n":{},"m":{}{faults}}}"#,
                s.n, s.m
            )
        })
        .collect();
    format!(r#"{{"op":"submit","cells":[{}]}}"#, cells.join(","))
}

/// The reference fingerprint, computed in-process: what the daemon's
/// streamed `sim` object must match exactly.
fn reference_sim(n: usize) -> Vec<(String, u64)> {
    sim_of(&spec(n))
}

fn sim_of(spec: &CellSpec) -> Vec<(String, u64)> {
    spec.run()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn sim_pairs(cell: &Json) -> Vec<(String, u64)> {
    cell.get("sim")
        .and_then(Json::as_obj)
        .expect("cell has a sim object")
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().expect("integer sim value")))
        .collect()
}

/// Collect one job's streamed events: the accepted line, every cell
/// line, and the done line.
fn run_job(daemon: &Daemon, request: &str) -> (Vec<Json>, Json) {
    let (lines, done) = run_job_lines(daemon, request);
    (lines.iter().map(|l| parse(l)).collect(), done)
}

/// [`run_job`], keeping each cell line as the daemon wrote it.
fn run_job_lines(daemon: &Daemon, request: &str) -> (Vec<String>, Json) {
    let (mut r, mut w) = dial(daemon);
    send(&mut w, request);
    let accepted = recv(&mut r);
    assert_eq!(
        accepted.get("type").and_then(Json::as_str),
        Some("accepted"),
        "{accepted:?}"
    );
    let mut cells = Vec::new();
    loop {
        let line = recv_line(&mut r);
        let ev = parse(&line);
        match ev.get("type").and_then(Json::as_str) {
            Some("cell") => cells.push(line),
            Some("done") => return (cells, ev),
            other => panic!("unexpected stream event {other:?}: {ev:?}"),
        }
    }
}

/// A real SIGTERM: `Child::kill` sends SIGKILL, so go through kill(1).
fn sigterm(daemon: &Daemon) {
    let killed = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success());
}

fn shutdown_and_reap(mut daemon: Daemon) {
    let (mut r, mut w) = dial(&daemon);
    send(&mut w, r#"{"op":"shutdown"}"#);
    let bye = recv(&mut r);
    assert_eq!(bye.get("type").and_then(Json::as_str), Some("bye"));
    // Reaping here makes the Drop guard's kill a no-op.
    let status = daemon.child.wait().expect("wait for daemon exit");
    assert!(status.success(), "clean shutdown must exit 0, got {status}");
    assert!(
        !daemon.socket.exists(),
        "shutdown must remove the socket file"
    );
}

#[test]
fn submit_streams_results_then_caches_then_shuts_down_cleanly() {
    let root = temp_root("roundtrip");
    let daemon = start_daemon(&root, 2, &[]);

    // Fresh run: both cells simulated, fingerprints match in-process runs.
    let (cells, done) = run_job(&daemon, &submit_line(&[128, 160]));
    assert_eq!(cells.len(), 2);
    for cell in &cells {
        assert_eq!(cell.get("cached"), Some(&Json::Bool(false)));
        let n = if cell.get("index").and_then(Json::as_u64) == Some(0) {
            128
        } else {
            160
        };
        assert_eq!(
            sim_pairs(cell),
            reference_sim(n),
            "daemon-served fingerprints must equal direct execution"
        );
    }
    assert_eq!(done.get("ok").and_then(Json::as_u64), Some(2));
    assert_eq!(done.get("cached").and_then(Json::as_u64), Some(0));

    // Resubmit: served from the content-addressed cache, same values.
    let (cells, done) = run_job(&daemon, &submit_line(&[128, 160]));
    for cell in &cells {
        assert_eq!(cell.get("cached"), Some(&Json::Bool(true)), "{cell:?}");
    }
    assert_eq!(done.get("cached").and_then(Json::as_u64), Some(2));

    // An engine-pinned variant of the same experiment is the same cell:
    // determinism makes the cache key engine-independent.
    let pinned = r#"{"op":"submit","cells":[{"kernel":"color","machine":"mta","engine":"compiled","p":2,"n":128,"m":384}]}"#;
    let (cells, _) = run_job(&daemon, pinned);
    assert_eq!(cells[0].get("cached"), Some(&Json::Bool(true)));
    assert_eq!(sim_pairs(&cells[0]), reference_sim(128));

    // Malformed input is a structured reject that keeps the connection.
    let (mut r, mut w) = dial(&daemon);
    send(&mut w, "this is not json");
    let err = recv(&mut r);
    assert_eq!(err.get("type").and_then(Json::as_str), Some("error"));
    send(
        &mut w,
        r#"{"op":"submit","cells":[{"cell":"no/such/cell"}]}"#,
    );
    let err = recv(&mut r);
    assert_eq!(err.get("type").and_then(Json::as_str), Some("error"));
    send(&mut w, r#"{"op":"ping"}"#);
    assert_eq!(
        recv(&mut r).get("type").and_then(Json::as_str),
        Some("pong")
    );

    shutdown_and_reap(daemon);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn sigterm_mid_job_flushes_the_cache_and_resume_is_identical() {
    let root = temp_root("killresume");
    // The first cell runs under a fault plan, so the cell that must come
    // back from the cache is a faulted one.
    let mut specs: Vec<CellSpec> = [128, 144, 160, 176].map(spec).into();
    specs[0].faults = Some("stall=30,stall-period=300:7".into());
    let daemon = start_daemon(&root, 1, &[]);

    // Stream the job; after the first completed cell arrives, SIGTERM the
    // daemon mid-sweep. (The first cell is durably cached before its
    // result line is sent, so at least that much must survive.)
    let (mut r, mut w) = dial(&daemon);
    send(&mut w, &submit_specs(&specs));
    let accepted = recv(&mut r);
    assert_eq!(
        accepted.get("type").and_then(Json::as_str),
        Some("accepted")
    );
    let first = recv(&mut r);
    assert_eq!(first.get("type").and_then(Json::as_str), Some("cell"));
    let first_sim = sim_pairs(&first);

    sigterm(&daemon);

    // The drain streams whatever it can (completed or cancelled cells,
    // ideally the done line) and the daemon exits cleanly.
    let mut drained = Vec::new();
    loop {
        let mut line = String::new();
        match r.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                let ev = Json::parse(line.trim_end()).expect("drain lines stay well-formed");
                let done = ev.get("type").and_then(Json::as_str) == Some("done");
                drained.push(ev);
                if done {
                    break;
                }
            }
        }
    }
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("wait for killed daemon");
    assert!(
        status.success(),
        "graceful SIGTERM drain must exit 0, got {status}"
    );
    assert!(!daemon.socket.exists(), "the drain removes the socket file");
    drop(daemon);
    for ev in &drained {
        if ev.get("type").and_then(Json::as_str) == Some("cell") {
            assert!(
                ev.get("error").is_none(),
                "a drain must cancel, not fail, unfinished cells: {ev:?}"
            );
        }
    }

    // Restart on the same socket path (stale file reclaim) and cache dir;
    // the resumed sweep completes with byte-identical fingerprints, and
    // the cells that finished before the kill are served from the cache.
    let daemon = start_daemon(&root, 1, &[]);
    let (cells, done) = run_job(&daemon, &submit_specs(&specs));
    assert_eq!(cells.len(), specs.len());
    assert_eq!(
        done.get("ok").and_then(Json::as_u64),
        Some(specs.len() as u64)
    );
    assert_eq!(done.get("failed").and_then(Json::as_u64), Some(0));
    let cached = done.get("cached").and_then(Json::as_u64).unwrap();
    assert!(
        cached >= 1,
        "the pre-kill cell must resume from the cache, got cached={cached}"
    );
    for cell in &cells {
        let idx = cell.get("index").and_then(Json::as_u64).unwrap() as usize;
        assert_eq!(
            sim_pairs(cell),
            sim_of(&specs[idx]),
            "resumed fingerprints must match an uninterrupted run"
        );
    }
    assert_eq!(sim_pairs(&cells[0]), first_sim, "pre-kill result unchanged");
    assert_eq!(cells[0].get("cached"), Some(&Json::Bool(true)));

    shutdown_and_reap(daemon);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn sigterm_on_an_idle_daemon_exits_zero_within_a_second() {
    let root = temp_root("idleterm");
    let mut daemon = start_daemon(&root, 1, &[]);
    // One served request first, so the accept loop is parked in its
    // wait — not still starting up — when the signal lands.
    let (mut r, mut w) = dial(&daemon);
    send(&mut w, r#"{"op":"ping"}"#);
    assert_eq!(
        recv(&mut r).get("type").and_then(Json::as_str),
        Some("pong")
    );
    drop((r, w));

    let t0 = Instant::now();
    sigterm(&daemon);
    let status = daemon.child.wait().expect("wait for the daemon");
    let took = t0.elapsed();
    assert!(
        status.success(),
        "an idle SIGTERM drain exits 0, got {status}"
    );
    assert!(took < Duration::from_secs(1), "exit took {took:?}");
    assert!(!daemon.socket.exists(), "the drain removes the socket file");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_shutdown_op_mid_stream_delivers_every_cancelled_line_and_done_before_eof() {
    let root = temp_root("opdrain");
    let mut daemon = start_daemon(&root, 1, &[]);
    // One worker and far more work than fits before the accept loop
    // re-reads its stop flag: most of the job is still queued when the
    // drain begins, and must come back as cancelled lines.
    let sizes: Vec<usize> = (0..48).map(|i| 512 + 16 * i).collect();

    let (mut r, mut w) = dial(&daemon);
    send(&mut w, &submit_line(&sizes));
    let accepted = recv(&mut r);
    assert_eq!(
        accepted.get("type").and_then(Json::as_str),
        Some("accepted")
    );
    let mut events = vec![recv(&mut r)];
    assert_eq!(events[0].get("type").and_then(Json::as_str), Some("cell"));

    // Another client asks for shutdown while this job is mid-stream.
    let (mut r2, mut w2) = dial(&daemon);
    send(&mut w2, r#"{"op":"shutdown"}"#);
    assert_eq!(
        recv(&mut r2).get("type").and_then(Json::as_str),
        Some("bye")
    );

    // Read to EOF: the daemon exits when the drain is over, and nothing
    // of the reply may still be unwritten then.
    loop {
        let mut line = String::new();
        match r.read_line(&mut line).expect("read the drain") {
            0 => break,
            _ => events.push(Json::parse(line.trim_end()).expect("well-formed drain line")),
        }
    }
    let status = daemon.child.wait().expect("wait for the daemon");
    assert!(status.success(), "clean shutdown must exit 0, got {status}");

    let done = events.pop().expect("a last line");
    assert_eq!(
        done.get("type").and_then(Json::as_str),
        Some("done"),
        "the stream ends with its done line, then EOF: {done:?}"
    );
    let mut seen = vec![false; sizes.len()];
    let mut cancelled = 0;
    for ev in &events {
        assert_eq!(ev.get("type").and_then(Json::as_str), Some("cell"));
        assert!(
            ev.get("error").is_none(),
            "a drain cancels, never fails: {ev:?}"
        );
        let idx = ev.get("index").and_then(Json::as_u64).unwrap() as usize;
        assert!(!std::mem::replace(&mut seen[idx], true), "cell {idx} twice");
        if ev.get("cancelled") == Some(&Json::Bool(true)) {
            cancelled += 1;
        } else {
            assert_eq!(sim_pairs(ev), reference_sim(sizes[idx]));
        }
    }
    assert!(seen.iter().all(|&s| s), "every cell has its line: {seen:?}");
    assert!(cancelled >= 1, "the drain began with cells still queued");
    assert_eq!(
        done.get("cancelled").and_then(Json::as_u64),
        Some(cancelled)
    );
    assert_eq!(
        done.get("ok").and_then(Json::as_u64),
        Some(sizes.len() as u64 - cancelled)
    );
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_poisoned_cell_fails_structurally_and_the_grid_survives() {
    let root = temp_root("poison");
    // Poison the middle cell by its display name (the canonical spec
    // string, since these structured specs are off the bench suite).
    let poisoned = spec(144).display_name();
    let daemon = start_daemon(
        &root,
        1,
        &[("ARCHGRAPH_BENCH_PANIC_CELL", poisoned.as_str())],
    );

    let (cells, done) = run_job(&daemon, &submit_line(&[128, 144, 160]));
    assert_eq!(cells.len(), 3, "the grid finishes around the poisoned cell");
    for cell in &cells {
        let idx = cell.get("index").and_then(Json::as_u64).unwrap();
        if idx == 1 {
            let msg = cell
                .get("error")
                .and_then(Json::as_str)
                .expect("poisoned cell carries a structured error");
            assert!(msg.contains("deliberate panic"), "{msg}");
        } else {
            assert_eq!(cell.get("cached"), Some(&Json::Bool(false)));
            assert!(cell.get("sim").is_some());
        }
    }
    assert_eq!(done.get("ok").and_then(Json::as_u64), Some(2));
    assert_eq!(done.get("failed").and_then(Json::as_u64), Some(1));

    // The daemon survived the panic; failures were not cached, so the
    // poisoned cell re-runs (and fails again), while its neighbours hit.
    let (cells, done) = run_job(&daemon, &submit_line(&[128, 144, 160]));
    assert_eq!(done.get("failed").and_then(Json::as_u64), Some(1));
    assert_eq!(done.get("cached").and_then(Json::as_u64), Some(2));
    assert!(
        cells.iter().any(|c| c.get("error").is_some()),
        "failure repeats, never cached"
    );

    shutdown_and_reap(daemon);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn list_and_the_suite_served_cold_then_cached_match_the_baseline() {
    let root = temp_root("suite");
    let daemon = start_daemon(&root, 1, &[]);

    // `list` enumerates the bench suite with cache status (cold here).
    let (mut r, mut w) = dial(&daemon);
    send(&mut w, r#"{"op":"list"}"#);
    let list = recv(&mut r);
    assert_eq!(list.get("type").and_then(Json::as_str), Some("list"));
    let cells = list.get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(
        cells.len(),
        archgraph_bench::cells::bench_suite().len(),
        "the whole suite is listed"
    );
    assert!(cells
        .iter()
        .any(|c| c.get("name").and_then(Json::as_str) == Some("fig2/mta/p8")));
    for c in cells {
        assert_eq!(c.get("cached"), Some(&Json::Bool(false)), "cold: {c:?}");
        assert!(c.get("key").and_then(Json::as_str).is_some());
    }

    // Every baseline cell, served cold and then from the cache: each line's
    // `sim` text is the committed baseline's, byte for byte.
    let field = |key| {
        BASELINE
            .lines()
            .filter_map(move |l| l.trim().strip_prefix(key))
    };
    let names = field(r#""name": ""#).map(|n| n.trim_end_matches("\","));
    let baseline: Vec<(&str, &str)> = names.zip(field(r#""sim": "#)).collect();
    assert_eq!(baseline.len(), cells.len(), "the baseline is the suite");
    let refs: Vec<String> = baseline
        .iter()
        .map(|(name, _)| format!(r#"{{"cell":"{name}"}}"#))
        .collect();
    let suite = format!(r#"{{"op":"submit","cells":[{}]}}"#, refs.join(","));
    for cached in [false, true] {
        let (lines, _) = run_job_lines(&daemon, &suite);
        assert_eq!(lines.len(), baseline.len());
        for line in &lines {
            let ev = parse(line);
            let (name, sim) = baseline[ev.get("index").and_then(Json::as_u64).unwrap() as usize];
            assert_eq!(ev.get("cached"), Some(&Json::Bool(cached)), "{name}");
            let served = line
                .strip_suffix('}')
                .and_then(|l| l.split_once(r#""sim":"#));
            assert_eq!(served.map(|(_, s)| s), Some(sim), "{name}: the sim text");
        }
    }
    send(&mut w, r#"{"op":"list"}"#);
    let warm = recv(&mut r);
    for c in warm.get("cells").and_then(Json::as_arr).expect("cells") {
        assert_eq!(c.get("cached"), Some(&Json::Bool(true)), "warm: {c:?}");
    }

    shutdown_and_reap(daemon);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn removed_daemon_flags_exit_2_with_the_usage_and_no_socket() {
    let root = temp_root("removed-flags");
    let socket = root.join("archgraphd.sock");
    for removed in [
        &["--tcp", "127.0.0.1:0"][..],
        &["--token", "s3cret"],
        &["--allow-remote"],
        &["--idle-timeout-ms", "300"],
        &["--cache-max-bytes", "10"],
    ] {
        let out = Command::new(DAEMON)
            .args(["--socket", socket.to_str().unwrap()])
            .args(["--cache-dir", root.join("cache").to_str().unwrap()])
            .args(removed)
            .output()
            .expect("run the daemon");
        assert_eq!(out.status.code(), Some(2), "{removed:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: archgraphd"), "{removed:?}: {err}");
        assert!(!socket.exists(), "{removed:?} left a socket behind");
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_superseded_daemon_does_not_unlink_its_successors_live_socket() {
    let root = temp_root("sockrace");
    let daemon_a = start_daemon(&root, 1, &[]);

    // Simulate A losing the reclaim race: its socket file vanishes and a
    // second daemon takes over the same path.
    std::fs::remove_file(&daemon_a.socket).expect("remove A's socket file");
    let daemon_b = start_daemon(&root, 1, &[]);
    assert_eq!(daemon_a.socket, daemon_b.socket);

    // A drains via SIGTERM; its shutdown must not delete B's socket.
    sigterm(&daemon_a);
    let mut daemon_a = daemon_a;
    let status = daemon_a.child.wait().expect("wait for daemon A");
    assert!(status.success(), "A's graceful drain exits 0, got {status}");
    drop(daemon_a);

    assert!(
        daemon_b.socket.exists(),
        "the superseded daemon deleted its successor's live socket"
    );
    // And B still answers on it.
    let (mut r, mut w) = dial(&daemon_b);
    send(&mut w, r#"{"op":"ping"}"#);
    assert_eq!(
        recv(&mut r).get("type").and_then(Json::as_str),
        Some("pong")
    );
    shutdown_and_reap(daemon_b);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_deeply_nested_line_is_a_parse_error_and_the_daemon_keeps_serving() {
    let root = temp_root("deep");
    let daemon = start_daemon(&root, 1, &[]);

    // One recursion per bracket overflowed the handler's stack and took
    // the whole process down with it (SIGABRT), socket file left behind.
    let (mut r, mut w) = dial(&daemon);
    send(&mut w, &"[".repeat(10_000));
    let err = recv(&mut r);
    assert_eq!(err.get("type").and_then(Json::as_str), Some("error"));
    let message = err.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("nesting deeper than 64"), "{message}");

    // Same connection, same daemon.
    send(&mut w, r#"{"op":"ping"}"#);
    let pong = recv(&mut r);
    assert_eq!(pong.get("type").and_then(Json::as_str), Some("pong"));

    shutdown_and_reap(daemon);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_warm_resubmit_streams_in_submit_order_with_the_cold_bytes() {
    let root = temp_root("warm-order");
    // Four workers finish a cold job in whatever order they finish it; the
    // warm job is answered at admission, so its order is the submit order.
    let daemon = start_daemon(&root, 4, &[]);
    let sizes = [128usize, 136, 144, 152, 160, 168, 176, 184];
    let request = submit_line(&sizes);
    let (mut cold, cold_done) = run_job_lines(&daemon, &request);
    let (warm, warm_done) = run_job_lines(&daemon, &request);
    let index = |line: &String| parse(line).get("index").and_then(Json::as_u64);
    assert_eq!(
        warm.iter().map(index).collect::<Vec<_>>(),
        (0..sizes.len() as u64).map(Some).collect::<Vec<_>>(),
        "warm lines in submit-index order"
    );
    cold.sort_by_key(index);
    for (cold, warm) in cold.iter().zip(&warm) {
        let same = cold.replacen(r#""job":"j1""#, r#""job":"j2""#, 1).replacen(
            r#""cached":false"#,
            r#""cached":true"#,
            1,
        );
        assert_eq!(warm, &same, "the cold line but for the job and the flag");
    }
    let count = |done: &Json, key| done.get(key).and_then(Json::as_u64);
    assert_eq!(count(&cold_done, "cached"), Some(0));
    assert_eq!(count(&warm_done, "cached"), Some(sizes.len() as u64));
    assert_eq!(count(&warm_done, "ok"), Some(sizes.len() as u64));

    shutdown_and_reap(daemon);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn the_client_cli_round_trips_the_protocol() {
    let root = temp_root("client");
    let daemon = start_daemon(&root, 1, &[]);
    let sock = daemon.socket.to_str().unwrap().to_string();

    let ping = Command::new(CLIENT)
        .args(["--socket", &sock, "ping"])
        .output()
        .expect("run client ping");
    assert!(ping.status.success(), "{ping:?}");
    assert!(String::from_utf8_lossy(&ping.stdout).contains(r#""type":"pong""#));

    let submit = Command::new(CLIENT)
        .args([
            "--socket",
            &sock,
            "submit-json",
            r#"{"kernel":"color","machine":"mta","p":2,"n":128,"m":384}"#,
        ])
        .output()
        .expect("run client submit-json");
    assert!(submit.status.success(), "{submit:?}");
    let out = String::from_utf8_lossy(&submit.stdout);
    assert!(out.contains(r#""type":"accepted""#), "{out}");
    assert!(out.contains(r#""type":"cell""#), "{out}");
    assert!(out.contains(r#""type":"done""#), "{out}");

    // Unknown cells are a protocol error -> client exits 1.
    let bad = Command::new(CLIENT)
        .args(["--socket", &sock, "submit", "no/such/cell"])
        .output()
        .expect("run client bad submit");
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");

    // An unreachable daemon is exit 3.
    let gone = Command::new(CLIENT)
        .args(["--socket", root.join("nope.sock").to_str().unwrap(), "ping"])
        .output()
        .expect("run client against nothing");
    assert_eq!(gone.status.code(), Some(3), "{gone:?}");

    // Shutdown through the client; the daemon exits 0 and removes its
    // socket.
    let bye = Command::new(CLIENT)
        .args(["--socket", &sock, "shutdown"])
        .output()
        .expect("run client shutdown");
    assert!(bye.status.success(), "{bye:?}");
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("daemon exit");
    assert!(status.success(), "{status}");
    assert!(!daemon.socket.exists());
    drop(daemon);
    let _ = std::fs::remove_dir_all(root);
}
