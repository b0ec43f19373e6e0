//! `archgraph-client` — thin CLI for talking to a running `archgraphd`.
//!
//! ```text
//! archgraph-client (--socket PATH | --tcp ADDR) [--token SECRET]
//!                  [--connect-timeout-ms N] [--retries N] COMMAND [ARGS]
//!
//! commands:
//!   ping                      liveness probe
//!   status                    scheduler counters + cache footprint
//!   list                      bench suite with per-cell cache status
//!   shutdown                  ask the daemon to drain and exit
//!   cancel JOB                cancel a job by id (e.g. j3)
//!   submit [--budget-cycles N] [--budget-host-ms N] CELL [CELL...]
//!                             run bench-suite cells by name, optionally
//!                             metered by a job cycle budget and/or a
//!                             host wall-clock cap
//!   submit-json JSON          run raw cell specs (an object or array)
//! ```
//!
//! `--token` sends the bearer token as the connection's first line, as
//! required by a daemon started with `--token`.
//!
//! `--connect-timeout-ms` bounds each TCP dial attempt, and `--retries`
//! re-dials an unreachable daemon that many extra times with exponential
//! backoff (100 ms, 200 ms, 400 ms, ... capped at 5 s) — useful when a
//! script races daemon startup, or across a daemon restart. Retrying
//! (or resubmitting after exit 3) is safe: submissions are idempotent
//! by the cache contract — results are content-addressed by the full
//! cell spec, so a cell that already ran replays from the cache instead
//! of recomputing, and a half-delivered job is simply streamed again.
//!
//! Every protocol line the daemon sends is echoed verbatim to stdout, so
//! scripts can parse the stream directly. Exit status: 0 on success, 1
//! if the daemon reported an error or any submitted cell failed, 2 on
//! usage errors, 3 if the daemon is unreachable.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use archgraphd::json::{escape, Json};
use archgraphd::server::{self, Endpoint};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: archgraph-client (--socket PATH | --tcp ADDR) [--token SECRET] \
         [--connect-timeout-ms N] [--retries N] \
         (ping | status | list | shutdown | cancel JOB | \
         submit [--budget-cycles N] [--budget-host-ms N] CELL... | submit-json JSON)\n\
         retried/resubmitted requests are idempotent: results are \
         content-addressed in the daemon's cache, so replays are served \
         from it rather than recomputed"
    );
    exit(2);
}

/// Build the request line, and whether the reply is a job stream.
fn build_request(cmd: &str, rest: &[String]) -> (String, bool) {
    match cmd {
        "ping" | "status" | "shutdown" | "list" => {
            if !rest.is_empty() {
                usage(&format!("{cmd} takes no arguments"));
            }
            (format!(r#"{{"op":"{cmd}"}}"#), false)
        }
        "cancel" => match rest {
            [job] => (
                format!(r#"{{"op":"cancel","job":"{}"}}"#, escape(job)),
                false,
            ),
            _ => usage("cancel takes exactly one job id"),
        },
        "submit" => {
            let mut rest = rest;
            let mut budget = String::new();
            // Budget flags may appear in either order, before the cells.
            loop {
                let (flag, key) = match rest.first().map(String::as_str) {
                    Some("--budget-cycles") => ("--budget-cycles", "budget_cycles"),
                    Some("--budget-host-ms") => ("--budget-host-ms", "budget_host_ms"),
                    _ => break,
                };
                if rest.len() < 2 {
                    usage(&format!("{flag} requires a value"));
                }
                let n: u64 = rest[1]
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("{flag} requires an integer")));
                budget.push_str(&format!(r#","{key}":{n}"#));
                rest = &rest[2..];
            }
            if rest.is_empty() {
                usage("submit needs at least one bench cell name");
            }
            let cells: Vec<String> = rest
                .iter()
                .map(|name| format!(r#"{{"cell":"{}"}}"#, escape(name)))
                .collect();
            (
                format!(r#"{{"op":"submit","cells":[{}]{budget}}}"#, cells.join(",")),
                true,
            )
        }
        "submit-json" => match rest {
            [raw] => {
                // Parse client-side first for a prompt, local error.
                let parsed = Json::parse(raw)
                    .unwrap_or_else(|e| usage(&format!("submit-json argument: {e}")));
                let cells = match parsed {
                    Json::Arr(_) => raw.clone(),
                    Json::Obj(_) => format!("[{raw}]"),
                    _ => usage("submit-json takes a spec object or an array of them"),
                };
                (format!(r#"{{"op":"submit","cells":{cells}}}"#), true)
            }
            _ => usage("submit-json takes exactly one JSON argument"),
        },
        other => usage(&format!("unknown command {other:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let endpoint = match (it.next().map(String::as_str), it.next()) {
        (Some("--socket"), Some(p)) => Endpoint::Unix(PathBuf::from(p)),
        (Some("--tcp"), Some(a)) => Endpoint::Tcp(a.clone()),
        _ => usage("first arguments must be --socket PATH or --tcp ADDR"),
    };
    let mut token: Option<String> = None;
    let mut connect_timeout: Option<Duration> = None;
    let mut retries = 0u32;
    // Connection flags may appear in any order, before the command.
    let cmd = loop {
        let a = it.next().unwrap_or_else(|| usage("missing command"));
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--token" => token = Some(value("--token").clone()),
            "--connect-timeout-ms" => {
                connect_timeout = Some(Duration::from_millis(
                    value("--connect-timeout-ms")
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1u64)
                        .unwrap_or_else(|| {
                            usage("--connect-timeout-ms requires a positive integer")
                        }),
                ))
            }
            "--retries" => {
                retries = value("--retries")
                    .parse()
                    .unwrap_or_else(|_| usage("--retries requires an integer"))
            }
            _ => break a,
        }
    };
    let rest: Vec<String> = it.cloned().collect();
    let (request, streams) = build_request(cmd, &rest);

    // Dial, re-dialing unreachable daemons with exponential backoff.
    // Retrying is safe even around a `submit`: the connection either
    // failed before the request was sent, or the whole job replays from
    // the daemon's content-addressed cache.
    let mut attempt = 0u32;
    let conn = loop {
        match server::connect_with(&endpoint, connect_timeout) {
            Ok(c) => break c,
            Err(e) if attempt < retries => {
                let backoff_ms = 100u64.saturating_mul(1 << attempt.min(16)).min(5_000);
                attempt += 1;
                eprintln!(
                    "warning: cannot reach archgraphd at {}: {e}; retry {attempt}/{retries} in {backoff_ms} ms",
                    endpoint.describe()
                );
                std::thread::sleep(Duration::from_millis(backoff_ms));
            }
            Err(e) => {
                eprintln!(
                    "error: cannot reach archgraphd at {}: {e}",
                    endpoint.describe()
                );
                exit(3);
            }
        }
    };
    let reader = BufReader::new(match conn.try_clone() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            exit(3);
        }
    });
    let mut w = conn;
    // A token-gated daemon expects the bearer token as the first line.
    // Token and request leave in one write: as two small ones, the
    // second would wait on TCP for the daemon's delayed ACK of the first.
    let mut outgoing = String::new();
    if let Some(t) = &token {
        outgoing.push_str(t);
        outgoing.push('\n');
    }
    outgoing.push_str(&request);
    outgoing.push('\n');
    if w.write_all(outgoing.as_bytes()).is_err() {
        eprintln!("error: connection lost while sending the request");
        exit(3);
    }

    let mut status = 0;
    for line in reader.lines() {
        let Ok(line) = line else {
            eprintln!("error: connection lost mid-reply");
            exit(3);
        };
        println!("{line}");
        let parsed = match Json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: unparseable reply from daemon: {e}");
                exit(1);
            }
        };
        match parsed.get("type").and_then(Json::as_str) {
            Some("error") => exit(1),
            Some("done") => {
                let failed = parsed.get("failed").and_then(Json::as_u64).unwrap_or(0);
                exit(if failed > 0 { 1 } else { 0 });
            }
            Some("cell") if parsed.get("error").is_some() => status = 1,
            _ => {}
        }
        if !streams {
            exit(status);
        }
    }
    // A stream that ends without `done` (daemon drained mid-job).
    eprintln!("error: reply stream ended early");
    exit(if status == 0 { 3 } else { status });
}
