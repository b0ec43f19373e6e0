//! `archgraph-client` — thin CLI for talking to a running `archgraphd`.
//!
//! ```text
//! archgraph-client --socket PATH COMMAND [ARGS]
//!
//! commands:
//!   ping                      liveness probe
//!   status                    scheduler counters + cache footprint
//!   list                      bench suite with per-cell cache status
//!   shutdown                  ask the daemon to drain and exit
//!   cancel JOB                cancel a job by id (e.g. j3)
//!   submit CELL [CELL...]     run bench-suite cells by name
//!   submit-json JSON          run raw cell specs (an object or array)
//! ```
//!
//! Resubmitting after exit 3 is safe: results are content-addressed by
//! the full cell spec, so a cell that already ran replays from the cache
//! instead of recomputing, and a half-delivered job is simply streamed
//! again.
//!
//! Every protocol line the daemon sends is echoed verbatim to stdout, so
//! scripts can parse the stream directly. Exit status: 0 on success, 1
//! if the daemon reported an error or any submitted cell failed, 2 on
//! usage errors, 3 if the daemon is unreachable.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::exit;

use archgraphd::json::{escape, Json};
use archgraphd::server::{self, Endpoint};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: archgraph-client --socket PATH \
         (ping | status | list | shutdown | cancel JOB | submit CELL... | submit-json JSON)\n\
         resubmitted requests are idempotent: results are content-addressed \
         in the daemon's cache, so replays are served from it rather than \
         recomputed"
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
            if rest.is_empty() {
                usage("submit needs at least one bench cell name");
            }
            let cells: Vec<String> = rest
                .iter()
                .map(|name| format!(r#"{{"cell":"{}"}}"#, escape(name)))
                .collect();
            (
                format!(r#"{{"op":"submit","cells":[{}]}}"#, cells.join(",")),
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
    let (endpoint, cmd, rest) = match args.as_slice() {
        [flag, path, cmd, rest @ ..] if flag == "--socket" => {
            (Endpoint::Unix(PathBuf::from(path)), cmd, rest)
        }
        [flag, _] if flag == "--socket" => usage("missing command"),
        _ => usage("first arguments must be --socket PATH"),
    };
    let (request, streams) = build_request(cmd, rest);

    let conn = server::connect(&endpoint).unwrap_or_else(|e| {
        eprintln!(
            "error: cannot reach archgraphd at {}: {e}",
            endpoint.describe()
        );
        exit(3);
    });
    let reader = BufReader::new(conn.try_clone().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(3);
    }));
    let mut w = conn;
    if w.write_all(format!("{request}\n").as_bytes()).is_err() {
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
