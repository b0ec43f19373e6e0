//! `archgraphd` — the resident sweep daemon.
//!
//! ```text
//! archgraphd [--socket PATH | --tcp ADDR] [--jobs N] [--max-queue N]
//!            [--cache-dir DIR|off] [--cache-max-bytes N]
//!            [--idle-timeout-ms N] [--allow-remote --token SECRET]
//! ```
//!
//! Defaults: a Unix socket at `./archgraphd.sock`, 2 workers, a 64-cell
//! admission bound, and a persistent, unbounded result cache in
//! `./.archgraphd-cache` (`--cache-max-bytes` turns on LRU eviction).
//! TCP is loopback-only; a non-loopback bind requires both
//! `--allow-remote` and `--token`, after which every connection must
//! present the token as its first line. The daemon exits 0 on a clean
//! shutdown —
//! whether from a client's `shutdown` op or a SIGTERM/SIGINT graceful
//! drain (in-flight cells finish and are cached before exit, so a
//! restarted daemon resumes a killed sweep from the cache).

use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use archgraphd::cache::Cache;
use archgraphd::queue::Scheduler;
use archgraphd::server::{self, Endpoint, Security};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: archgraphd [--socket PATH | --tcp ADDR] [--jobs N] \
         [--max-queue N] [--cache-dir DIR|off] [--cache-max-bytes N] \
         [--idle-timeout-ms N] [--allow-remote --token SECRET]"
    );
    exit(2);
}

fn main() {
    // Graceful SIGTERM/SIGINT: the signal interrupts the accept loop's
    // wait, the loop reads the flag and drains the scheduler (flushing
    // the in-progress cell to the cache) instead of dying mid-simulation.
    archgraph_bench::signals::install_graceful();

    let mut endpoint = Endpoint::Unix(PathBuf::from("archgraphd.sock"));
    let mut jobs = 2usize;
    let mut max_queue = 64usize;
    let mut cache_dir = String::from(".archgraphd-cache");
    let mut cache_max_bytes: Option<u64> = None;
    let mut security = Security::default();
    let mut idle_timeout: Option<std::time::Duration> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--socket" => endpoint = Endpoint::Unix(PathBuf::from(value("--socket"))),
            "--tcp" => endpoint = Endpoint::Tcp(value("--tcp")),
            "--jobs" => {
                jobs = value("--jobs")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--jobs requires a positive integer"))
            }
            "--max-queue" => {
                max_queue = value("--max-queue")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--max-queue requires a positive integer"))
            }
            "--cache-dir" => cache_dir = value("--cache-dir"),
            "--cache-max-bytes" => {
                cache_max_bytes = Some(
                    value("--cache-max-bytes")
                        .parse()
                        .unwrap_or_else(|_| usage("--cache-max-bytes requires an integer")),
                )
            }
            "--idle-timeout-ms" => {
                idle_timeout = Some(std::time::Duration::from_millis(
                    value("--idle-timeout-ms")
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1u64)
                        .unwrap_or_else(|| usage("--idle-timeout-ms requires a positive integer")),
                ))
            }
            "--allow-remote" => security.allow_remote = true,
            "--token" => security.token = Some(value("--token")),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    let cache = if cache_dir == "off" || cache_dir.is_empty() {
        Cache::disabled()
    } else {
        Cache::open_bounded(PathBuf::from(&cache_dir), cache_max_bytes)
    };
    let caching = if cache.enabled() { &cache_dir } else { "off" };

    let sched = Arc::new(Scheduler::new(
        jobs,
        max_queue,
        cache,
        archgraphd::sim_runner(),
    ));
    let listener = server::bind_secured(&endpoint, &security).unwrap_or_else(|e| {
        eprintln!("archgraphd: cannot bind {}: {e}", endpoint.describe());
        exit(1);
    });
    eprintln!(
        "archgraphd: listening on {} ({jobs} workers, admission bound {max_queue} cells, cache {caching})",
        endpoint.describe()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let reason = server::serve(listener, sched, stop, security.token, idle_timeout);
    eprintln!("archgraphd: drained and shut down cleanly ({reason})");
}
