//! Benchmark-regression driver: times a curated set of kernel/simulator
//! cells (host wall-clock, not simulated cycles) and writes the results
//! as JSON: by default the committed baseline `BENCH_archgraph.json` at
//! the repo root, which `tests/suite_golden.rs` holds the suite to.
//!
//! Each cell records two kinds of numbers:
//!
//! * `host_seconds` — the minimum over `--reps` timed repetitions (after
//!   one untimed warm-up). Minimum-of-reps is the standard noise filter
//!   for wall-clock microbenchmarks: interference only ever adds time.
//! * `sim` — exact integer fingerprints of the simulation itself
//!   (MTA: `cycles`, `issued`; SMP: `instructions`, `accesses`). These
//!   must match the baseline bit-for-bit on every host; any drift means
//!   the simulators changed behaviour, not just speed.
//!
//! Cells run serially (never through the rayon grid) so timings are not
//! polluted by sibling cells competing for cores.
//!
//! Each cell is panic-isolated (`sweep::isolate`): a cell that panics —
//! including a guardrail firing, since every simulation here runs under
//! the default `ARCHGRAPH_MAX_CYCLES` watchdog, so a regression that
//! *hangs* now dies in bounded time instead of timing out the CI runner —
//! records an `"error"` entry in the output JSON, the remaining cells
//! still run, and the driver exits nonzero. On a clean run the JSON is
//! byte-identical to what the pre-guardrail driver wrote.
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin bench [-- --out PATH] [--reps N]
//! ```

use std::time::Instant;

use archgraph_bench::cells::{bench_suite, json_escape, render_sim, Fingerprint};
use archgraph_bench::{signals, sweep};

/// Schema version written into the JSON; bump on any layout change.
const SCHEMA: u64 = 1;

/// Default output path — the committed baseline at the repo root.
const DEFAULT_OUT: &str = "BENCH_archgraph.json";

/// One cell: a stable name plus either the timed result (minimum
/// wall-clock seconds and the exact simulated-quantity fingerprint) or
/// the panic message that killed it.
struct CellResult {
    name: &'static str,
    outcome: Result<(f64, Fingerprint), String>,
}

/// Time `f` with one warm-up plus `reps` repetitions; keep the fastest.
/// The fingerprint must be identical across repetitions — the simulators
/// are deterministic, so any variation is a harness bug worth failing on.
/// Panics inside the cell (fingerprint drift, simulator guardrails, the
/// deliberate `ARCHGRAPH_BENCH_PANIC_CELL` hook) are isolated: the cell
/// records the failure and the rest of the suite still runs.
fn time_cell<F: Fn() -> Fingerprint>(name: &'static str, reps: usize, f: F) -> CellResult {
    let outcome = sweep::isolate(name, || {
        let fingerprint = f(); // warm-up (untimed)
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let fp = f();
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(
                fp, fingerprint,
                "{name}: simulation fingerprint varied across repetitions"
            );
        }
        (best, fingerprint)
    });
    match &outcome {
        Ok((best, fingerprint)) => eprintln!("  bench {name}: {best:.4} s  {fingerprint:?}"),
        Err(failure) => eprintln!("  bench {failure}"),
    }
    CellResult {
        name,
        outcome: outcome.map_err(|f| f.message),
    }
}

/// Time every cell of `cells::bench_suite` — the specs, entry point and
/// `sim` renderer `archgraphd` serves the same cells with.
fn run_cells(reps: usize) -> Vec<CellResult> {
    let mut out = Vec::new();
    for (name, spec) in bench_suite() {
        // A SIGTERM/SIGINT between cells exits promptly (nothing here is
        // checkpointed — the JSON is only written after a full suite).
        signals::exit_if_pending();
        out.push(time_cell(name, reps, || spec.run()));
    }
    out
}

/// Render the results as pretty-printed JSON. Hand-rolled on purpose: the
/// schema is tiny and the workspace has no JSON dependency to lean on.
/// Completed cells render exactly as before the guardrail layer existed
/// (the committed baseline must stay byte-identical); failed cells render
/// an `"error"` entry instead of `host_seconds`/`sim`.
fn to_json(cells: &[CellResult], reps: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {SCHEMA},\n"));
    out.push_str("  \"tool\": \"archgraph-bench\",\n");
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", c.name));
        match &c.outcome {
            Ok((host_seconds, sim)) => {
                out.push_str(&format!("      \"host_seconds\": {host_seconds:.6},\n"));
                out.push_str(&format!("      \"sim\": {}\n", render_sim(sim)));
            }
            Err(message) => {
                out.push_str(&format!("      \"error\": \"{}\"\n", json_escape(message)));
            }
        }
        out.push_str(if i + 1 < cells.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn main() {
    // Graceful SIGTERM/SIGINT: finish the in-progress cell, then exit at
    // the next cell boundary instead of dying mid-measurement.
    signals::install_graceful();
    let mut out_path = DEFAULT_OUT.to_string();
    let mut reps = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                })
            }
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&r| r >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("error: --reps requires a positive integer");
                        std::process::exit(2);
                    })
            }
            other => {
                eprintln!("error: unknown argument {other:?} (expected --out PATH, --reps N)");
                std::process::exit(2);
            }
        }
    }

    eprintln!("running bench cells ({reps} reps, min-of-reps)...");
    let cells = run_cells(reps);
    let json = to_json(&cells, reps);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {} cells to {out_path}", cells.len());

    let failed: Vec<&CellResult> = cells.iter().filter(|c| c.outcome.is_err()).collect();
    if !failed.is_empty() {
        eprintln!("bench: {} cell(s) failed:", failed.len());
        for c in &failed {
            if let Err(m) = &c.outcome {
                eprintln!("  {}: {m}", c.name);
            }
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_cell(name: &'static str) -> CellResult {
        CellResult {
            name,
            outcome: Ok((0.0123456, vec![("cycles", 100), ("issued", 42)])),
        }
    }

    /// Clean cells must render exactly the pre-guardrail schema — the
    /// committed `BENCH_archgraph.json` baseline is diffed byte-for-byte.
    #[test]
    fn clean_json_matches_the_legacy_schema() {
        let json = to_json(&[ok_cell("a/b"), ok_cell("c/d")], 3);
        let expected = "{\n  \"schema\": 1,\n  \"tool\": \"archgraph-bench\",\n  \"reps\": 3,\n  \"cells\": [\n    {\n      \"name\": \"a/b\",\n      \"host_seconds\": 0.012346,\n      \"sim\": { \"cycles\": 100, \"issued\": 42 }\n    },\n    {\n      \"name\": \"c/d\",\n      \"host_seconds\": 0.012346,\n      \"sim\": { \"cycles\": 100, \"issued\": 42 }\n    }\n  ]\n}\n";
        assert_eq!(json, expected);
    }

    #[test]
    fn failed_cells_render_an_error_entry() {
        let cells = [
            ok_cell("good"),
            CellResult {
                name: "bad",
                outcome: Err("deadlock at cycle 9:\n  stream \"0\"".to_string()),
            },
        ];
        let json = to_json(&cells, 1);
        assert!(json.contains("\"error\": \"deadlock at cycle 9:\\n  stream \\\"0\\\"\""));
        assert!(
            !json.contains("\"error\": \"deadlock at cycle 9:\n"),
            "newlines must be escaped"
        );
        assert!(
            json.contains("\"name\": \"good\""),
            "surviving cells still render"
        );
    }

    #[test]
    fn json_escape_handles_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    /// The deliberate-panic hook plus isolation: the named cell fails,
    /// the suite keeps going, and the failure carries the message.
    #[test]
    fn time_cell_isolates_panics() {
        let r = time_cell("unit/panics", 1, || panic!("cell exploded"));
        assert_eq!(r.outcome, Err("cell exploded".to_string()));
        let ok = time_cell("unit/fine", 1, || vec![("cycles", 7)]);
        match ok.outcome {
            Ok((_, fp)) => assert_eq!(fp, vec![("cycles", 7)]),
            Err(e) => panic!("clean cell failed: {e}"),
        }
    }
}
