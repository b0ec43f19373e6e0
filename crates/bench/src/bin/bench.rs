//! Baseline writer: runs every cell of the bench suite once and writes
//! its simulated fingerprints as JSON: by default the committed baseline
//! `BENCH_archgraph.json` at the repo root, which `tests/suite_golden.rs`
//! and `crates/archgraphd/tests/daemon.rs` hold the suite to.
//!
//! Each cell records `sim`, the exact integer fingerprint of the
//! simulation (MTA: `cycles`, `issued`; SMP: `instructions`, `accesses`).
//! It matches bit for bit on every host, so the file is a function of the
//! code alone: rewriting it leaves no diff unless a fingerprint moved. The
//! driver times nothing; host time is the `benchmarks/` package's.
//!
//! Each cell is panic-isolated (`sweep::isolate`): a cell that panics —
//! including a guardrail firing, since every simulation here runs under
//! the default `ARCHGRAPH_MAX_CYCLES` watchdog, so a regression that
//! *hangs* dies in bounded time — records an `"error"` entry in the
//! output JSON, the remaining cells still run, and the driver exits
//! nonzero.
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin bench [-- --out PATH]
//! ```

use archgraph_bench::cells::{bench_suite, json_escape, render_sim, Fingerprint};
use archgraph_bench::{signals, sweep};

/// Schema version written into the JSON; bump on any layout change.
const SCHEMA: u64 = 2;

/// Default output path — the committed baseline at the repo root.
const DEFAULT_OUT: &str = "BENCH_archgraph.json";

/// One cell: a stable name plus either its simulated fingerprint or the
/// panic message that killed it.
struct CellResult {
    name: &'static str,
    outcome: Result<Fingerprint, String>,
}

/// Run one cell once. Panics inside the cell (simulator guardrails, the
/// deliberate `ARCHGRAPH_BENCH_PANIC_CELL` hook) are isolated: the cell
/// records the failure and the rest of the suite still runs.
fn run_cell<F: FnOnce() -> Fingerprint>(name: &'static str, f: F) -> CellResult {
    let outcome = sweep::isolate(name, f);
    match &outcome {
        Ok(fingerprint) => eprintln!("  bench {name}: {fingerprint:?}"),
        Err(failure) => eprintln!("  bench {failure}"),
    }
    CellResult {
        name,
        outcome: outcome.map_err(|f| f.message),
    }
}

/// Run every cell of `cells::bench_suite` — the specs, entry point and
/// `sim` renderer `archgraphd` serves the same cells with.
fn run_cells() -> Vec<CellResult> {
    let mut out = Vec::new();
    for (name, spec) in bench_suite() {
        // A SIGTERM/SIGINT between cells exits promptly (nothing here is
        // checkpointed — the JSON is only written after a full suite).
        signals::exit_if_pending();
        out.push(run_cell(name, || spec.run()));
    }
    out
}

/// Render the results as pretty-printed JSON. Hand-rolled on purpose: the
/// schema is tiny and the workspace has no JSON dependency to lean on.
/// Failed cells render an `"error"` entry instead of `sim`.
fn to_json(cells: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {SCHEMA},\n"));
    out.push_str("  \"tool\": \"archgraph-bench\",\n");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", c.name));
        match &c.outcome {
            Ok(sim) => out.push_str(&format!("      \"sim\": {}\n", render_sim(sim))),
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
    // the next cell boundary.
    signals::install_graceful();
    let mut out_path = DEFAULT_OUT.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("error: unknown argument {other:?} (expected --out PATH)");
                std::process::exit(2);
            }
        }
    }

    eprintln!("running bench cells...");
    let cells = run_cells();
    let json = to_json(&cells);
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
            outcome: Ok(vec![("cycles", 100), ("issued", 42)]),
        }
    }

    /// Clean cells render exactly schema 2 — the committed
    /// `BENCH_archgraph.json` baseline is read line by line on its
    /// `"name":` and `"sim":` prefixes.
    #[test]
    fn clean_json_matches_the_legacy_schema() {
        let json = to_json(&[ok_cell("a/b"), ok_cell("c/d")]);
        let expected = "{\n  \"schema\": 2,\n  \"tool\": \"archgraph-bench\",\n  \"cells\": [\n    {\n      \"name\": \"a/b\",\n      \"sim\": { \"cycles\": 100, \"issued\": 42 }\n    },\n    {\n      \"name\": \"c/d\",\n      \"sim\": { \"cycles\": 100, \"issued\": 42 }\n    }\n  ]\n}\n";
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
        let json = to_json(&cells);
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
        let r = run_cell("unit/panics", || panic!("cell exploded"));
        assert_eq!(r.outcome, Err("cell exploded".to_string()));
        let ok = run_cell("unit/fine", || vec![("cycles", 7)]);
        assert_eq!(ok.outcome, Ok(vec![("cycles", 7)]));
    }
}
