//! Regression: the figure/table bins used to extract the scale word with
//! `find_map(Scale::parse).unwrap_or(Scale::Default)`, so a typo like `ful`
//! or a stray `--full` silently ran the wrong experiment at Default scale.
//! Every bin must now reject unrecognized arguments with a usage message on
//! stderr and exit status 2 — and it must do so before any sweep starts, so
//! these checks are cheap. A failed cell is exit status 1.

use std::process::Command;

fn expect_usage_rejection(bin: &str, exe: &str, args: &[&str]) {
    expect_usage_rejection_under(bin, exe, args, &[]);
}

/// Spawn `exe args` with `env` added; it must exit 2 with `error:` and
/// `usage:` lines. Returns its stderr.
fn expect_usage_rejection_under(
    bin: &str,
    exe: &str,
    args: &[&str],
    env: &[(&str, &str)],
) -> String {
    let out = Command::new(exe)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?} should exit 2, got {:?}\nstderr: {stderr}",
        out.status
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?} should print usage, got: {stderr}"
    );
    assert!(
        stderr.contains("error:"),
        "{bin} {args:?} should name the offending argument, got: {stderr}"
    );
    stderr
}

/// The bins read the run configuration from the environment once, before
/// any cell runs: a malformed plan or budget is a usage error naming the
/// variable, never a clean run or a grid of failed cells.
#[test]
fn bins_reject_a_malformed_run_config_in_the_environment() {
    use archgraph_core::run::{FAULTS_ENV, MAX_CYCLES_ENV};
    let out = std::env::temp_dir().join(format!("archgraph-cli-{}.json", std::process::id()));
    let out = out.to_str().expect("a UTF-8 temp path");
    for (bin, exe, args) in [
        ("fig1", env!("CARGO_BIN_EXE_fig1"), &["smoke"][..]),
        ("table1", env!("CARGO_BIN_EXE_table1"), &["smoke"]),
        ("calibrate", env!("CARGO_BIN_EXE_calibrate"), &["smoke"]),
        ("bench", env!("CARGO_BIN_EXE_bench"), &["--out", out]),
    ] {
        for (var, value) in [(FAULTS_ENV, "bogus:7"), (MAX_CYCLES_ENV, "0")] {
            let stderr = expect_usage_rejection_under(bin, exe, args, &[(var, value)]);
            assert!(stderr.contains(var), "{bin}: {stderr}");
        }
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "bench wrote a baseline"
    );
}

macro_rules! bad_arg_cases {
    ($($test:ident: $bin:literal => $exe:expr;)*) => {
        $(
            #[test]
            fn $test() {
                // `ful` is the motivating typo; `--full` looks like a flag
                // but was equally swallowed; duplicates are ambiguous.
                expect_usage_rejection($bin, $exe, &["ful"]);
                expect_usage_rejection($bin, $exe, &["--full"]);
                expect_usage_rejection($bin, $exe, &["smoke", "full"]);
            }
        )*
    };
}

bad_arg_cases! {
    fig1_rejects_bad_args: "fig1" => env!("CARGO_BIN_EXE_fig1");
    fig2_rejects_bad_args: "fig2" => env!("CARGO_BIN_EXE_fig2");
    table1_rejects_bad_args: "table1" => env!("CARGO_BIN_EXE_table1");
    all_rejects_bad_args: "all" => env!("CARGO_BIN_EXE_all");
    calibrate_rejects_bad_args: "calibrate" => env!("CARGO_BIN_EXE_calibrate");
    speedup_rejects_bad_args: "speedup" => env!("CARGO_BIN_EXE_speedup");
}

/// The bins also guard `.last()` on sweep grids and series-label lookups
/// through `guard::*_or_exit`, which follow the same convention as the
/// strict argument parser: one `error:` line, exit status 2. The built-in
/// grids are hard-coded non-empty, so that exit path is unreachable from
/// the CLI; pin the `Result`-level diagnostics here instead so the messages
/// a future empty preset would print stay greppable.
#[test]
fn empty_series_guards_name_what_is_missing() {
    use archgraph_bench::guard::{require_last, require_series};
    use archgraph_core::experiment::Series;

    let empty: [usize; 0] = [];
    assert_eq!(
        require_last(&empty, "processor grid").unwrap_err(),
        "processor grid is empty"
    );

    let set = vec![Series::new("MTA Random p=2")];
    let err = require_series(&set, "MTA Random p=8").unwrap_err();
    assert!(
        err.contains("no series labelled \"MTA Random p=8\"") && err.contains("MTA Random p=2"),
        "diagnostic must name the missing label and list the present ones: {err}"
    );
}

/// A cell that panics (injected through `ARCHGRAPH_BENCH_PANIC_CELL`) does
/// not kill the binary: it finishes the grid, names the cell on stderr and
/// exits 1 — in a figure panel, in Table 1 and in `calibrate`'s own runs,
/// which all go through `sweep::point_cell`. `sweep_isolation.rs` checks the
/// grid itself.
#[test]
fn fig1_reports_an_injected_cell_panic_and_exits_nonzero() {
    use archgraph_bench::sweep::{CHECKPOINT_ENV, PANIC_CELL_ENV};
    for (bin, exe, args, cell) in [
        (
            "fig1",
            env!("CARGO_BIN_EXE_fig1"),
            &["smoke", "--arch", "smp"][..],
            "fig1/smp/Random/p1/n4096",
        ),
        (
            "calibrate",
            env!("CARGO_BIN_EXE_calibrate"),
            &["smoke"],
            "calibrate/mta/cc",
        ),
        (
            "table1",
            env!("CARGO_BIN_EXE_table1"),
            &["smoke"],
            "table1/cc/p2",
        ),
    ] {
        let out = Command::new(exe)
            .args(args)
            .env(PANIC_CELL_ENV, cell)
            .env_remove(CHECKPOINT_ENV)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin}: stderr: {stderr}");
        assert!(
            stderr.contains(cell),
            "{bin}: stderr must name the cell: {stderr}"
        );
    }
}

#[test]
fn fig_bins_reject_bad_arch_values() {
    for (bin, exe) in [
        ("fig1", env!("CARGO_BIN_EXE_fig1")),
        ("fig2", env!("CARGO_BIN_EXE_fig2")),
    ] {
        expect_usage_rejection(bin, exe, &["--arch", "bogus"]);
        expect_usage_rejection(bin, exe, &["smoke", "--arch"]);
    }
}
