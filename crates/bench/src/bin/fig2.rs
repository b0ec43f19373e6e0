//! Regenerate **Fig. 2**: running times for connected components on the
//! Cray MTA (left panel) and the Sun SMP (right panel), random graph with
//! n fixed and m swept 4n..20n, p = 1, 2, 4, 8.
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin fig2 -- [smoke|default|full] [--arch mta|smp|both] [--csv]
//! ```

use archgraph_bench::cli::{panel_table, FigureArgs};
use archgraph_bench::fig2;
use archgraph_bench::sweep::exit_if_failed;
use archgraph_core::experiment::Series;
use archgraph_core::plot::ascii_plot;

fn print_panel(title: &str, series: &[Series], ms: &[usize], procs: &[usize]) {
    println!("\n== Fig. 2 ({title}): connected components running time ==");
    let table = panel_table(series, "m", ms, procs, |p| format!("{title} CC p={p}"));
    for line in table.render().lines() {
        println!("  {line}");
    }
    println!("\n{}", ascii_plot(series, "edges m"));
}

const USAGE: &str = "fig2 [smoke|default|full] [--arch mta|smp|both] [--csv]";

fn main() {
    // Graceful SIGTERM/SIGINT: finish and flush the in-progress
    // checkpoint cell, then exit at the next cell boundary.
    archgraph_bench::signals::install_graceful();
    let args = FigureArgs::parse(USAGE);
    let _run = archgraph_bench::cli::enter_env_config(USAGE);
    let ((n, ms), procs) = (args.scale.fig2_sizes(), args.scale.procs());
    println!("random graph: n = {n}, m = 4n .. 20n (paper: n = 1M, m = 4M..20M)");
    let failures = args.run_panels(fig2::sweep, |title, series| {
        print_panel(title, series, &ms, &procs)
    });
    println!(
        "\nPaper shape checks: both machines scale with problem size and p; \
         the MTA is 5-6x faster than the SMP."
    );
    exit_if_failed("fig2", &failures);
}
