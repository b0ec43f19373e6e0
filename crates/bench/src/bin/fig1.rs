//! Regenerate **Fig. 1**: running times for list ranking on the Cray MTA
//! (left panel) and the Sun SMP (right panel) for p = 1, 2, 4, 8 over
//! Ordered and Random lists.
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin fig1 -- [smoke|default|full] [--arch mta|smp|both] [--csv]
//! ```

use archgraph_bench::cli::{panel_table, FigureArgs};
use archgraph_bench::fig1;
use archgraph_bench::sweep::exit_if_failed;
use archgraph_core::experiment::Series;
use archgraph_core::plot::ascii_plot;

fn print_panel(title: &str, series: &[Series], sizes: &[usize], procs: &[usize]) {
    println!("\n== Fig. 1 ({title}): list ranking running time ==");
    for kind in ["Ordered", "Random"] {
        let table = panel_table(series, "n", sizes, procs, |p| {
            format!("{title} {kind} p={p}")
        });
        println!("\n  {kind} lists:");
        for line in table.render().lines() {
            println!("    {line}");
        }
    }
    println!("\n{}", ascii_plot(series, "list length n"));
}

const USAGE: &str = "fig1 [smoke|default|full] [--arch mta|smp|both] [--csv]";

fn main() {
    // Graceful SIGTERM/SIGINT: finish and flush the in-progress
    // checkpoint cell, then exit at the next cell boundary.
    archgraph_bench::signals::install_graceful();
    let args = FigureArgs::parse(USAGE);
    let _run = archgraph_bench::cli::enter_env_config(USAGE);
    let (sizes, procs) = (args.scale.fig1_sizes(), args.scale.procs());
    let failures = args.run_panels(fig1::sweep, |title, series| {
        print_panel(title, series, &sizes, &procs)
    });
    println!(
        "\nPaper shape checks: MTA curves identical for Ordered/Random; SMP \
         Random 3-4x slower than Ordered; both scale with p."
    );
    exit_if_failed("fig1", &failures);
}
