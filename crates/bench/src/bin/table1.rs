//! Regenerate **Table 1**: processor utilization for list ranking and
//! connected components on the Cray MTA at p = 1, 4, 8.
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin table1 -- [smoke|default|full]
//! ```

use archgraph_bench::sweep::exit_if_failed;
use archgraph_bench::{scale_or_usage, table1};
use archgraph_core::report::{fmt_percent, Table};

const USAGE: &str = "table1 [smoke|default|full]";

fn main() {
    // Graceful SIGTERM/SIGINT: finish and flush the in-progress
    // checkpoint cell, then exit at the next cell boundary.
    archgraph_bench::signals::install_graceful();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_or_usage(&args, USAGE);
    let _run = archgraph_bench::cli::enter_env_config(USAGE);
    eprintln!("computing Table 1 utilizations ({scale:?})...");
    let sweep = table1::sweep(scale, true);

    println!("\n== Table 1: processor utilization on the Cray MTA ==");
    // Columns are the union of completed processor counts — a failed cell
    // leaves a blank in its row, not a hole in the table.
    let mut procs: Vec<usize> = sweep
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|pt| pt.p))
        .collect();
    procs.sort_unstable();
    procs.dedup();
    let mut t = Table::new(
        std::iter::once("Workload".to_string()).chain(procs.iter().map(|p| format!("p={p}"))),
    );
    for row in &sweep.series {
        let mut cells = vec![row.label.clone()];
        for &p in &procs {
            let u = row.points.iter().find(|pt| pt.p == p);
            cells.push(u.map(|pt| fmt_percent(pt.value)).unwrap_or_default());
        }
        t.row(cells);
    }
    for line in t.render().lines() {
        println!("  {line}");
    }
    println!(
        "\nPaper (Table 1): Random List 98/90/82%, Ordered List 97/85/80%, \
         Connected Components 99/93/91% at p = 1/4/8."
    );
    exit_if_failed("table1", &sweep.failures);
}
