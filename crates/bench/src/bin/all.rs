//! Regenerate the paper's entire evaluation in one run: Fig. 1, Fig. 2,
//! Table 1 and the §5 ratios.
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin all -- [smoke|default|full]
//! ```

use archgraph_bench::cli::headline_ratios;
use archgraph_bench::sweep::exit_if_failed;
use archgraph_bench::{fig1, fig2, last_or_exit, scale_or_usage, table1, MachineKind};
use archgraph_core::report::{fmt_percent, fmt_ratio, Table};

const ROWS: [&str; 5] = [
    "SMP Random / Ordered",
    "MTA Random / Ordered",
    "SMP/MTA ordered",
    "SMP/MTA random",
    "SMP/MTA connected components",
];

const USAGE: &str = "all [smoke|default|full]";

fn main() {
    // Graceful SIGTERM/SIGINT: finish and flush the in-progress
    // checkpoint cell, then exit at the next cell boundary.
    archgraph_bench::signals::install_graceful();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_or_usage(&args, USAGE);
    let _run = archgraph_bench::cli::enter_env_config(USAGE);
    let p = *last_or_exit(&scale.procs(), "processor grid");
    println!("regenerating the full evaluation at {scale:?} scale (p up to {p})\n");

    eprintln!("[1/4] Fig. 1 series...");
    let f1_mta = fig1::sweep(scale, MachineKind::Mta, true);
    let f1_smp = fig1::sweep(scale, MachineKind::Smp, true);
    eprintln!("[2/4] Fig. 2 series...");
    let f2_mta = fig2::sweep(scale, MachineKind::Mta, true);
    let f2_smp = fig2::sweep(scale, MachineKind::Smp, true);
    eprintln!("[3/4] Table 1...");
    let t1 = table1::sweep(scale, true);
    eprintln!("[4/4] ratios...\n");

    // Every sweep completed its surviving cells; summarize and bail now if
    // any cell panicked — the ratio section below needs complete series.
    let mut failures = Vec::new();
    failures.extend(f1_mta.failures);
    failures.extend(f1_smp.failures);
    failures.extend(f2_mta.failures);
    failures.extend(f2_smp.failures);
    failures.extend(t1.failures);
    exit_if_failed("all", &failures);

    println!("== Summary (at p = {p}) ==");
    let mut t = Table::new(["quantity", "measured", "paper"]);
    let series = [f1_mta.series, f1_smp.series, f2_mta.series, f2_smp.series].concat();
    for (label, (ratio, paper)) in ROWS.into_iter().zip(headline_ratios(p, &series)) {
        t.row([label.to_string(), fmt_ratio(ratio), paper.to_string()]);
    }
    for row in &t1.series {
        let last = last_or_exit(&row.points, &format!("utilization sweep for {}", row.label));
        t.row([
            format!("MTA utilization: {} (p={})", row.label, last.p),
            fmt_percent(last.value),
            "80-99%".into(),
        ]);
    }
    for line in t.render().lines() {
        println!("  {line}");
    }
    println!("\nsee EXPERIMENTS.md for the full paper-vs-measured record.");
}
