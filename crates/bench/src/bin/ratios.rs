//! Regenerate the §5 headline ratios from the Fig. 1 / Fig. 2 series:
//!
//! * SMP Random / SMP Ordered (paper: 3–4×),
//! * SMP / MTA on ordered lists (paper: ~10×),
//! * SMP / MTA on random lists (paper: ~35×),
//! * SMP / MTA on connected components (paper: 5–6×).
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin ratios -- [smoke|default|full]
//! ```

use archgraph_bench::cli::headline_ratios;
use archgraph_bench::{fig1, fig2, last_or_exit, scale_or_usage, MachineKind};
use archgraph_core::report::{fmt_ratio, Table};

const ROWS: [&str; 5] = [
    "SMP Random / SMP Ordered",
    "MTA Random / MTA Ordered",
    "SMP / MTA (ordered lists)",
    "SMP / MTA (random lists)",
    "SMP / MTA (connected components)",
];

const USAGE: &str = "ratios [smoke|default|full]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_or_usage(&args, USAGE);
    let _run = archgraph_bench::cli::enter_env_config(USAGE);
    let p = *last_or_exit(&scale.procs(), "processor grid");

    let mut series = Vec::new();
    eprintln!("running list-ranking series ({scale:?})...");
    series.extend(fig1::sweep(scale, MachineKind::Mta, false).into_series());
    series.extend(fig1::sweep(scale, MachineKind::Smp, false).into_series());
    eprintln!("running connected-components series...");
    series.extend(fig2::sweep(scale, MachineKind::Mta, false).into_series());
    series.extend(fig2::sweep(scale, MachineKind::Smp, false).into_series());

    let mut t = Table::new([
        "Ratio (at p = ".to_string() + &p.to_string() + ")",
        "measured".into(),
        "paper".into(),
    ]);
    for (label, (ratio, paper)) in ROWS.into_iter().zip(headline_ratios(p, &series)) {
        t.row([label.to_string(), fmt_ratio(ratio), paper.to_string()]);
    }

    println!("\n== Headline architecture ratios (paper §5) ==");
    for line in t.render().lines() {
        println!("  {line}");
    }
}
