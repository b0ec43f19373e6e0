//! Calibration diagnostic: prints the paper's six headline quantities
//! (C1–C6 in DESIGN.md) at a chosen scale so simulator parameters can be
//! validated against the published shapes.
//!
//! The eight simulations are independent, so they fan out across host
//! cores; output is assembled afterwards in the fixed report order.
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin calibrate [-- smoke|default|full]
//! ```

use archgraph_bench::grid::par_map;
use archgraph_bench::sweep::{exit_if_failed, isolate, CellFailure, Checkpoint};
use archgraph_bench::workloads::{make_graph, make_list, ListKind};
use archgraph_bench::{scale_or_usage, Scale};
use archgraph_concomp::{sim_mta as cc_mta, sim_smp as cc_smp};
use archgraph_core::machine::{MtaParams, SmpParams};
use archgraph_core::report::fmt_ratio;
use archgraph_listrank::{sim_mta as lr_mta, sim_smp as lr_smp};

/// Panic-isolated, checkpointed `(seconds, utilization)` cell. Float
/// `Display` is shortest-exact, so restored values are bit-identical.
fn cal_cell(
    ck: &Checkpoint,
    name: &str,
    f: impl FnOnce() -> (f64, f64),
) -> Result<(f64, f64), CellFailure> {
    if let Some(s) = ck.lookup(name) {
        let mut it = s.split_whitespace().map(str::parse::<f64>);
        if let (Some(Ok(a)), Some(Ok(b)), None) = (it.next(), it.next(), it.next()) {
            return Ok((a, b));
        }
    }
    let v = isolate(name, f)?;
    ck.record(name, &format!("{} {}", v.0, v.1));
    Ok(v)
}

const USAGE: &str = "calibrate [smoke|default|full]";

fn main() {
    // Graceful SIGTERM/SIGINT: finish and flush the in-progress
    // checkpoint cell, then exit at the next cell boundary.
    archgraph_bench::signals::install_graceful();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_or_usage(&args, USAGE);
    let _run = archgraph_bench::cli::enter_env_config(USAGE);
    let smp = SmpParams::sun_e4500();
    let mta = MtaParams::mta2();
    let p = 8usize;

    let n = match scale {
        Scale::Smoke => 1 << 14,
        Scale::Default => 1 << 19,
        Scale::Full => 1 << 22,
    };
    let ord = make_list(ListKind::Ordered, n, 1);
    let rnd = make_list(ListKind::Random, n, 1);
    let walks = n / 10;
    let (ng, mg) = match scale {
        Scale::Smoke => (1 << 10, 4 << 10),
        Scale::Default => (1 << 14, 12 << 14),
        Scale::Full => (1 << 18, 12 << 18),
    };
    let g = make_graph(ng, mg, 2);

    // Every simulation is independent; run them as one parallel grid of
    // `(seconds, utilization)` cells — each panic-isolated and (at --full
    // scale) checkpointed — and print in fixed order below.
    const NAMES: [&str; 8] = [
        "calibrate/smp/ordered",
        "calibrate/smp/random",
        "calibrate/mta/ordered",
        "calibrate/mta/random",
        "calibrate/smp/random/p1",
        "calibrate/mta/random/p1",
        "calibrate/smp/cc",
        "calibrate/mta/cc",
    ];
    let ck = Checkpoint::for_sweep("calibrate", scale);
    let tasks: Vec<usize> = (0..8).collect();
    let outcomes = par_map(&tasks, |&i| {
        cal_cell(&ck, NAMES[i], || match i {
            0 => (lr_smp::simulate_hj(&ord, &smp, p, 8, 1).seconds, 0.0),
            1 => (lr_smp::simulate_hj(&rnd, &smp, p, 8, 1).seconds, 0.0),
            2 => {
                let r = lr_mta::simulate_walk_ranking(&ord, &mta, p, 100, walks);
                (r.seconds, r.report.utilization)
            }
            3 => {
                let r = lr_mta::simulate_walk_ranking(&rnd, &mta, p, 100, walks);
                (r.seconds, r.report.utilization)
            }
            4 => (lr_smp::simulate_hj(&rnd, &smp, 1, 8, 1).seconds, 0.0),
            5 => (
                lr_mta::simulate_walk_ranking(&rnd, &mta, 1, 100, walks).seconds,
                0.0,
            ),
            6 => (cc_smp::simulate_sv(&g, &smp, p).seconds, 0.0),
            _ => {
                let r = cc_mta::simulate_sv_mta(&g, &mta, p, 100);
                (r.seconds, r.report.utilization)
            }
        })
    });
    let failures: Vec<CellFailure> = outcomes
        .iter()
        .filter_map(|o| o.as_ref().err().cloned())
        .collect();
    exit_if_failed("calibrate", &failures);
    ck.clear();
    let results: Vec<(f64, f64)> = outcomes
        .into_iter()
        .map(|o| o.expect("failures already reported"))
        .collect();
    let (t_smp_ord, _) = results[0];
    let (t_smp_rnd, _) = results[1];
    let (t_mta_ord, u_mta_ord) = results[2];
    let (t_mta_rnd, u_mta_rnd) = results[3];
    let (t1, _) = results[4];
    let (m1, _) = results[5];
    let (t_smp_cc, _) = results[6];
    let (t_mta_cc, u_mta_cc) = results[7];

    println!("== List ranking (n = {n}, p = {p}) ==");
    println!("  SMP ordered {t_smp_ord:.4} s   SMP random {t_smp_rnd:.4} s");
    println!("  MTA ordered {t_mta_ord:.4} s   MTA random {t_mta_rnd:.4} s");
    println!(
        "  C2 SMP random/ordered = {}   (paper: 3-4x)",
        fmt_ratio(t_smp_rnd / t_smp_ord)
    );
    println!(
        "  C3 MTA random/ordered = {}   (paper: ~1x)",
        fmt_ratio(t_mta_rnd / t_mta_ord)
    );
    println!(
        "  C4 SMP/MTA ordered = {}  random = {}   (paper: ~10x, ~35x)",
        fmt_ratio(t_smp_ord / t_mta_ord),
        fmt_ratio(t_smp_rnd / t_mta_rnd)
    );
    println!(
        "  MTA utilization: ordered {:.0}%  random {:.0}%  (paper: 80-98%)",
        u_mta_ord * 100.0,
        u_mta_rnd * 100.0
    );
    println!(
        "  C1 scaling p=1->8: SMP {}  MTA {}   (paper: near-linear)",
        fmt_ratio(t1 / t_smp_rnd),
        fmt_ratio(m1 / t_mta_rnd)
    );

    println!("== Connected components (n = {ng}, m = {mg}, p = {p}) ==");
    println!(
        "  SMP {t_smp_cc:.4} s   MTA {t_mta_cc:.4} s   C5 ratio = {}   (paper: 5-6x)",
        fmt_ratio(t_smp_cc / t_mta_cc)
    );
    println!(
        "  C6 MTA CC utilization {:.0}%  (paper: 91-99%)",
        u_mta_cc * 100.0
    );
}
