//! Calibration diagnostic: prints the paper's six headline quantities
//! (C1–C6 in DESIGN.md) at a chosen scale so simulator parameters can be
//! validated against the published shapes.
//!
//! The eight simulations are independent, so they fan out across host
//! cores, each run and recorded as one sweep cell (`sweep::point_cell`);
//! output is assembled afterwards in the fixed report order.
//!
//! ```text
//! cargo run --release -p archgraph-bench --bin calibrate [-- smoke|default|full]
//! ```

use archgraph_bench::grid::par_map;
use archgraph_bench::sweep::{exit_if_failed, point_cell, CellFailure, CellPoint, Checkpoint};
use archgraph_bench::workloads::{make_graph, make_list, ListKind};
use archgraph_bench::{scale_or_usage, Scale};
use archgraph_concomp::{sim_mta as cc_mta, sim_smp as cc_smp};
use archgraph_core::machine::{MtaParams, SmpParams};
use archgraph_core::report::fmt_ratio;
use archgraph_listrank::{sim_mta as lr_mta, sim_smp as lr_smp};

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
    // sweep cells — each panic-isolated and (at --full scale) checkpointed
    // — and print in fixed order below.
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
    let point = |x, p, seconds, utilization| CellPoint {
        x,
        p,
        seconds,
        utilization,
        log: String::new(),
    };
    let ck = Checkpoint::for_sweep("calibrate", scale);
    let tasks: Vec<usize> = (0..8).collect();
    let outcomes = par_map(&tasks, |&i| {
        point_cell(&ck, NAMES[i], || match i {
            0 => point(n, p, lr_smp::simulate_hj(&ord, &smp, p, 8, 1).seconds, 0.0),
            1 => point(n, p, lr_smp::simulate_hj(&rnd, &smp, p, 8, 1).seconds, 0.0),
            2 => {
                let r = lr_mta::simulate_walk_ranking(&ord, &mta, p, 100, walks);
                point(n, p, r.seconds, r.report.utilization)
            }
            3 => {
                let r = lr_mta::simulate_walk_ranking(&rnd, &mta, p, 100, walks);
                point(n, p, r.seconds, r.report.utilization)
            }
            4 => point(n, 1, lr_smp::simulate_hj(&rnd, &smp, 1, 8, 1).seconds, 0.0),
            5 => {
                let r = lr_mta::simulate_walk_ranking(&rnd, &mta, 1, 100, walks);
                point(n, 1, r.seconds, r.report.utilization)
            }
            6 => point(ng, p, cc_smp::simulate_sv(&g, &smp, p).seconds, 0.0),
            _ => {
                let r = cc_mta::simulate_sv_mta(&g, &mta, p, 100);
                point(ng, p, r.seconds, r.report.utilization)
            }
        })
    });
    let failures: Vec<CellFailure> = outcomes
        .iter()
        .filter_map(|o| o.as_ref().err().cloned())
        .collect();
    exit_if_failed("calibrate", &failures);
    ck.finish();
    let pts: Vec<CellPoint> = outcomes
        .into_iter()
        .map(|o| o.expect("failures already reported"))
        .collect();
    let [smp_ord, smp_rnd, mta_ord, mta_rnd, smp_p1, mta_p1, smp_cc, mta_cc] = &pts[..] else {
        unreachable!("eight cells")
    };
    let ratio = |num: &CellPoint, den: &CellPoint| fmt_ratio(num.seconds / den.seconds);
    let percent = |pt: &CellPoint| pt.utilization * 100.0;

    println!("== List ranking (n = {n}, p = {p}) ==");
    println!(
        "  SMP ordered {:.4} s   SMP random {:.4} s",
        smp_ord.seconds, smp_rnd.seconds
    );
    println!(
        "  MTA ordered {:.4} s   MTA random {:.4} s",
        mta_ord.seconds, mta_rnd.seconds
    );
    println!(
        "  C2 SMP random/ordered = {}   (paper: 3-4x)",
        ratio(smp_rnd, smp_ord)
    );
    println!(
        "  C3 MTA random/ordered = {}   (paper: ~1x)",
        ratio(mta_rnd, mta_ord)
    );
    println!(
        "  C4 SMP/MTA ordered = {}  random = {}   (paper: ~10x, ~35x)",
        ratio(smp_ord, mta_ord),
        ratio(smp_rnd, mta_rnd)
    );
    println!(
        "  MTA utilization: ordered {:.0}%  random {:.0}%  (paper: 80-98%)",
        percent(mta_ord),
        percent(mta_rnd)
    );
    println!(
        "  C1 scaling p=1->8: SMP {}  MTA {}   (paper: near-linear)",
        ratio(smp_p1, smp_rnd),
        ratio(mta_p1, mta_rnd)
    );

    println!("== Connected components (n = {ng}, m = {mg}, p = {p}) ==");
    println!(
        "  SMP {:.4} s   MTA {:.4} s   C5 ratio = {}   (paper: 5-6x)",
        smp_cc.seconds,
        mta_cc.seconds,
        ratio(smp_cc, mta_cc)
    );
    println!(
        "  C6 MTA CC utilization {:.0}%  (paper: 91-99%)",
        percent(mta_cc)
    );
}
