//! The rayon-parallel sweep grids must be bit-identical to the serial
//! path: same cell order, same simulated quantities, same outputs. This
//! determinism is the foundation the paper-claim checks (C1–C6) stand on.

use archgraph_bench::grid::{par_map, serial_map};
use archgraph_bench::sweep::{run_cells, Checkpoint};
use archgraph_bench::{fig1, fig2, table1, Scale};
use archgraph_core::{with_fault_plan, FaultPlan};

/// Every cell through `run`, across host cores and serially.
fn both<C: Sync, R: Send>(cells: &[C], run: impl Fn(&C) -> R + Sync) -> (Vec<R>, Vec<R>) {
    (par_map(cells, &run), serial_map(cells, &run))
}

#[test]
fn fig1_mta_grid_parallel_matches_serial() {
    let cells = fig1::cells(Scale::Smoke);
    let (par, ser) = both(&cells, |&(kind, p, n)| fig1::mta_cell(kind, p, n));
    assert_eq!(par.len(), ser.len());
    for (a, b) in par.iter().zip(&ser) {
        assert_eq!(a.report, b.report, "RunReport must be bit-identical");
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.rank, b.rank);
    }
}

#[test]
fn fig1_smp_grid_parallel_matches_serial() {
    let cells = fig1::cells(Scale::Smoke);
    let (par, ser) = both(&cells, |&(kind, p, n)| fig1::smp_cell(kind, p, n));
    assert_eq!(par.len(), ser.len());
    for (a, b) in par.iter().zip(&ser) {
        assert_eq!(a.stats, b.stats, "RunStats must be bit-identical");
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.rank, b.rank);
    }
}

#[test]
fn fig2_mta_grid_parallel_matches_serial() {
    let cells = fig2::cells(Scale::Smoke);
    let (par, ser) = both(&cells, |&(p, n, m)| fig2::mta_cell(p, n, m));
    assert_eq!(par.len(), ser.len());
    for (a, b) in par.iter().zip(&ser) {
        assert_eq!(a.report, b.report, "RunReport must be bit-identical");
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
    }
}

#[test]
fn fig2_smp_grid_parallel_matches_serial() {
    let cells = fig2::cells(Scale::Smoke);
    let (par, ser) = both(&cells, |&(p, n, m)| fig2::smp_cell(p, n, m));
    assert_eq!(par.len(), ser.len());
    for (a, b) in par.iter().zip(&ser) {
        assert_eq!(a.stats, b.stats, "RunStats must be bit-identical");
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
    }
}

#[test]
fn table1_utilization_grid_parallel_matches_serial() {
    let cells = table1::cells(Scale::Smoke);
    let (par, ser) = both(&cells, |cell| cell.spec.run_full().utilization);
    assert_eq!(par, ser, "utilization cells must be bit-identical");
}

/// A fault plan scoped around a sweep reaches every cell, whichever pool
/// thread runs it (with two or more host threads some run off the calling
/// thread): the parallel sweep under the plan is the serial one, and every
/// cell moved off its clean value.
#[test]
fn a_scoped_plan_covers_every_cell_of_a_parallel_sweep() {
    let cells = table1::cells(Scale::Smoke);
    let sweep = || {
        run_cells(&Checkpoint::disabled(), &cells)
            .into_iter()
            .map(|out| out.expect("cell completes").seconds)
            .collect::<Vec<f64>>()
    };
    let plan = FaultPlan::parse("stall=30,stall-period=300:7").unwrap();
    let clean = sweep();
    let par = with_fault_plan(Some(plan.clone()), sweep);
    let ser = with_fault_plan(Some(plan), || {
        serial_map(&cells, |cell| cell.spec.run_full().seconds)
    });
    assert_eq!(par, ser, "every cell ran under the plan");
    for ((name, c), f) in cells.iter().map(|c| &c.name).zip(&clean).zip(&par) {
        assert!(f > c, "{name}: stalls must cost time ({f} <= {c})");
    }
}
