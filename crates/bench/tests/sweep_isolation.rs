//! End-to-end check of the panic-isolated sweep machinery: a deliberately
//! panicking cell (injected via `ARCHGRAPH_BENCH_PANIC_CELL`) must not take
//! down the sweep — every other cell completes and the failure is reported
//! with the cell's name and the panic message.
//!
//! All env manipulation lives in this single test function; integration
//! test files run in their own process, so nothing else races on the vars.

use archgraph_bench::sweep::{CHECKPOINT_ENV, PANIC_CELL_ENV};
use archgraph_bench::{fig1, MachineKind, Scale};

#[test]
fn a_panicking_cell_fails_alone_and_the_sweep_survives() {
    // Disable checkpointing so this test never touches the filesystem.
    std::env::set_var(CHECKPOINT_ENV, "off");
    std::env::set_var(PANIC_CELL_ENV, "fig1/smp/Random/p1/n4096");

    let sw = fig1::sweep(Scale::Smoke, MachineKind::Smp, false);

    std::env::remove_var(PANIC_CELL_ENV);
    std::env::remove_var(CHECKPOINT_ENV);

    assert_eq!(sw.failures.len(), 1, "exactly the injected cell fails");
    let f = &sw.failures[0];
    assert_eq!(f.cell, "fig1/smp/Random/p1/n4096");
    assert!(
        f.message.contains("deliberate panic"),
        "failure carries the panic message, got: {}",
        f.message
    );

    // The other seven cells all completed: 4 series (2 kinds x 2 proc
    // counts); the series that lost its cell has one point, the rest two.
    assert_eq!(sw.series.len(), 4);
    for s in &sw.series {
        let want = if s.label == "SMP Random p=1" { 1 } else { 2 };
        assert_eq!(s.points.len(), want, "series {}", s.label);
        assert!(s.points.iter().all(|pt| pt.value > 0.0));
    }
}
