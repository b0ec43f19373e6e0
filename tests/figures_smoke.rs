//! Smoke runs of every figure/table harness at the smallest scale:
//! each must produce full series with positive, size-monotone times, every
//! point must be the recorded one, and every cell what its name says.
//!
//! `tests/golden/figures_smoke.txt` was recorded by running `golden_text`
//! on commit 972ddbb through the functions that commit had
//! (`fig{1,2}::{mta,smp}_series`, `table1::utilization_table`) on a clean
//! machine. After an intended model change, replace the file with the text
//! the failure prints.

use std::collections::HashSet;

use archgraph_bench::cells::{CellSpec, Kernel, MachineKind};
use archgraph_bench::sweep::PanelCell;
use archgraph_bench::workloads::ListKind;
use archgraph_bench::{fig1, fig2, table1, Scale};
use archgraph_core::experiment::Series;

const GOLDEN: &str = include_str!("golden/figures_smoke.txt");

fn series(
    fig: fn(Scale, MachineKind, bool) -> archgraph_bench::PanelSweep,
    machine: MachineKind,
) -> Vec<Series> {
    clean(fig(Scale::Smoke, machine, false))
}

/// Table 1's rows: one utilization series per row.
fn table1_rows() -> Vec<Series> {
    clean(table1::sweep(Scale::Smoke, false))
}

fn clean(sw: archgraph_bench::PanelSweep) -> Vec<Series> {
    assert!(sw.failures.is_empty(), "{:?}", sw.failures);
    sw.series
}

/// Every point of the five smoke sweeps: label, `x`, `p` and the plotted
/// value (seconds; Table 1: utilization) by bit pattern.
fn golden_text() -> String {
    let mut out = String::new();
    let mut put = |sweep: &str, label: &str, x: usize, p: usize, y: f64| {
        let bits = y.to_bits();
        out += &format!("{sweep} | {label} | x={x} p={p} bits={bits:016x}\n");
    };
    for (sweep, set) in [
        ("fig1/mta", series(fig1::sweep, MachineKind::Mta)),
        ("fig1/smp", series(fig1::sweep, MachineKind::Smp)),
        ("fig2/mta", series(fig2::sweep, MachineKind::Mta)),
        ("fig2/smp", series(fig2::sweep, MachineKind::Smp)),
    ] {
        for s in &set {
            for pt in &s.points {
                put(sweep, &s.label, pt.n, pt.p, pt.value);
            }
        }
    }
    // The golden's Table 1 `x` is the row index.
    for (x, row) in table1_rows().iter().enumerate() {
        for pt in &row.points {
            put("table1", &row.label, x, pt.p, pt.value);
        }
    }
    out
}

#[test]
fn smoke_sweeps_are_bit_identical_to_the_recorded_points() {
    let actual = golden_text();
    for (now, recorded) in actual.lines().zip(GOLDEN.lines()) {
        assert_eq!(now, recorded, "a point moved. This run:\n{actual}");
    }
    assert!(
        actual == GOLDEN,
        "points added or lost. This run:\n{actual}"
    );
}

/// The name a spec's own fields spell (Table 1's names carry no sizes).
fn name_of(spec: &CellSpec) -> String {
    let (arch, p, n, m) = (spec.machine.name(), spec.p, spec.n, spec.m);
    match spec.kernel {
        Kernel::Fig1(kind) => format!("fig1/{arch}/{}/p{p}/n{n}", kind.label()),
        Kernel::Fig2 => format!("fig2/{arch}/p{p}/n{n}/m{m}"),
        Kernel::Table1List(kind) => {
            format!("table1/{}-list/p{p}", kind.label().to_lowercase())
        }
        Kernel::Table1Cc => format!("table1/cc/p{p}"),
        other => panic!("{other:?} is not a figure kernel"),
    }
}

#[test]
fn declared_cells_are_what_their_names_say() {
    use MachineKind::{Mta, Smp};
    let smoke = Scale::Smoke;
    let mut all = table1::cells(smoke);
    for machine in [Mta, Smp] {
        all.extend(fig1::panel(smoke, machine));
        all.extend(fig2::panel(smoke, machine));
    }
    let names: HashSet<&str> = all.iter().map(|c| c.name.as_str()).collect();
    assert_eq!((all.len(), names.len()), (42, 42), "duplicate cell name");
    for PanelCell { name, spec, .. } in &all {
        assert_eq!(&name_of(spec), name);
        let size = match spec.kernel {
            Kernel::Table1List(_) => (smoke.table1_list_size(), 0),
            Kernel::Table1Cc => smoke.table1_graph_size(),
            Kernel::Fig1(_) => (spec.n, 0),
            _ => (spec.n, spec.m),
        };
        // Nothing else is set: the run scope stays in charge of
        // a figure sweep (no engine, fault or budget pin).
        let mut plain = CellSpec::new(spec.kernel, spec.machine, spec.p);
        (plain.n, plain.m) = size;
        assert_eq!(spec, &plain, "{name}");
        assert!(
            spec.machine == Mta || !name.starts_with("table1/"),
            "{name}"
        );
    }

    // One cell per panel: the spec path is the direct cell call.
    let first = |cells: Vec<PanelCell>| cells.into_iter().next().expect("a cell").spec;
    let kind = ListKind::both()[0];
    let s = first(fig1::panel(smoke, Mta));
    assert_eq!(s.run_full().seconds, fig1::mta_cell(kind, s.p, s.n).seconds);
    let s = first(fig1::panel(smoke, Smp));
    assert_eq!(s.run_full().seconds, fig1::smp_cell(kind, s.p, s.n).seconds);
    let s = first(fig2::panel(smoke, Mta));
    assert_eq!(s.run_full().seconds, fig2::mta_cell(s.p, s.n, s.m).seconds);
    let s = first(fig2::panel(smoke, Smp));
    assert_eq!(s.run_full().seconds, fig2::smp_cell(s.p, s.n, s.m).seconds);
    let s = table1::cells(smoke).pop().expect("a cell").spec;
    assert_eq!(
        s.run_full().utilization,
        fig2::mta_cell(s.p, s.n, s.m).report.utilization
    );
}

#[test]
fn fig1_regenerates_both_panels() {
    let mta = series(fig1::sweep, MachineKind::Mta);
    let smp = series(fig1::sweep, MachineKind::Smp);
    assert_eq!(mta.len(), 4);
    assert_eq!(smp.len(), 4);
    for s in mta.iter().chain(smp.iter()) {
        assert!(!s.points.is_empty(), "{} empty", s.label);
        assert!(s.points.iter().all(|p| p.value > 0.0));
        // Monotone in n within each series.
        for w in s.points.windows(2) {
            assert!(
                w[1].value > w[0].value * 0.8,
                "{}: time should grow with n",
                s.label
            );
        }
    }
}

#[test]
fn fig2_regenerates_both_panels() {
    let mta = series(fig2::sweep, MachineKind::Mta);
    let smp = series(fig2::sweep, MachineKind::Smp);
    assert_eq!(mta.len(), 2);
    assert_eq!(smp.len(), 2);
    for s in smp.iter() {
        let first = s.points.first().unwrap().value;
        let last = s.points.last().unwrap().value;
        assert!(last > first, "{}: denser graphs take longer", s.label);
    }
    for s in mta.iter() {
        assert!(s.points.iter().all(|p| p.value > 0.0));
    }
}

#[test]
fn table1_regenerates_all_rows() {
    let rows = table1_rows();
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(!r.points.is_empty());
        for pt in &r.points {
            let u = pt.value;
            assert!(u > 0.0 && u <= 1.0, "{} p={}: {u}", r.label, pt.p);
        }
    }
}

#[test]
fn smp_figures_dominate_mta_figures() {
    // Even at smoke scale the SMP panels should sit above the MTA panels
    // at matching points (the paper's cross-panel comparison).
    let mta = series(fig1::sweep, MachineKind::Mta);
    let smp = series(fig1::sweep, MachineKind::Smp);
    for kind in ["Ordered", "Random"] {
        for p in [1usize, 2] {
            let m = mta
                .iter()
                .find(|s| s.label == format!("MTA {kind} p={p}"))
                .unwrap();
            let s = smp
                .iter()
                .find(|s| s.label == format!("SMP {kind} p={p}"))
                .unwrap();
            for pt in &m.points {
                let smp_t = s.at(pt.n, pt.p).unwrap();
                assert!(
                    smp_t > pt.value,
                    "SMP should be slower at {kind} n={} p={}",
                    pt.n,
                    pt.p
                );
            }
        }
    }
}
