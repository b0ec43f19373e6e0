//! Fig. 2 — running times for connected components on the Cray MTA (left)
//! and the Sun SMP (right), random graph with fixed `n` and `m` swept
//! from 4n to 20n, p = 1, 2, 4, 8.
//!
//! Like Fig. 1, the `(p, m)` cells simulate independently: [`panel`]
//! declares them and `sweep::run_panel` fans them out across host cores,
//! preserving the serial order and output.
//!
//! Reached by: `--bin fig2` (`scripts/reproduce_all.sh`) and the `fig2/*` suite cells.

use archgraph_concomp::sim_mta::{self, CcMtaSimResult};
use archgraph_concomp::sim_smp::{self, CcSmpSimResult};
use archgraph_core::machine::{MtaParams, SmpParams};
use archgraph_graph::unionfind::{connected_components, same_partition};

use crate::cells::{CellSpec, Kernel, MachineKind};
use crate::fig1::MTA_STREAMS;
use crate::scale::Scale;
use crate::sweep::{run_panel, PanelCell, PanelSweep};
use crate::workloads::make_graph;

/// Seed for the random graphs.
pub const GRAPH_SEED: u64 = 0xF162;

/// The sweep's cells in serial order: p-major, then m (n is fixed).
pub fn cells(scale: Scale) -> Vec<(usize, usize, usize)> {
    let (n, ms) = scale.fig2_sizes();
    let mut out = Vec::new();
    for &p in &scale.procs() {
        for &m in &ms {
            out.push((p, n, m));
        }
    }
    out
}

/// Simulate one MTA cell.
pub fn mta_cell(p: usize, n: usize, m: usize) -> CcMtaSimResult {
    let params = MtaParams::mta2();
    let g = make_graph(n, m, GRAPH_SEED);
    let r = sim_mta::simulate_sv_mta(&g, &params, p, MTA_STREAMS);
    debug_assert!(same_partition(&r.labels, &connected_components(&g)));
    r
}

/// Simulate one SMP cell.
pub fn smp_cell(p: usize, n: usize, m: usize) -> CcSmpSimResult {
    let params = SmpParams::sun_e4500();
    let g = make_graph(n, m, GRAPH_SEED);
    let r = sim_smp::simulate_sv(&g, &params, p);
    debug_assert!(same_partition(&r.labels, &connected_components(&g)));
    r
}

/// One machine's panel as cells: one series per processor count, x = `m`.
/// The specs carry no engine, fault or budget pin (see `fig1::panel`).
pub fn panel(scale: Scale, machine: MachineKind) -> Vec<PanelCell> {
    let arch = machine.name();
    cells(scale)
        .into_iter()
        .map(|(p, n, m)| PanelCell {
            label: format!("{} CC p={p}", arch.to_uppercase()),
            name: format!("fig2/{arch}/p{p}/n{n}/m{m}"),
            x: m,
            spec: CellSpec {
                n,
                m,
                ..CellSpec::new(Kernel::Fig2, machine, p)
            },
        })
        .collect()
}

/// Sweep one machine's panel: every cell panic-isolated and (at `--full`
/// scale) checkpointed for resume; series assembled from completed cells.
pub fn sweep(scale: Scale, machine: MachineKind, verbose: bool) -> PanelSweep {
    let tag = format!("fig2-{}", machine.name());
    run_panel(&tag, scale, panel(scale, machine), |pt| pt.seconds, verbose)
}

#[cfg(test)]
mod tests {
    use archgraph_core::experiment::Series;

    use super::*;

    fn series(machine: MachineKind) -> Vec<Series> {
        let sw = sweep(Scale::Smoke, machine, false);
        assert!(sw.failures.is_empty(), "{:?}", sw.failures);
        sw.series
    }

    #[test]
    fn smoke_series_have_expected_shape() {
        let mta = series(MachineKind::Mta);
        let smp = series(MachineKind::Smp);
        assert_eq!(mta.len(), 2, "p = 1, 2 at smoke scale");
        assert_eq!(smp.len(), 2);
        for s in mta.iter().chain(smp.iter()) {
            assert_eq!(s.points.len(), 5, "five edge counts");
            assert!(s.points.iter().all(|pt| pt.value > 0.0));
        }
    }

    #[test]
    fn times_grow_with_m() {
        for s in series(MachineKind::Smp) {
            let first = s.points.first().expect("series has points").value;
            let last = crate::guard::require_last(&s.points, &s.label)
                .expect("series has points")
                .value;
            assert!(last > first, "{}: denser graphs must take longer", s.label);
        }
    }
}
