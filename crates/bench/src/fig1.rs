//! Fig. 1 — running times for list ranking on the Cray MTA (left) and the
//! Sun SMP (right), for p = 1, 2, 4, 8, over Ordered and Random lists.
//!
//! Each `(kind, p, n)` cell simulates independently; [`panel`] declares
//! them as [`PanelCell`]s and `sweep::run_panel` fans them out across host
//! cores, reassembling results in cell order so series contents and verbose
//! logs are byte-identical to a serial sweep.
//!
//! Reached by: `--bin fig1` (`scripts/reproduce_all.sh`) and the `fig1/*` suite cells.

use archgraph_core::machine::{MtaParams, SmpParams};
use archgraph_listrank::sim_mta::{self, MtaSimResult};
use archgraph_listrank::sim_smp::{self, SmpSimResult};

use crate::cells::{CellSpec, Kernel, MachineKind};
use crate::scale::Scale;
use crate::sweep::{run_panel, PanelCell, PanelSweep};
use crate::workloads::{make_list, ListKind};

/// Streams per processor the paper's code requests (`use 100 streams`),
/// for every simulated-MTA cell: Fig. 1, Fig. 2 and the kernel ladder.
pub const MTA_STREAMS: usize = 100;

/// Seed for the Random list layout.
pub const LIST_SEED: u64 = 0xF161;

/// The sweep's cells in serial order: kind-major, then p, then n.
pub fn cells(scale: Scale) -> Vec<(ListKind, usize, usize)> {
    let mut out = Vec::new();
    for kind in ListKind::both() {
        for &p in &scale.procs() {
            for &n in &scale.fig1_sizes() {
                out.push((kind, p, n));
            }
        }
    }
    out
}

/// Simulate one MTA cell.
pub fn mta_cell(kind: ListKind, p: usize, n: usize) -> MtaSimResult {
    let params = MtaParams::mta2();
    let list = make_list(kind, n, LIST_SEED);
    let walks = (n / 10).max(1); // paper: ~10 nodes per walk
    let r = sim_mta::simulate_walk_ranking(&list, &params, p, MTA_STREAMS, walks);
    debug_assert_eq!(r.rank, list.rank_oracle());
    r
}

/// Simulate one SMP cell.
pub fn smp_cell(kind: ListKind, p: usize, n: usize) -> SmpSimResult {
    let params = SmpParams::sun_e4500();
    let list = make_list(kind, n, LIST_SEED);
    let r = sim_smp::simulate_hj(&list, &params, p, 8, LIST_SEED);
    debug_assert_eq!(r.rank, list.rank_oracle());
    r
}

/// One machine's panel as cells: one series per (list kind, p), x = `n`.
/// The specs carry no engine, fault or budget pin — the run scope stays
/// in charge of a figure sweep.
pub fn panel(scale: Scale, machine: MachineKind) -> Vec<PanelCell> {
    let arch = machine.name();
    cells(scale)
        .into_iter()
        .map(|(kind, p, n)| PanelCell {
            label: format!("{} {} p={p}", arch.to_uppercase(), kind.label()),
            name: format!("fig1/{arch}/{}/p{p}/n{n}", kind.label()),
            x: n,
            spec: CellSpec {
                n,
                ..CellSpec::new(Kernel::Fig1(kind), machine, p)
            },
        })
        .collect()
}

/// Sweep one machine's panel: every cell panic-isolated and (at `--full`
/// scale) checkpointed for resume; series assembled from completed cells.
pub fn sweep(scale: Scale, machine: MachineKind, verbose: bool) -> PanelSweep {
    let tag = format!("fig1-{}", machine.name());
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
        // 2 kinds x 2 proc counts.
        assert_eq!(mta.len(), 4);
        assert_eq!(smp.len(), 4);
        for s in mta.iter().chain(smp.iter()) {
            assert_eq!(s.points.len(), 2, "two sizes at smoke scale");
            assert!(s.points.iter().all(|pt| pt.value > 0.0));
        }
    }

    #[test]
    fn times_grow_with_n() {
        for s in series(MachineKind::Smp) {
            assert!(
                s.points[1].value > s.points[0].value,
                "{}: larger lists must take longer",
                s.label
            );
        }
    }

    #[test]
    fn cells_are_kind_major_then_p_then_n() {
        let cs = cells(Scale::Smoke);
        let kinds = ListKind::both().len();
        let ps = Scale::Smoke.procs().len();
        let ns = Scale::Smoke.fig1_sizes().len();
        assert_eq!(cs.len(), kinds * ps * ns);
        assert_eq!(cs[0].0, cs[ns - 1].0);
        assert_eq!(cs[0].1, cs[ns - 1].1, "first chunk shares (kind, p)");
    }
}
