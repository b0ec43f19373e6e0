//! Table 1 — processor utilization on the Cray MTA for list ranking
//! (Random and Ordered, 20 M-node list) and connected components
//! (n = 1M, m = 20M ≈ n log n), at p = 1, 4, 8.
//!
//! The rows are the Fig. 1 and Fig. 2 MTA cells at Table 1's sizes, read for
//! utilization instead of time: [`cells`] declares them and [`sweep`] runs
//! them through `sweep::run_panel` like a figure panel, one series per row
//! (`n` the row's problem size, one point per `p`).
//!
//! Reached by: `--bin table1` and `all` (`scripts/reproduce_all.sh`) and the `table1/*` suite cells.

use crate::cells::{CellSpec, Kernel, MachineKind};
use crate::scale::Scale;
use crate::sweep::{run_panel, PanelCell, PanelSweep};
use crate::workloads::ListKind;

/// Processor counts: the paper's Table 1 reports p = 1, 4, 8.
fn table_procs(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![1, 2],
        _ => vec![1, 4, 8],
    }
}

/// The table's cells, row-major in the paper's row order; `x` is the row's
/// problem size. Like the figures' cells they pin no engine, fault plan or
/// budget.
pub fn cells(scale: Scale) -> Vec<PanelCell> {
    use Kernel::{Table1Cc, Table1List};
    use ListKind::{Ordered, Random};
    let rows = [
        ("Random List", "random-list", Table1List(Random)),
        ("Ordered List", "ordered-list", Table1List(Ordered)),
        ("Connected Components", "cc", Table1Cc),
    ];
    let mut out = Vec::new();
    for (label, slug, kernel) in rows {
        let (n, m) = match kernel {
            Table1Cc => scale.table1_graph_size(),
            _ => (scale.table1_list_size(), 0),
        };
        for p in table_procs(scale) {
            out.push(PanelCell {
                label: label.to_string(),
                name: format!("table1/{slug}/p{p}"),
                x: n,
                spec: CellSpec {
                    n,
                    m,
                    ..CellSpec::new(kernel, MachineKind::Mta, p)
                },
            });
        }
    }
    out
}

/// Sweep the table: every `(row, p)` cell panic-isolated and (at `--full`
/// scale) checkpointed for resume; one utilization series per row, from
/// the cells that completed.
pub fn sweep(scale: Scale) -> PanelSweep {
    run_panel("table1", scale, cells(scale), |pt| pt.utilization)
}

#[cfg(test)]
mod tests {
    use archgraph_core::experiment::Series;

    use super::*;

    fn rows() -> Vec<Series> {
        let sw = sweep(Scale::Smoke);
        assert!(sw.failures.is_empty(), "{:?}", sw.failures);
        sw.series
    }

    #[test]
    fn smoke_table_shape_and_bounds() {
        let rows = rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].label, "Random List");
        assert_eq!(rows[1].label, "Ordered List");
        assert_eq!(rows[2].label, "Connected Components");
        for row in &rows {
            assert_eq!(row.points.len(), 2, "{}: p = 1, 2", row.label);
            for pt in &row.points {
                let u = pt.value;
                assert!(u > 0.0 && u <= 1.0, "{} p={}: util {u}", row.label, pt.p);
            }
        }
    }

    #[test]
    fn utilization_does_not_increase_with_processors() {
        // Table 1's trend: utilization decreases (or holds) as p grows,
        // because fixed parallelism is spread over more issue slots.
        for row in rows() {
            let u: Vec<f64> = row.points.iter().map(|pt| pt.value).collect();
            assert!(
                u[0] >= u[u.len() - 1] * 0.95,
                "{}: utilization should not rise with p ({u:?})",
                row.label
            );
        }
    }
}
