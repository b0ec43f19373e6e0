//! Table 1 — processor utilization on the Cray MTA for list ranking
//! (Random and Ordered, 20 M-node list) and connected components
//! (n = 1M, m = 20M ≈ n log n), at p = 1, 4, 8.
//!
//! The rows are the Fig. 1 and Fig. 2 MTA cells at Table 1's sizes, read for
//! utilization instead of time: [`cells`] declares them, `sweep::run_cells`
//! fans them out across host cores, and the rows are assembled in the
//! paper's order afterwards.
//!
//! Reached by: `--bin table1` (`scripts/reproduce_all.sh`) and the `table1/*` suite cells.

use crate::cells::{CellSpec, Kernel, MachineKind};
use crate::scale::Scale;
use crate::sweep::{run_cells, CellFailure, Checkpoint, PanelCell};
use crate::workloads::ListKind;

/// One row block of Table 1: utilization per processor count.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationRow {
    /// Workload label ("Random List", "Ordered List", "Connected Components").
    pub label: String,
    /// `(p, utilization)` pairs.
    pub utilization: Vec<(usize, f64)>,
}

/// Processor counts: the paper's Table 1 reports p = 1, 4, 8.
fn table_procs(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![1, 2],
        _ => vec![1, 4, 8],
    }
}

/// The table's cells, row-major in the paper's row order; `x` is the row.
/// Like the figures' cells they pin no engine, fault plan or budget.
pub fn cells(scale: Scale) -> Vec<PanelCell> {
    use Kernel::{Table1Cc, Table1List};
    use ListKind::{Ordered, Random};
    let rows = [
        ("Random List", "random-list", Table1List(Random)),
        ("Ordered List", "ordered-list", Table1List(Ordered)),
        ("Connected Components", "cc", Table1Cc),
    ];
    let mut out = Vec::new();
    for (x, (label, slug, kernel)) in rows.into_iter().enumerate() {
        let (n, m) = match kernel {
            Table1Cc => scale.table1_graph_size(),
            _ => (scale.table1_list_size(), 0),
        };
        for p in table_procs(scale) {
            out.push(PanelCell {
                label: label.to_string(),
                name: format!("table1/{slug}/p{p}"),
                x,
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

/// Table 1's isolated sweep: rows assembled from the cells that
/// completed, plus any cell failures (empty on a clean run).
#[derive(Debug)]
pub struct TableSweep {
    /// The table rows; a failed cell's `(p, utilization)` entry is absent.
    pub rows: Vec<UtilizationRow>,
    /// Cells that panicked, in cell order.
    pub failures: Vec<CellFailure>,
}

/// Compute the table with each `(row, p)` cell panic-isolated and (at
/// `--full` scale) checkpointed for resume.
pub fn utilization_sweep(scale: Scale, verbose: bool) -> TableSweep {
    let cs = cells(scale);
    let ck = Checkpoint::for_sweep("table1", scale);
    // The log line below is the value itself: no detail goes with it.
    let outs = run_cells(&ck, &cs, |run| (run.utilization, String::new()));
    let mut rows: Vec<UtilizationRow> = Vec::new();
    let mut failures = Vec::new();
    for (cell, out) in cs.into_iter().zip(outs) {
        if rows.len() <= cell.x {
            rows.push(UtilizationRow {
                label: cell.label,
                utilization: Vec::new(),
            });
        }
        match out {
            Ok(pt) => {
                if verbose {
                    eprintln!("  {}: util {:.1}%", cell.name, pt.seconds * 100.0);
                }
                rows[cell.x].utilization.push((pt.p, pt.seconds));
            }
            Err(f) => {
                eprintln!("  {f}");
                failures.push(f);
            }
        }
    }
    if failures.is_empty() {
        ck.clear();
    }
    TableSweep { rows, failures }
}

/// Compute the table. Panics if any cell failed; drivers that want the
/// rest of the table anyway use [`utilization_sweep`].
pub fn utilization_table(scale: Scale, verbose: bool) -> Vec<UtilizationRow> {
    let sw = utilization_sweep(scale, verbose);
    if let Some(f) = sw.failures.first() {
        panic!("{f}");
    }
    sw.rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table_shape_and_bounds() {
        let rows = utilization_table(Scale::Smoke, false);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].label, "Random List");
        assert_eq!(rows[1].label, "Ordered List");
        assert_eq!(rows[2].label, "Connected Components");
        for row in &rows {
            for &(p, u) in &row.utilization {
                assert!(u > 0.0 && u <= 1.0, "{} p={p}: util {u}", row.label);
            }
        }
    }

    #[test]
    fn utilization_does_not_increase_with_processors() {
        // Table 1's trend: utilization decreases (or holds) as p grows,
        // because fixed parallelism is spread over more issue slots.
        let rows = utilization_table(Scale::Smoke, false);
        for row in &rows {
            let u: Vec<f64> = row.utilization.iter().map(|&(_, u)| u).collect();
            assert!(
                u[0] >= u[u.len() - 1] * 0.95,
                "{}: utilization should not rise with p ({u:?})",
                row.label
            );
        }
    }
}
