//! Order-preserving parallel evaluation of experiment grids.
//!
//! Every figure/table sweep is a grid of independent `(machine, p, layout,
//! size)` cells, each a deterministic simulation. Running them through
//! [`par_map`] preserves the serial cell order positionally, so assembling
//! series, CSV rows, and verbose logs from the results afterwards yields
//! byte-identical output to the serial sweep — only host wall-clock
//! changes. The `parallel_matches_serial_*` integration tests pin this
//! down by comparing full simulator reports across both paths.
//!
//! The run scope (`archgraph_core::RunConfig`) is per thread, so
//! [`par_map`] re-enters the caller's on every pool thread: a fault plan or
//! cycle budget scoped around a sweep covers every one of its cells.
//!
//! Reached by: `--bin fig1`, `fig2`, `table1`, `all` and `calibrate` (`scripts/reproduce_all.sh`).

use archgraph_core::RunConfig;
use rayon::prelude::*;

/// Apply `f` to every cell in parallel, under the caller's run scope,
/// returning results in cell order.
pub fn par_map<C, R, F>(cells: &[C], f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let config = RunConfig::current();
    (0..cells.len())
        .into_par_iter()
        .map(|i| config.scope(|| f(&cells[i])))
        .collect()
}

/// Apply `f` to every cell serially, in cell order — the reference path
/// the determinism tests compare [`par_map`] against.
///
/// Reached by: `tests/parallel_determinism.rs`.
pub fn serial_map<C, R, F>(cells: &[C], f: F) -> Vec<R>
where
    F: Fn(&C) -> R,
{
    cells.iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let cells: Vec<usize> = (0..257).collect();
        let par = par_map(&cells, |&c| c * 3);
        let ser = serial_map(&cells, |&c| c * 3);
        assert_eq!(par, ser);
    }

    #[test]
    fn empty_grid() {
        let cells: Vec<u32> = Vec::new();
        assert!(par_map(&cells, |&c| c).is_empty());
    }
}
