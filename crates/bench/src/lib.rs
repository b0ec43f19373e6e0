//! # archgraph-bench
//!
//! The figure/table regeneration harness: shared workload construction,
//! sweep configuration, the one cell dispatch ([`CellSpec::run_full`]), the
//! one recorded cell (`sweep::point_cell`, one [`CellPoint`] per cell) and
//! the one sweep over them (`sweep::run_cells`, assembled into series by
//! `sweep::run_panel`) that the `fig1`, `fig2`, `table1`, `calibrate`,
//! `all` and `bench` binaries and `archgraphd` call.
//!
//! Every experiment is documented in `DESIGN.md`'s per-experiment index and
//! records paper-vs-measured results in `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod cells;
pub mod cli;
pub mod fig1;
pub mod fig2;
pub mod grid;
pub mod guard;
pub mod kernels;
pub mod scale;
pub mod signals;
pub mod sweep;
pub mod table1;
pub mod workloads;

pub use archgraph_core::RunConfig;
pub use cells::{bench_suite, CellSpec, Fingerprint, Kernel, MachineKind};
pub use guard::last_or_exit;
pub use scale::{parse_scale_args, scale_or_usage, usage_error, Scale};
pub use sweep::{CellFailure, CellOutcome, CellPoint, Checkpoint, PanelSweep};
