//! # archgraph-core
//!
//! Shared foundation for the `archgraph` reproduction of Bader, Cong & Feo,
//! *"On the Architectural Requirements for Efficient Execution of Graph
//! Algorithms"* (ICPP 2005).
//!
//! This crate holds everything the algorithm crates and both architecture
//! simulators agree on:
//!
//! * [`cost`] — the Helman–JáJá complexity triplet `T(n,p) = ⟨T_M; T_C; B⟩`
//!   used throughout the paper, plus closed-form instances for every
//!   algorithm the paper analyzes.
//! * [`machine`] — parameter records describing the two machine classes
//!   (Sun E4500-class SMP, Cray MTA-2) consumed by the simulators and the
//!   analytic model.
//! * [`predict`] — analytic running-time predictions derived from the cost
//!   model; the simulators are cross-validated against these in tests.
//! * [`experiment`] — figure series: labelled `(n, p, seconds)` points
//!   that the sweeps produce and `report` / `plot` render.
//! * [`fault`] — deterministic fault plans (latency
//!   spikes, stuck tags, per-processor stalls, degraded links, brownouts)
//!   consumed by both simulators.
//! * [`report`] — fixed-width table and CSV rendering shared by the figure
//!   regeneration binaries.
//!
//! The crate is deliberately dependency-light so that every other crate in
//! the workspace can build on it.

#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod experiment;
pub mod fault;
pub mod machine;
pub mod plot;
pub mod predict;
pub mod report;
pub mod shared;

pub use cost::Complexity;
pub use error::{BlockedStream, SimError};
pub use fault::{with_fault_plan, FaultPlan, FAULTS_ENV};
pub use machine::{MtaParams, SmpParams};
pub use shared::SharedSlice;
