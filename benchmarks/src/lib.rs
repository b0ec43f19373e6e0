//! # archperf
//!
//! The layered host-time benchmark for this repository: six workloads,
//! seven end-to-end metrics from an untraced run, and per-layer metrics
//! from a traced run, all measured from outside through the crates' public
//! functions. `README.md` has the tables; `BENCHMARK.json` at the repo
//! root is the contract the driver reads.

#![warn(missing_docs)]

pub mod cells;
pub mod compare;
pub mod daemon;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
