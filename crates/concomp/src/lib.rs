//! # archgraph-concomp
//!
//! Connected components — §4 of the paper — as the study measures it:
//!
//! * [`sv`] — Shiloach–Vishkin as printed in the paper's Alg. 2:
//!   conditional graft, star-check graft, termination test, one pointer
//!   jump per iteration. Natively parallel (atomics + rayon).
//! * [`sv_mta`] — the paper's Alg. 3 variant: graft-to-smaller plus
//!   **full** shortcutting each iteration, eliminating the star check.
//! * [`star`] — the star-detection subroutine Alg. 2 needs (and Alg. 3
//!   exists to avoid).
//! * [`sim_smp`] / [`sim_mta`] — SV lowered onto the two architecture
//!   simulators (the Fig. 2 pipelines).
//!
//! Every algorithm returns a component labeling `D` with `D[v] == D[D[v]]`
//! (rooted stars); labelings are compared as partitions against the
//! *best sequential* comparators, which live in the graph substrate:
//! union-find (`archgraph_graph::unionfind`) and BFS over CSR
//! (`archgraph_graph::bfs::bfs_components`).
//!
//! Shiloach–Vishkin and each of its simulated lowerings have one
//! `Result`-returning `try_` entry that takes every option ([`try_shiloach_vishkin`]'s iteration bound,
//! [`sim_mta::try_simulate_sv_mta`]'s [`sim_mta::SvMtaConfig`]) and one
//! panicking form with the paper's defaults.

#![warn(missing_docs)]

pub mod sim_mta;
pub mod sim_smp;
pub mod star;
pub mod sv;
pub mod sv_mta;

pub use sv::{shiloach_vishkin, try_shiloach_vishkin};
pub use sv_mta::sv_mta_style;
