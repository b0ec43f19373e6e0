//! # archgraph-concomp
//!
//! Connected components — §4 of the paper — as the study measures it:
//!
//! * [`seq`] — the *best sequential* comparators: union-find (effectively
//!   linear) and BFS over CSR.
//! * [`sv`] — Shiloach–Vishkin as printed in the paper's Alg. 2:
//!   conditional graft, star-check graft, termination test, one pointer
//!   jump per iteration. Natively parallel (atomics + rayon).
//! * [`sv_mta`] — the paper's Alg. 3 variant: graft-to-smaller plus
//!   **full** shortcutting each iteration, eliminating the star check.
//! * [`star`] — the star-detection subroutine Alg. 2 needs (and Alg. 3
//!   exists to avoid).
//! * [`sim_smp`] / [`sim_mta`] — SV lowered onto the two architecture
//!   simulators (the Fig. 2 pipelines).
//! * [`spanning`] — spanning forests recovered from SV graft witnesses,
//!   the primitive behind the Bader–Cong spanning-tree work the paper
//!   cites.
//!
//! Every algorithm returns a component labeling `D` with `D[v] == D[D[v]]`
//! (rooted stars); labelings are compared as partitions against the
//! union-find oracle.

#![warn(missing_docs)]

pub mod seq;
pub mod sim_mta;
pub mod sim_smp;
pub mod spanning;
pub mod star;
pub mod sv;
pub mod sv_mta;

pub use sv::{shiloach_vishkin, try_shiloach_vishkin, try_shiloach_vishkin_bounded};
pub use sv_mta::sv_mta_style;
