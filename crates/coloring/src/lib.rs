//! # archgraph-coloring
//!
//! Speculative greedy graph coloring — the next rung of the paper's
//! workload ladder after list ranking and connected components. Distance-1
//! coloring has the access pattern the paper's thesis is about: every
//! vertex reads the colors of an *unpredictable* neighbor set, so the
//! kernel is all non-contiguous reads with almost no computation between
//! them, and the parallel formulation (Gebremedhin–Manne style
//! speculate-then-fix) adds fine-grained concurrent writes that the MTA
//! absorbs with full/empty tags while an SMP pays coherence misses.
//!
//! The algorithm, identically structured on all three targets:
//!
//! ```text
//! W = V
//! while W not empty:
//!     for v in W (parallel):            // speculate
//!         c(v) = smallest color not used by any colored neighbor
//!     W' = { v in W | exists neighbor w < v with c(w) == c(v) }  // detect
//!     W = W'                            // re-color only the losers
//! ```
//!
//! Conflicts are broken by vertex id (the *lower* endpoint keeps its
//! color), so the minimum of `W` leaves the worklist every round and the
//! fixpoint takes at most `|V|` rounds — in practice a handful. Every
//! speculated color is a first-fit against at most `deg(v)` forbidden
//! colors, so the fixpoint uses at most `Δ + 1` colors, same as the
//! sequential greedy oracle.
//!
//! * [`seq`] — the validator every kernel's coloring is checked with
//!   (properness and the `Δ + 1` bound), and sequential first-fit greedy
//!   for its unit tests.
//! * [`native`] — speculate-then-fix with atomics + rayon.
//! * [`sim_smp`] — the rounds lowered onto the SMP cost model.
//! * [`sim_mta`] — the rounds as micro-ISA programs on the MTA simulator,
//!   with `int_fetch_add` worklist claiming and a full/empty-tagged
//!   conflict check.

#![warn(missing_docs)]

pub mod native;
pub mod seq;
pub mod sim_mta;
pub mod sim_smp;

pub use native::{speculative_coloring, NativeColoring};
pub use seq::validate_coloring;
