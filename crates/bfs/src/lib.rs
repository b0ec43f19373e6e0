//! # archgraph-bfs
//!
//! Frontier-based breadth-first search — the load-balancing stress test
//! of the workload ladder. Per level the kernel expands every frontier
//! vertex's CSR row, and row lengths are skewed on the paper's random
//! graphs (and wildly so on stars), so *how iterations are handed to streams*
//! dominates: a static block schedule strands whole processors behind one
//! hub vertex while `int_fetch_add` dynamic claiming (the paper's §3
//! idiom) keeps every stream fed. The kernel also leans on the second MTA
//! theme: discovery is a race, settled with one atomic `int_fetch_add`
//! claim per edge, so no locks and no level-wide dedup passes exist
//! anywhere.
//!
//! Levels are deterministic whatever order the races resolve — a vertex
//! is claimed the first level it is reachable — so every implementation
//! is validated cell-for-cell against the sequential queue oracle
//! `archgraph_graph::bfs::bfs_levels`.
//!
//! * [`native`] — direction-optimizing BFS on rayon: top-down chunks with
//!   load-then-claim discovery on narrow levels, bottom-up parent search
//!   on the wide middle ones (Beamer et al.'s α/β switch).
//! * [`sim_smp`] — level-synchronous phases on the SMP cost model.
//! * [`sim_mta`] — micro-ISA frontier programs with dynamic claiming.

#![warn(missing_docs)]

pub mod native;
pub mod sim_mta;
pub mod sim_smp;

pub use native::{parallel_bfs, NativeBfs};
