//! # archgraph
//!
//! A production-quality Rust reproduction of
//!
//! > David A. Bader, Guojing Cong, John Feo.
//! > *On the Architectural Requirements for Efficient Execution of Graph
//! > Algorithms.* ICPP 2005.
//!
//! The paper studies two irregular graph kernels — **list ranking** and
//! **Shiloach–Vishkin connected components** — on two shared-memory
//! architecture classes: cache-based symmetric multiprocessors (Sun E4500)
//! and the latency-tolerant Cray MTA-2 multithreaded architecture. Since
//! neither machine is available, this workspace builds faithful
//! cycle-accounting simulators of both, implements the algorithms the
//! paper measures, and regenerates every figure and table of the
//! evaluation.
//!
//! This crate is a facade that re-exports the workspace's public API:
//!
//! * [`core`] — cost model `⟨T_M; T_C; B⟩`, machine
//!   parameters, experiment harness, reporting.
//! * [`graph`] — lists, edge lists, CSR, generators,
//!   union-find oracle.
//! * [`smp`](archgraph_smp_sim) — the SMP (Sun E4500-class) simulator.
//! * [`mta`](archgraph_mta_sim) — the Cray MTA-2 simulator.
//! * [`listrank`] — list-ranking algorithms.
//! * [`concomp`] — connected-components algorithms.
//! * [`coloring`] — speculative greedy graph coloring.
//! * [`bfs`] — frontier-based breadth-first search.
//! * [`apps`] — applications built on the primitives:
//!   Euler tours, minimum spanning forests, biconnected components.
//!
//! ## Quick start
//!
//! ```
//! use archgraph::graph::{gen, unionfind};
//! use archgraph::concomp;
//!
//! // A random graph in the paper's style: n vertices, m unique edges.
//! let g = gen::random_gnm(1 << 12, 1 << 14, 42);
//!
//! // Parallel Shiloach–Vishkin, then check against the sequential oracle.
//! let labels = concomp::sv::shiloach_vishkin(&g);
//! assert!(unionfind::same_partition(
//!     &labels,
//!     &unionfind::connected_components(&g),
//! ));
//! ```

pub use archgraph_apps as apps;
pub use archgraph_bfs as bfs;
pub use archgraph_coloring as coloring;
pub use archgraph_concomp as concomp;
pub use archgraph_core as core;
pub use archgraph_graph as graph;
pub use archgraph_listrank as listrank;
pub use archgraph_mta_sim as mta;
pub use archgraph_smp_sim as smp;
