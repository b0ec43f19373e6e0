//! # archgraph-graph
//!
//! Data substrate for the `archgraph` reproduction: the linked-list and
//! graph containers, workload generators, and sequential oracles that both
//! algorithm crates (`archgraph-listrank`, `archgraph-concomp`) and the
//! figure harnesses consume.
//!
//! * [`rng`] — deterministic, seedable pseudo-random generators
//!   (SplitMix64 and xoshiro256**) so every experiment is reproducible from
//!   a `u64` seed.
//! * [`list`] — linked lists laid out in arrays, in the paper's two classes:
//!   **Ordered** (node `i` at array slot `i`) and **Random** (successive
//!   elements placed by a uniform random permutation), plus the
//!   `n(n−1)/2 − Σ next` head-finding identity from §3.
//! * [`edgelist`] / [`csr`] — edge-list and compressed-sparse-row graph
//!   containers with `u32` vertex ids.
//! * [`gen`] — workload generators: the paper's LEDA-style `G(n, m)` random
//!   graph, meshes and tori (the Krishnamurthy et al. comparison
//!   topologies), paths, cycles, stars, trees, planted components.
//! * [`unionfind`] — a rank + path-halving disjoint-set union, which serves
//!   as the *best sequential* connected-components baseline and the test
//!   oracle.
//! * [`bfs`] — the sequential breadth-first level oracle the BFS kernels
//!   must reproduce.

#![warn(missing_docs)]

pub mod bfs;
pub mod csr;
pub mod edgelist;
pub mod gen;
pub mod list;
pub mod rng;
pub mod unionfind;

pub use csr::Csr;
pub use edgelist::{Edge, EdgeList};
pub use list::LinkedList;
pub use rng::Rng;
pub use unionfind::UnionFind;

/// Vertex / list-node identifier. `u32` keeps the big paper-scale arrays
/// (20 M-element lists, 20 M-edge graphs) at half the footprint of `usize`
/// and matches the containers' cache behaviour to the original C codes.
pub type Node = u32;

/// Sentinel meaning "no node" (list terminator, absent parent, ...).
pub const NIL: Node = u32::MAX;
