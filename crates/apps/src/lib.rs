//! # archgraph-apps
//!
//! Higher-level graph algorithms built on the paper's primitives, from
//! the applications §1 motivates list ranking with ("minimum spanning
//! forest, connected components, …") and the rooted-spanning-tree line of
//! the Bader–Cong papers it cites.
//!
//! * [`tree`] — tree containers, random tree generators, and the
//!   sequential BFS oracle for rooted tree statistics.
//! * [`euler`] — the Euler-tour technique: represent a tree as a linked
//!   list of its `2(n−1)` directed arcs and *rank* that list with any of
//!   the workspace's list-ranking engines.
//! * [`msf`] — Borůvka-over-SV minimum spanning forest, composing the
//!   connectivity machinery with weighted edge selection.
//! * [`sim`] — simulated-machine drivers: the Euler tour ranked in MTA
//!   and SMP simulated memory, with `try_` entry points surfacing
//!   structured `SimError` diagnostics.
//! * [`biconn`] — Tarjan–Vishkin biconnected components: the auxiliary-
//!   graph reduction whose connectivity step runs on the parallel SV
//!   kernel (the substrate of the cited ear-decomposition work \[2\]).

#![warn(missing_docs)]

pub mod biconn;
pub mod euler;
pub mod msf;
pub mod sim;
pub mod tree;

pub use euler::EulerTour;
pub use tree::Tree;
