//! Undirected edge-list graphs.
//!
//! The Shiloach–Vishkin codes in the paper iterate over an array of edges
//! (`E[i].v1`, `E[i].v2`), treating each undirected edge in both
//! directions — the MTA code (Alg. 3) literally loops `i in 0..2m` over a
//! doubled arc array. [`EdgeList`] stores each undirected edge once; each
//! kernel walks it in both directions itself.
//!
//! Reached by: every graph suite cell (`fig2/*`, `color/*`, `bfs/*`, …).

use crate::Node;

/// An undirected edge between two vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// One endpoint.
    pub u: Node,
    /// The other endpoint.
    pub v: Node,
}

impl Edge {
    /// Construct an edge.
    pub fn new(u: Node, v: Node) -> Self {
        Edge { u, v }
    }

    /// The same edge with endpoints ordered `min, max` (canonical form for
    /// undirected dedup).
    pub fn canonical(self) -> Edge {
        if self.u <= self.v {
            self
        } else {
            Edge {
                u: self.v,
                v: self.u,
            }
        }
    }

    /// True for a self loop.
    pub fn is_loop(self) -> bool {
        self.u == self.v
    }
}

/// An undirected graph stored as a flat edge array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeList {
    /// Number of vertices (`0..n`).
    pub n: usize,
    /// The edges, each stored once in arbitrary orientation.
    pub edges: Vec<Edge>,
}

impl EdgeList {
    /// An edgeless graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        EdgeList {
            n,
            edges: Vec::new(),
        }
    }

    /// Build from `(u, v)` pairs, validating vertex ranges.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (Node, Node)>) -> Self {
        let edges: Vec<Edge> = pairs
            .into_iter()
            .map(|(u, v)| {
                assert!(
                    (u as usize) < n && (v as usize) < n,
                    "edge ({u},{v}) out of range"
                );
                Edge::new(u, v)
            })
            .collect();
        EdgeList { n, edges }
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Degree of every vertex (self loops count twice, the usual
    /// graph-theoretic convention).
    ///
    /// Reached by: `apps::biconn`'s articulation test and `csr`'s degree
    /// test, which check against it.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for e in &self.edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        deg
    }

    /// Remove self loops and duplicate undirected edges (in place),
    /// preserving no particular order. Returns the number removed.
    ///
    /// Reached by: `tests/properties.rs` (`dedup_never_changes_connectivity`).
    pub fn dedup(&mut self) -> usize {
        let before = self.edges.len();
        let mut canon: Vec<Edge> = self
            .edges
            .iter()
            .filter(|e| !e.is_loop())
            .map(|e| e.canonical())
            .collect();
        canon.sort_unstable();
        canon.dedup();
        self.edges = canon;
        before - self.edges.len()
    }

    /// True if the graph contains no self loops and no duplicate edges
    /// (up to orientation).
    ///
    /// Reached by: the generator checks in `tests/properties.rs`,
    /// `tests/failure_injection.rs` and `bench::workloads`' tests.
    pub fn is_simple(&self) -> bool {
        let mut canon: Vec<Edge> = self.edges.iter().map(|e| e.canonical()).collect();
        if canon.iter().any(|e| e.is_loop()) {
            return false;
        }
        canon.sort_unstable();
        canon.windows(2).all(|w| w[0] != w[1])
    }

    /// Append another graph's edges, relabeling its vertices by `offset`.
    /// Extends the vertex count as needed. Used to build planted-component
    /// workloads.
    pub fn append_shifted(&mut self, other: &EdgeList, offset: usize) {
        self.n = self.n.max(offset + other.n);
        for e in &other.edges {
            self.edges.push(Edge::new(
                (e.u as usize + offset) as Node,
                (e.v as usize + offset) as Node,
            ));
        }
    }

    /// Validate all endpoints are within range.
    #[cfg(test)]
    pub(crate) fn check_ranges(&self) -> bool {
        self.edges
            .iter()
            .all(|e| (e.u as usize) < self.n && (e.v as usize) < self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_orders_endpoints() {
        assert_eq!(Edge::new(5, 2).canonical(), Edge::new(2, 5));
        assert_eq!(Edge::new(2, 5).canonical(), Edge::new(2, 5));
        assert!(Edge::new(3, 3).is_loop());
    }

    #[test]
    fn from_pairs_builds_and_counts() {
        let g = EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.m(), 3);
        assert_eq!(g.n, 4);
        assert!(g.check_ranges());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_pairs_rejects_out_of_range() {
        EdgeList::from_pairs(2, [(0, 2)]);
    }

    #[test]
    fn degrees_count_loops_twice() {
        let g = EdgeList::from_pairs(3, [(0, 1), (1, 1)]);
        assert_eq!(g.degrees(), vec![1, 3, 0]);
    }

    #[test]
    fn dedup_removes_loops_and_parallels() {
        let mut g = EdgeList::from_pairs(4, [(0, 1), (1, 0), (2, 2), (3, 0), (0, 1)]);
        assert!(!g.is_simple());
        let removed = g.dedup();
        assert_eq!(removed, 3);
        assert_eq!(g.m(), 2);
        assert!(g.is_simple());
    }

    #[test]
    fn empty_graph_is_simple() {
        let g = EdgeList::empty(10);
        assert!(g.is_simple());
        assert_eq!(g.degrees(), vec![0; 10]);
    }

    #[test]
    fn append_shifted_relabels() {
        let mut a = EdgeList::from_pairs(2, [(0, 1)]);
        let b = EdgeList::from_pairs(3, [(0, 2)]);
        a.append_shifted(&b, 2);
        assert_eq!(a.n, 5);
        assert_eq!(a.edges[1], Edge::new(2, 4));
        assert!(a.check_ranges());
    }
}
