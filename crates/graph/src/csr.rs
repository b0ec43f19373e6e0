//! Compressed sparse row (adjacency) representation.
//!
//! The BFS-based sequential connected-components baseline and several tests
//! need neighbor iteration, which the flat edge list cannot provide
//! efficiently. [`Csr`] is built from an [`EdgeList`] with both directions
//! materialized, using the standard counting-sort construction (two
//! contiguous passes — cache friendly, matching how the paper's sequential
//! codes would be written).
//!
//! Reached by: the `color/*` and `bfs/*` suite cells.

use crate::edgelist::EdgeList;
use crate::Node;

/// A compressed-sparse-row adjacency structure for an undirected graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v+1]` indexes `targets` with `v`'s neighbors.
    pub offsets: Vec<usize>,
    /// Concatenated neighbor lists.
    pub targets: Vec<Node>,
}

impl Csr {
    /// Build from an edge list, inserting each undirected edge in both
    /// directions (self loops appear once per loop in their vertex's list).
    pub fn from_edge_list(g: &EdgeList) -> Self {
        let n = g.n;
        let mut counts = vec![0usize; n + 1];
        for e in &g.edges {
            counts[e.u as usize + 1] += 1;
            if e.u != e.v {
                counts[e.v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0 as Node; offsets[n]];
        for e in &g.edges {
            targets[cursor[e.u as usize]] = e.v;
            cursor[e.u as usize] += 1;
            if e.u != e.v {
                targets[cursor[e.v as usize]] = e.u;
                cursor[e.v as usize] += 1;
            }
        }
        Csr { offsets, targets }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbors of `v`.
    pub fn neighbors(&self, v: Node) -> &[Node] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v` in the CSR (self loops count once here).
    pub fn degree(&self, v: Node) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Total directed arc count stored.
    pub fn arc_count(&self) -> usize {
        self.targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;

    #[test]
    fn builds_symmetric_adjacency() {
        let g = EdgeList::from_pairs(4, [(0, 1), (1, 2), (0, 3)]);
        let c = Csr::from_edge_list(&g);
        assert_eq!(c.n(), 4);
        assert_eq!(c.arc_count(), 6);
        let mut n0 = c.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 3]);
        assert_eq!(c.neighbors(2), &[1]);
        assert_eq!(c.degree(1), 2);
    }

    #[test]
    fn empty_graph() {
        let c = Csr::from_edge_list(&EdgeList::empty(3));
        assert_eq!(c.n(), 3);
        assert_eq!(c.arc_count(), 0);
        assert!(c.neighbors(0).is_empty());
    }

    #[test]
    fn self_loop_appears_once() {
        let g = EdgeList::from_pairs(2, [(0, 0), (0, 1)]);
        let c = Csr::from_edge_list(&g);
        let mut n0 = c.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![0, 1]);
        assert_eq!(c.degree(0), 2);
    }

    #[test]
    fn isolated_vertices_have_no_neighbors() {
        let g = EdgeList::from_pairs(5, [(0, 1)]);
        let c = Csr::from_edge_list(&g);
        for v in 2..5 {
            assert_eq!(c.degree(v), 0);
        }
    }

    #[test]
    fn degrees_match_edgelist_for_simple_graphs() {
        let g = EdgeList::from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let c = Csr::from_edge_list(&g);
        let deg = g.degrees();
        for (v, &d) in deg.iter().enumerate() {
            assert_eq!(c.degree(v as Node), d);
        }
    }
}
