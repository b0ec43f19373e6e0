//! Tree containers, generators, and the sequential rooted-statistics
//! oracle.
//!
//! Reached by: the `euler/mta/p8` and `euler/smp/p8` suite cells (the tree each tour ranks).

use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::rng::Rng;
use archgraph_graph::Node;
#[cfg(test)]
use archgraph_graph::NIL;

/// A validated free tree on `n ≥ 1` vertices (`n − 1` edges, connected).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    edges: EdgeList,
}

impl Tree {
    /// Wrap an edge list after checking it is a tree.
    #[cfg(test)]
    pub(crate) fn new(edges: EdgeList) -> Result<Tree, TreeError> {
        let n = edges.n;
        if n == 0 {
            return Err(TreeError::Empty);
        }
        if edges.m() != n - 1 {
            return Err(TreeError::WrongEdgeCount { n, m: edges.m() });
        }
        let mut uf = archgraph_graph::unionfind::UnionFind::new(n);
        for e in &edges.edges {
            if !uf.union(e.u, e.v) {
                return Err(TreeError::HasCycle);
            }
        }
        // n-1 successful unions on n vertices leaves exactly 1 component.
        Ok(Tree { edges })
    }

    /// The underlying edge list.
    pub fn edges(&self) -> &EdgeList {
        &self.edges
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.edges.n
    }

    /// A uniform random recursive tree: vertex `i ≥ 1` attaches to a
    /// uniform vertex in `0..i`.
    pub fn random_attachment(n: usize, seed: u64) -> Tree {
        assert!(n >= 1);
        let mut rng = Rng::new(seed);
        let pairs: Vec<(Node, Node)> = (1..n)
            .map(|i| (rng.below(i as u64) as Node, i as Node))
            .collect();
        Tree {
            edges: EdgeList::from_pairs(n, pairs),
        }
    }

    /// A path graph as a tree.
    #[cfg(test)]
    pub(crate) fn path(n: usize) -> Tree {
        assert!(n >= 1);
        Tree {
            edges: archgraph_graph::gen::path(n),
        }
    }

    /// A star as a tree.
    #[cfg(test)]
    pub(crate) fn star(n: usize) -> Tree {
        assert!(n >= 1);
        Tree {
            edges: archgraph_graph::gen::star(n),
        }
    }

    /// A complete binary tree.
    #[cfg(test)]
    pub(crate) fn binary(n: usize) -> Tree {
        assert!(n >= 1);
        Tree {
            edges: archgraph_graph::gen::binary_tree(n),
        }
    }

    /// Sequential oracle: parents, depths and subtree sizes from a BFS
    /// rooted at `root`. The Euler-tour and tree unit tests hold tour
    /// parents and tree statistics to it.
    #[cfg(test)]
    pub(crate) fn rooted_oracle(&self, root: Node) -> OracleStats {
        let n = self.n();
        let csr = archgraph_graph::csr::Csr::from_edge_list(&self.edges);
        let mut parent = vec![NIL; n];
        let mut depth = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        parent[root as usize] = root;
        order.push(root);
        let mut qi = 0;
        while qi < order.len() {
            let v = order[qi];
            qi += 1;
            for &w in csr.neighbors(v) {
                if parent[w as usize] == NIL {
                    parent[w as usize] = v;
                    depth[w as usize] = depth[v as usize] + 1;
                    order.push(w);
                }
            }
        }
        assert_eq!(order.len(), n, "tree must be connected");
        let mut size = vec![1u32; n];
        for &v in order.iter().rev() {
            if v != root {
                size[parent[v as usize] as usize] += size[v as usize];
            }
        }
        parent[root as usize] = NIL; // the root has no parent
        OracleStats {
            parent,
            depth,
            size,
        }
    }
}

/// Rooted statistics from the sequential oracle.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleStats {
    /// `parent[v]` (NIL for the root).
    pub parent: Vec<Node>,
    /// `depth[v]` (0 for the root).
    pub depth: Vec<u32>,
    /// `size[v]` = vertices in the subtree rooted at `v`.
    pub size: Vec<u32>,
}

/// Validation failures for [`Tree::new`].
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Zero vertices.
    Empty,
    /// `m ≠ n − 1`.
    WrongEdgeCount {
        /// Vertex count.
        n: usize,
        /// Edge count found.
        m: usize,
    },
    /// Contains a cycle (or duplicate edge).
    HasCycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_accepts_trees() {
        assert!(Tree::new(archgraph_graph::gen::path(10)).is_ok());
        assert!(Tree::new(archgraph_graph::gen::star(5)).is_ok());
        assert!(Tree::new(archgraph_graph::gen::binary_tree(31)).is_ok());
    }

    #[test]
    fn validation_rejects_non_trees() {
        assert_eq!(Tree::new(EdgeList::empty(0)).unwrap_err(), TreeError::Empty);
        assert!(matches!(
            Tree::new(archgraph_graph::gen::cycle(5)).unwrap_err(),
            TreeError::WrongEdgeCount { .. }
        ));
        // Right count but cyclic: triangle + isolated vertex.
        let g = EdgeList::from_pairs(4, [(0, 1), (1, 2), (2, 0)]);
        assert_eq!(Tree::new(g).unwrap_err(), TreeError::HasCycle);
    }

    #[test]
    fn random_attachment_is_a_tree() {
        for seed in 0..5 {
            let t = Tree::random_attachment(200, seed);
            assert!(Tree::new(t.edges().clone()).is_ok());
        }
    }

    #[test]
    fn oracle_on_a_path() {
        let t = Tree::path(5);
        let s = t.rooted_oracle(0);
        assert_eq!(s.parent, vec![NIL, 0, 1, 2, 3]);
        assert_eq!(s.depth, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.size, vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn oracle_rooted_mid_path() {
        let t = Tree::path(5);
        let s = t.rooted_oracle(2);
        assert_eq!(s.depth, vec![2, 1, 0, 1, 2]);
        assert_eq!(s.size[2], 5);
        assert_eq!(s.parent[2], NIL);
        assert_eq!(s.parent[1], 2);
        assert_eq!(s.parent[3], 2);
    }

    #[test]
    fn oracle_on_a_star() {
        let t = Tree::star(6);
        let s = t.rooted_oracle(0);
        assert_eq!(s.size[0], 6);
        assert!(s.depth[1..].iter().all(|&d| d == 1));
        assert!(s.size[1..].iter().all(|&k| k == 1));
    }

    #[test]
    fn singleton_tree() {
        let t = Tree::new(EdgeList::empty(1)).unwrap();
        let s = t.rooted_oracle(0);
        assert_eq!(s.parent, vec![NIL]);
        assert_eq!(s.size, vec![1]);
    }

    #[test]
    fn subtree_sizes_sum_to_path_counts() {
        let t = Tree::random_attachment(300, 9);
        let s = t.rooted_oracle(0);
        // Sum of subtree sizes = sum over vertices of (depth + 1).
        let lhs: u64 = s.size.iter().map(|&x| x as u64).sum();
        let rhs: u64 = s.depth.iter().map(|&d| d as u64 + 1).sum();
        assert_eq!(lhs, rhs);
    }
}
