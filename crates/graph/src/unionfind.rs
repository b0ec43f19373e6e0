//! Disjoint-set union — the *best sequential* connected-components
//! implementation and the oracle against which every parallel algorithm is
//! verified.
//!
//! The paper's methodology compares parallel codes "against the best
//! sequential implementation"; for connected components on an edge list,
//! that is union-find with union by rank and path compression (effectively
//! linear: `O(m α(n))`).
//!
//! Reached by: `--bin fig2` (`scripts/reproduce_all.sh`) and `archperf`'s native-kernels `concomp` op.

use crate::edgelist::EdgeList;
use crate::Node;

/// Union-find over `0..n` with union by rank and path halving.
///
/// # Examples
/// ```
/// use archgraph_graph::unionfind::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert_eq!(uf.find(0), uf.find(1));
/// assert_ne!(uf.find(1), uf.find(2));
/// assert_eq!(uf.component_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<Node>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize);
        UnionFind {
            parent: (0..n as Node).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Representative of `x`'s set, with path halving.
    pub fn find(&mut self, mut x: Node) -> Node {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Merge the sets of `a` and `b`. Returns `true` if they were distinct.
    pub fn union(&mut self, a: Node, b: Node) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        true
    }

    /// Current number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Canonical labeling: every element mapped to the *smallest* element
    /// of its set. Two labelings describe the same partition iff their
    /// canonical forms are equal — this is the oracle comparison used by
    /// all CC tests.
    pub fn canonical_labels(&mut self) -> Vec<Node> {
        let n = self.parent.len();
        let mut min_of_root = vec![Node::MAX; n];
        for x in 0..n as Node {
            let r = self.find(x) as usize;
            if x < min_of_root[r] {
                min_of_root[r] = x;
            }
        }
        (0..n as Node)
            .map(|x| min_of_root[self.find(x) as usize])
            .collect()
    }
}

/// Sequential connected components of an edge list via union-find.
/// Returns the canonical (min-vertex) labeling.
pub fn connected_components(g: &EdgeList) -> Vec<Node> {
    let mut uf = UnionFind::new(g.n);
    for e in &g.edges {
        uf.union(e.u, e.v);
    }
    uf.canonical_labels()
}

/// Number of connected components of an edge list.
///
/// Reached by: frozen benchmarks/src (`cells.rs`, the native-kernels
/// `concomp` op).
pub fn component_count(g: &EdgeList) -> usize {
    let mut uf = UnionFind::new(g.n);
    for e in &g.edges {
        uf.union(e.u, e.v);
    }
    uf.component_count()
}

/// Normalize an arbitrary component labeling to canonical min-vertex form,
/// so labelings from different algorithms can be compared directly.
///
/// `labels[v]` may be any value that is equal for two vertices iff they
/// share a component — it need not itself be a vertex id.
pub fn canonicalize_labels(labels: &[Node]) -> Vec<Node> {
    let n = labels.len();
    // Map each distinct label to the smallest vertex carrying it. Labels
    // are arbitrary u32s, so use a sort-based grouping (O(n log n), no
    // hashing).
    let mut order: Vec<Node> = (0..n as Node).collect();
    order.sort_unstable_by_key(|&v| labels[v as usize]);
    let mut out = vec![0 as Node; n];
    let mut i = 0;
    while i < n {
        let lab = labels[order[i] as usize];
        let mut j = i;
        let mut min_v = Node::MAX;
        while j < n && labels[order[j] as usize] == lab {
            min_v = min_v.min(order[j]);
            j += 1;
        }
        for &v in &order[i..j] {
            out[v as usize] = min_v;
        }
        i = j;
    }
    out
}

/// True iff two labelings induce the same partition of the vertices.
pub fn same_partition(a: &[Node], b: &[Node]) -> bool {
    a.len() == b.len() && canonicalize_labels(a) == canonicalize_labels(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn singletons_then_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already joined");
        assert_eq!(uf.component_count(), 3);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn canonical_labels_use_min_vertex() {
        let mut uf = UnionFind::new(4);
        uf.union(3, 1);
        uf.union(2, 0);
        assert_eq!(uf.canonical_labels(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn cc_on_structured_graphs() {
        assert_eq!(component_count(&gen::path(10)), 1);
        assert_eq!(component_count(&gen::cycle(10)), 1);
        assert_eq!(component_count(&gen::star(10)), 1);
        assert_eq!(component_count(&gen::mesh2d(4, 4)), 1);
        assert_eq!(component_count(&EdgeList::empty(7)), 7);
    }

    #[test]
    fn cc_on_planted_components() {
        let g = gen::planted_components(6, 9, 2, 1);
        assert_eq!(component_count(&g), 6);
        let labels = connected_components(&g);
        // All vertices of blob b share label b * 9.
        for b in 0..6 {
            for v in 0..9usize {
                assert_eq!(labels[b * 9 + v], (b * 9) as Node);
            }
        }
    }

    #[test]
    fn isolated_vertices_self_label() {
        let g = gen::with_isolated(&gen::path(3), 2);
        let labels = connected_components(&g);
        assert_eq!(labels, vec![0, 0, 0, 3, 4]);
    }

    #[test]
    fn canonicalize_arbitrary_labels() {
        // Labels 7/7/9/9 over 4 vertices == partition {0,1},{2,3}.
        let canon = canonicalize_labels(&[7, 7, 9, 9]);
        assert_eq!(canon, vec![0, 0, 2, 2]);
    }

    #[test]
    fn same_partition_ignores_label_values() {
        assert!(same_partition(&[5, 5, 2], &[0, 0, 9]));
        assert!(!same_partition(&[5, 5, 2], &[0, 1, 2]));
        assert!(!same_partition(&[0, 0], &[0, 0, 0]), "length mismatch");
        assert!(same_partition(&[], &[]));
    }

    #[test]
    fn empty_unionfind() {
        let mut uf = UnionFind::new(0);
        assert_eq!(uf.component_count(), 0);
        assert!(uf.canonical_labels().is_empty());
    }

    #[test]
    fn deep_union_chain_stays_shallow() {
        // Path-halving + rank keeps find cheap even for a long chain.
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n as Node - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        // After finds, every parent chain is short; spot-check the labels.
        let labels = uf.canonical_labels();
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn matches_bfs_reachability_on_random_graph() {
        let g = gen::random_gnm(300, 280, 13);
        let labels = connected_components(&g);
        let csr = crate::csr::Csr::from_edge_list(&g);
        // BFS oracle-of-the-oracle.
        let mut seen = vec![false; g.n];
        for start in 0..g.n as Node {
            if seen[start as usize] {
                continue;
            }
            let mut stack = vec![start];
            seen[start as usize] = true;
            while let Some(v) = stack.pop() {
                assert_eq!(labels[v as usize], labels[start as usize]);
                for &w in csr.neighbors(v) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
        }
    }
}
