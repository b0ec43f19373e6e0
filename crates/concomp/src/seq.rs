//! Best sequential connected-components baselines.
//!
//! The paper's methodology compares every parallel implementation "against
//! the best sequential implementation". For edge-list inputs that is
//! union-find (re-exported from the graph substrate); BFS over CSR is the
//! traversal-based alternative used as a second oracle and as the
//! depth-first-search stand-in Greiner compared against.
//!
//! Reached by: `tests/properties.rs` only (the BFS oracle of the SV property
//! tests). No claim test, suite cell, bin, workload or op reaches it; ROADMAP
//! item 4 leaves it to fold into `graph::bfs`.

use archgraph_graph::csr::Csr;
use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::Node;

pub use archgraph_graph::unionfind::{
    component_count, connected_components as unionfind_components,
};

/// Connected components by BFS over a CSR adjacency; returns min-vertex
/// canonical labels.
pub fn bfs_components(g: &EdgeList) -> Vec<Node> {
    let csr = Csr::from_edge_list(g);
    let n = g.n;
    let mut label = vec![Node::MAX; n];
    let mut queue: Vec<Node> = Vec::new();
    for start in 0..n as Node {
        if label[start as usize] != Node::MAX {
            continue;
        }
        label[start as usize] = start;
        queue.clear();
        queue.push(start);
        let mut qi = 0;
        while qi < queue.len() {
            let v = queue[qi];
            qi += 1;
            for &w in csr.neighbors(v) {
                if label[w as usize] == Node::MAX {
                    label[w as usize] = start;
                    queue.push(w);
                }
            }
        }
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::gen;
    use archgraph_graph::unionfind::same_partition;

    #[test]
    fn bfs_matches_unionfind_on_random_graphs() {
        for seed in 0..5u64 {
            let g = gen::random_gnm(400, 350, seed);
            assert!(same_partition(
                &bfs_components(&g),
                &unionfind_components(&g)
            ));
        }
    }

    #[test]
    fn bfs_labels_are_min_vertex() {
        let g = gen::planted_components(3, 5, 1, 2);
        let labels = bfs_components(&g);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[5], 5);
        assert_eq!(labels[10], 10);
    }

    #[test]
    fn bfs_on_empty_and_edgeless() {
        assert!(bfs_components(&EdgeList::empty(0)).is_empty());
        let labels = bfs_components(&EdgeList::empty(4));
        assert_eq!(labels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_single_component_structures() {
        for g in [
            gen::path(50),
            gen::cycle(50),
            gen::star(50),
            gen::mesh2d(5, 10),
        ] {
            let labels = bfs_components(&g);
            assert!(labels.iter().all(|&l| l == 0), "one component");
        }
    }
}
