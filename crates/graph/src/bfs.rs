//! Sequential breadth-first oracles.
//!
//! The frontier-based BFS kernels (native, simulated SMP, simulated MTA)
//! are validated against this queue-based traversal: whatever order a
//! parallel frontier expands in, the *level* of every vertex — the length
//! of a shortest edge path from the source — is unique, so `levels` is
//! the canonical answer all of them must reproduce exactly.
//!
//! [`bfs_components`] runs the same traversal from every unvisited vertex:
//! the traversal-based connected-components oracle, beside union-find, that
//! the Shiloach–Vishkin property tests check against.
//!
//! Reached by: `archperf`'s native-kernels `bfs` op and the `bfs/*` suite cells' oracle.

use std::collections::VecDeque;

use crate::csr::Csr;
use crate::edgelist::EdgeList;
use crate::{Node, NIL};

/// Breadth-first levels from `src`: `levels[v]` is the shortest-path edge
/// distance from `src` to `v`, or [`NIL`] if `v` is unreachable.
pub fn bfs_levels(g: &Csr, src: Node) -> Vec<Node> {
    let n = g.n();
    assert!((src as usize) < n, "source out of range");
    let mut levels = vec![NIL; n];
    levels[src as usize] = 0;
    let mut queue = VecDeque::with_capacity(n.min(1024));
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let next = levels[v as usize] + 1;
        for &w in g.neighbors(v) {
            if levels[w as usize] == NIL {
                levels[w as usize] = next;
                queue.push_back(w);
            }
        }
    }
    levels
}

/// The number of non-empty BFS levels from `src` (0 levels only for an
/// empty graph is impossible — the source itself is level 0, so this is
/// `1 + eccentricity(src)` restricted to the reachable component).
pub fn level_count(levels: &[Node]) -> usize {
    levels
        .iter()
        .filter(|&&l| l != NIL)
        .map(|&l| l as usize + 1)
        .max()
        .unwrap_or(0)
}

/// Connected components by BFS over a CSR adjacency; returns min-vertex
/// canonical labels.
///
/// Reached by: `tests/properties.rs`, a second oracle beside union-find
/// for every connectivity kernel.
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
    use crate::gen;
    use crate::unionfind::{connected_components, same_partition};

    #[test]
    fn path_levels_are_positions() {
        let g = Csr::from_edge_list(&gen::path(10));
        let l = bfs_levels(&g, 0);
        let expect: Vec<Node> = (0..10).collect();
        assert_eq!(l, expect);
        assert_eq!(level_count(&l), 10);
    }

    #[test]
    fn star_has_two_levels_from_center() {
        let g = Csr::from_edge_list(&gen::star(50));
        let l = bfs_levels(&g, 0);
        assert_eq!(l[0], 0);
        assert!(l[1..].iter().all(|&x| x == 1));
        assert_eq!(level_count(&l), 2);
        // From a leaf: center is 1, other leaves are 2.
        let l = bfs_levels(&g, 7);
        assert_eq!(l[7], 0);
        assert_eq!(l[0], 1);
        assert_eq!(l[13], 2);
    }

    #[test]
    fn unreachable_vertices_are_nil() {
        let g = Csr::from_edge_list(&gen::with_isolated(&gen::path(5), 3));
        let l = bfs_levels(&g, 0);
        assert_eq!(&l[..5], &[0, 1, 2, 3, 4]);
        assert!(l[5..].iter().all(|&x| x == NIL));
    }

    #[test]
    fn levels_satisfy_edge_relaxation() {
        // Every edge's endpoints differ by at most one level, and every
        // non-source vertex has a neighbor exactly one level below.
        let el = gen::random_gnm(300, 700, 21);
        let g = Csr::from_edge_list(&el);
        let l = bfs_levels(&g, 3);
        for v in 0..300u32 {
            if l[v as usize] == NIL || v == 3 {
                continue;
            }
            let lv = l[v as usize];
            let mut has_parent = false;
            for &w in g.neighbors(v) {
                assert!(l[w as usize] != NIL);
                assert!(l[w as usize] + 1 >= lv);
                has_parent |= l[w as usize] + 1 == lv;
            }
            assert!(has_parent, "vertex {v} has no parent level");
        }
    }

    #[test]
    fn torus_is_symmetric() {
        let g = Csr::from_edge_list(&gen::torus2d(6, 6));
        let l = bfs_levels(&g, 0);
        // Opposite corner of a 6x6 torus is 3+3 hops away.
        assert_eq!(l[3 * 6 + 3], 6);
        assert_eq!(level_count(&l), 7);
    }

    #[test]
    fn bfs_matches_unionfind_on_random_graphs() {
        for seed in 0..5u64 {
            let g = gen::random_gnm(400, 350, seed);
            assert!(same_partition(
                &bfs_components(&g),
                &connected_components(&g)
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
