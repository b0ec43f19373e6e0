//! The Euler-tour technique (Cong & Bader, ICPP 2004 — reference \[13\] of
//! the paper): represent a rooted tree as a linked list over its
//! `2(n−1)` directed arcs and hand the ranking to a list-ranking engine.
//!
//! Arc `2i` is edge `i` traversed `u → v`; arc `2i+1` is its twin. The
//! tour successor of an arc `a = (u → v)` is the arc after `twin(a)` in
//! `v`'s rotation (cyclic adjacency order). Starting at the root's first
//! out-arc and cutting the cycle before it returns yields a list whose
//! *ranks are the tour positions*.
//!
//! Reached by: the `euler/mta/p8` and `euler/smp/p8` suite cells (through [`crate::sim`]).

use archgraph_graph::list::LinkedList;
use archgraph_graph::Node;
use archgraph_listrank::{helman_jaja, sequential_rank, HjConfig};

use crate::tree::Tree;

/// Which list-ranking engine ranks the tour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ranker {
    /// Sequential pointer chasing.
    Sequential,
    /// Helman–JáJá with the given thread count.
    HelmanJaja(usize),
}

/// A rooted Euler tour with arc ranks.
#[derive(Debug, Clone)]
pub struct EulerTour {
    /// The root vertex.
    pub root: Node,
    /// Arc sources: `from[a]` for arc `a` (`2i` = edge i forward).
    pub from: Vec<Node>,
    /// Arc targets: `to[a]`.
    pub to: Vec<Node>,
    /// Tour position of each arc (first arc = 0).
    pub rank: Vec<Node>,
}

/// The unranked structure of a rooted Euler tour: the arc endpoints and
/// the successor linked list any list-ranking engine can rank (including
/// the simulated machines in [`crate::sim`]). `list` is `None` for a
/// singleton tree (empty tour).
#[derive(Debug, Clone)]
pub struct TourStructure {
    /// Arc sources: `from[a]` for arc `a` (`2i` = edge i forward).
    pub from: Vec<Node>,
    /// Arc targets: `to[a]`.
    pub to: Vec<Node>,
    /// The tour as a linked list over arcs, cut before the root's first
    /// out-arc, so its ranks are tour positions.
    pub list: Option<LinkedList>,
}

/// Build the unranked tour structure of `tree` rooted at `root`.
pub fn tour_structure(tree: &Tree, root: Node) -> TourStructure {
    let n = tree.n();
    assert!((root as usize) < n, "root out of range");
    let m = n - 1;
    let na = 2 * m;

    // Arc endpoints.
    let mut from = vec![0 as Node; na];
    let mut to = vec![0 as Node; na];
    for (i, e) in tree.edges().edges.iter().enumerate() {
        from[2 * i] = e.u;
        to[2 * i] = e.v;
        from[2 * i + 1] = e.v;
        to[2 * i + 1] = e.u;
    }

    if na == 0 {
        return TourStructure {
            from,
            to,
            list: None,
        };
    }

    // Rotation: out-arcs grouped by source (counting sort), plus each
    // arc's position within its source's rotation.
    let mut deg = vec![0usize; n + 1];
    for &f in &from {
        deg[f as usize + 1] += 1;
    }
    for v in 0..n {
        deg[v + 1] += deg[v];
    }
    let offsets = deg.clone();
    let mut cursor = deg;
    let mut out = vec![0u32; na]; // arc ids grouped by source
    let mut pos = vec![0u32; na]; // index of arc within its rotation
    for a in 0..na {
        let v = from[a] as usize;
        out[cursor[v]] = a as u32;
        pos[a] = (cursor[v] - offsets[v]) as u32;
        cursor[v] += 1;
    }

    // Tour successor: succ(a) = next arc after twin(a) in to[a]'s
    // rotation, cyclically; the cycle is cut before the root's first
    // out-arc.
    let first_arc = out[offsets[root as usize]];
    let mut next = vec![0 as Node; na];
    for a in 0..na {
        let twin = a ^ 1;
        let v = to[a] as usize;
        let dv = offsets[v + 1] - offsets[v];
        let succ = out[offsets[v] + ((pos[twin] as usize + 1) % dv)];
        next[a] = if succ == first_arc {
            na as Node
        } else {
            succ as Node
        };
    }

    let list = LinkedList {
        next,
        head: first_arc as Node,
    };
    debug_assert!(list.validate().is_ok(), "Euler tour must form one chain");
    TourStructure {
        from,
        to,
        list: Some(list),
    }
}

impl EulerTour {
    /// Build the tour of `tree` rooted at `root` and rank it.
    ///
    /// For a singleton tree the tour is empty.
    pub fn new(tree: &Tree, root: Node, ranker: Ranker) -> EulerTour {
        let TourStructure { from, to, list } = tour_structure(tree, root);
        let Some(list) = list else {
            return EulerTour {
                root,
                from,
                to,
                rank: Vec::new(),
            };
        };

        let rank = match ranker {
            Ranker::Sequential => sequential_rank(&list),
            Ranker::HelmanJaja(threads) => helman_jaja(&list, &HjConfig::with_threads(threads)),
        };

        EulerTour {
            root,
            from,
            to,
            rank,
        }
    }

    /// Number of arcs (`2(n−1)`).
    pub fn arc_count(&self) -> usize {
        self.from.len()
    }

    /// The twin (reverse) of arc `a`.
    pub fn twin(a: usize) -> usize {
        a ^ 1
    }

    /// The arcs in tour order.
    #[cfg(test)]
    pub(crate) fn tour_order(&self) -> Vec<u32> {
        let mut order = vec![0u32; self.arc_count()];
        for (a, &r) in self.rank.iter().enumerate() {
            order[r as usize] = a as u32;
        }
        order
    }

    /// `parent[v]` for every vertex (`NIL` at the root): arc `a = (u→v)`
    /// is the *advance* into `v` iff it precedes its twin in the tour.
    #[cfg(test)]
    pub(crate) fn parents(&self) -> Vec<Node> {
        let n = self
            .from
            .iter()
            .chain(self.to.iter())
            .map(|&x| x as usize + 1)
            .max()
            .unwrap_or(self.root as usize + 1)
            .max(self.root as usize + 1);
        let mut parent = vec![archgraph_graph::NIL; n];
        for a in 0..self.arc_count() {
            if self.rank[a] < self.rank[Self::twin(a)] {
                parent[self.to[a] as usize] = self.from[a];
            }
        }
        parent[self.root as usize] = archgraph_graph::NIL;
        parent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::NIL;

    #[test]
    fn tour_visits_every_arc_once() {
        let t = Tree::random_attachment(100, 3);
        let tour = EulerTour::new(&t, 0, Ranker::Sequential);
        assert_eq!(tour.arc_count(), 198);
        let order = tour.tour_order();
        let mut seen = [false; 198];
        for &a in &order {
            assert!(!seen[a as usize]);
            seen[a as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn tour_is_arc_consistent() {
        // Consecutive tour arcs share the middle vertex.
        let t = Tree::random_attachment(80, 5);
        let tour = EulerTour::new(&t, 0, Ranker::Sequential);
        let order = tour.tour_order();
        for w in order.windows(2) {
            assert_eq!(
                tour.to[w[0] as usize], tour.from[w[1] as usize],
                "tour must be a walk"
            );
        }
        // Starts and ends at the root.
        assert_eq!(tour.from[order[0] as usize], 0);
        assert_eq!(tour.to[*order.last().unwrap() as usize], 0);
    }

    #[test]
    fn parents_match_oracle_various_roots() {
        let t = Tree::random_attachment(150, 7);
        for root in [0 as Node, 1, 75, 149] {
            let tour = EulerTour::new(&t, root, Ranker::Sequential);
            let oracle = t.rooted_oracle(root);
            assert_eq!(tour.parents(), oracle.parent, "root = {root}");
        }
    }

    #[test]
    fn parallel_ranker_agrees_with_sequential() {
        let t = Tree::random_attachment(1000, 11);
        let seq = EulerTour::new(&t, 4, Ranker::Sequential);
        let par = EulerTour::new(&t, 4, Ranker::HelmanJaja(4));
        assert_eq!(seq.rank, par.rank);
    }

    #[test]
    fn singleton_tree_has_empty_tour() {
        let t = Tree::new(archgraph_graph::edgelist::EdgeList::empty(1)).unwrap();
        let tour = EulerTour::new(&t, 0, Ranker::Sequential);
        assert_eq!(tour.arc_count(), 0);
        assert_eq!(tour.parents(), vec![NIL]);
    }

    #[test]
    fn path_tour_shape() {
        // Rooted at one end, a path's tour walks down then back.
        let t = Tree::path(4);
        let tour = EulerTour::new(&t, 0, Ranker::Sequential);
        let order = tour.tour_order();
        let visits: Vec<(Node, Node)> = order
            .iter()
            .map(|&a| (tour.from[a as usize], tour.to[a as usize]))
            .collect();
        assert_eq!(visits, vec![(0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0)]);
    }

    #[test]
    fn star_tour_alternates_center() {
        let t = Tree::star(5);
        let tour = EulerTour::new(&t, 0, Ranker::Sequential);
        let order = tour.tour_order();
        for (k, &a) in order.iter().enumerate() {
            if k % 2 == 0 {
                assert_eq!(tour.from[a as usize], 0, "even arcs leave the center");
            } else {
                assert_eq!(tour.to[a as usize], 0, "odd arcs return");
            }
        }
    }
}
