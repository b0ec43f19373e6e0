//! Workload construction shared by the figure harnesses and benches.
//!
//! Reached by: every suite cell (its input) and `archperf`'s list and graph generation.

use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::gen;
use archgraph_graph::list::LinkedList;
use archgraph_graph::rng::Rng;

/// The paper's two list layouts (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListKind {
    /// Element of rank `r` in slot `r` (best spatial locality).
    Ordered,
    /// Uniform random placement (worst locality).
    Random,
}

impl ListKind {
    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ListKind::Ordered => "Ordered",
            ListKind::Random => "Random",
        }
    }

    /// Both kinds, in the paper's presentation order.
    pub fn both() -> [ListKind; 2] {
        [ListKind::Ordered, ListKind::Random]
    }
}

/// Build a list of the given kind and size (deterministic per seed).
pub fn make_list(kind: ListKind, n: usize, seed: u64) -> LinkedList {
    match kind {
        ListKind::Ordered => LinkedList::ordered(n),
        ListKind::Random => LinkedList::random(n, &mut Rng::new(seed)),
    }
}

/// Build the paper's random graph: `n` vertices, `m` unique edges.
pub fn make_graph(n: usize, m: usize, seed: u64) -> EdgeList {
    gen::random_gnm(n, m, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_correctly() {
        let o = make_list(ListKind::Ordered, 100, 1);
        assert_eq!(o.head, 0);
        let r = make_list(ListKind::Random, 100, 1);
        r.validate().unwrap();
        assert_eq!(make_list(ListKind::Random, 100, 1), r, "seeded determinism");
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ListKind::Ordered.label(), "Ordered");
        assert_eq!(ListKind::Random.label(), "Random");
        assert_eq!(ListKind::both().len(), 2);
    }

    #[test]
    fn graph_builder_is_the_gnm_generator() {
        let g = make_graph(100, 400, 3);
        assert_eq!(g.n, 100);
        assert_eq!(g.m(), 400);
        assert!(g.is_simple());
    }
}
