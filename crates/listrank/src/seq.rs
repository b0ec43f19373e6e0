//! The sequential list-ranking baseline.
//!
//! One pointer-chasing pass: the "best sequential implementation" against
//! which the paper's parallel speedups are measured. On an Ordered list
//! this walks the array left to right (cache friendly); on a Random list
//! every step is a dependent random access — the memory behaviour whose
//! architectural consequences the whole paper is about.
//!
//! Reached by: `tests/claims.rs` (the sequential baseline of C1–C6).

use archgraph_graph::{LinkedList, Node};

/// Rank every element: `rank[slot]` = number of predecessors (head = 0).
///
/// Runs in `O(n)` time and `O(n)` extra space for the output.
pub fn sequential_rank(list: &LinkedList) -> Vec<Node> {
    let n = list.len();
    let mut rank = vec![0 as Node; n];
    let next = &list.next;
    let mut j = list.head;
    let mut r: Node = 0;
    while (j as usize) < n {
        // Safety of indexing: validated lists keep successors in 0..=n.
        rank[j as usize] = r;
        r += 1;
        j = next[j as usize];
    }
    debug_assert_eq!(r as usize, n, "list must be a single chain");
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::rng::Rng;

    #[test]
    fn matches_oracle_on_ordered() {
        let l = LinkedList::ordered(100);
        assert_eq!(sequential_rank(&l), l.rank_oracle());
    }

    #[test]
    fn matches_oracle_on_random() {
        let mut rng = Rng::new(3);
        for n in [1usize, 2, 7, 100, 4096] {
            let l = LinkedList::random(n, &mut rng);
            assert_eq!(sequential_rank(&l), l.rank_oracle(), "n = {n}");
        }
    }

    #[test]
    fn empty_list() {
        let l = LinkedList::ordered(0);
        assert!(sequential_rank(&l).is_empty());
    }
}
