//! Array-embedded linked lists — the list-ranking workload (paper §3, §5).
//!
//! A list of `n` elements lives in an array of `n` slots. `next[i]` is the
//! array slot of the successor of the element in slot `i`; the tail stores
//! the sentinel value `n`. The paper evaluates two layouts:
//!
//! * **Ordered** — element with rank `r` sits in slot `r`, so a traversal
//!   walks the array left to right (maximal spatial locality), and
//! * **Random** — successive elements are placed by a uniform random
//!   permutation (worst-case locality).
//!
//! The head can be recovered without a flag array via the identity used in
//! step 1 of both the SMP and MTA algorithms: every slot except the head
//! appears exactly once as a successor, and the tail contributes `n`, so
//! `head = n(n−1)/2 + n − Σᵢ next[i]`.
//!
//! Reached by: every list suite cell (`fig1/*`, `table1/mta/random/p8`, …).

use crate::rng::Rng;
use crate::{Node, NIL};

/// Errors detected by [`LinkedList::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListError {
    /// `next[slot]` is outside `0..=n`.
    SuccessorOutOfRange {
        /// The offending slot.
        slot: Node,
        /// Its out-of-range successor value.
        next: Node,
    },
    /// Some slot is the successor of two different slots.
    DuplicateSuccessor {
        /// The slot appearing twice as a successor.
        slot: Node,
    },
    /// The head is wrong or unreachable slots exist (traversal from the
    /// recorded head did not visit every slot before the terminator).
    BrokenChain {
        /// Number of slots actually visited from the head.
        visited: usize,
    },
    /// The stored head is out of range.
    HeadOutOfRange,
}

impl std::fmt::Display for ListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListError::SuccessorOutOfRange { slot, next } => {
                write!(f, "slot {slot} has out-of-range successor {next}")
            }
            ListError::DuplicateSuccessor { slot } => {
                write!(f, "slot {slot} is the successor of two slots")
            }
            ListError::BrokenChain { visited } => {
                write!(f, "chain from head visits only {visited} slots")
            }
            ListError::HeadOutOfRange => write!(f, "head out of range"),
        }
    }
}

impl std::error::Error for ListError {}

/// An array-embedded singly linked list.
///
/// # Examples
/// ```
/// use archgraph_graph::list::LinkedList;
/// use archgraph_graph::rng::Rng;
///
/// let list = LinkedList::random(1000, &mut Rng::new(42));
/// list.validate().unwrap();
/// let rank = list.rank_oracle();
/// assert_eq!(rank[list.head as usize], 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkedList {
    /// `next[i]` = slot of the successor of slot `i`; the tail stores `n`.
    pub next: Vec<Node>,
    /// Slot of the first element ([`NIL`] iff the list is empty).
    pub head: Node,
}

impl LinkedList {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// True when the list has no elements.
    ///
    /// Reached by: clippy::len_without_is_empty, for [`LinkedList::len`].
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// The **Ordered** layout: slot `i` holds the element of rank `i`.
    pub fn ordered(n: usize) -> Self {
        assert!(n < u32::MAX as usize);
        let next: Vec<Node> = (1..=n as Node).collect();
        LinkedList {
            next,
            head: if n == 0 { NIL } else { 0 },
        }
    }

    /// The **Random** layout: list order given by a uniform random
    /// permutation of the array slots.
    pub fn random(n: usize, rng: &mut Rng) -> Self {
        let perm = rng.permutation(n);
        Self::from_permutation(&perm)
    }

    /// Build a list whose `k`-th element (in list order) lives in slot
    /// `perm[k]`. `perm` must be a permutation of `0..n`.
    pub fn from_permutation(perm: &[Node]) -> Self {
        let n = perm.len();
        assert!(n < u32::MAX as usize);
        if n == 0 {
            return LinkedList {
                next: Vec::new(),
                head: NIL,
            };
        }
        let mut next = vec![0 as Node; n];
        for k in 0..n - 1 {
            next[perm[k] as usize] = perm[k + 1];
        }
        next[perm[n - 1] as usize] = n as Node;
        LinkedList {
            next,
            head: perm[0],
        }
    }

    /// Sequential ranking oracle: `rank[slot]` = number of predecessors of
    /// the element in `slot` (head has rank 0). One pointer-chasing pass.
    pub fn rank_oracle(&self) -> Vec<Node> {
        let n = self.next.len();
        let mut rank = vec![0 as Node; n];
        let mut j = self.head;
        let mut r: Node = 0;
        while (j as usize) < n {
            rank[j as usize] = r;
            r += 1;
            j = self.next[j as usize];
        }
        rank
    }

    /// The slots in list order (head first).
    ///
    /// Reached by: `tests/failure_injection.rs` (`validator_catches_injected_cycles`).
    pub fn order(&self) -> Vec<Node> {
        let n = self.next.len();
        let mut out = Vec::with_capacity(n);
        let mut j = self.head;
        while (j as usize) < n {
            out.push(j);
            j = self.next[j as usize];
        }
        out
    }

    /// Full structural validation: successor ranges, uniqueness, and chain
    /// completeness from the recorded head.
    pub fn validate(&self) -> Result<(), ListError> {
        let n = self.next.len();
        if n == 0 {
            return if self.head == NIL {
                Ok(())
            } else {
                Err(ListError::HeadOutOfRange)
            };
        }
        if self.head as usize >= n {
            return Err(ListError::HeadOutOfRange);
        }
        let mut seen = vec![false; n + 1];
        for (i, &nx) in self.next.iter().enumerate() {
            if nx as usize > n {
                return Err(ListError::SuccessorOutOfRange {
                    slot: i as Node,
                    next: nx,
                });
            }
            if seen[nx as usize] && (nx as usize) < n {
                return Err(ListError::DuplicateSuccessor { slot: nx });
            }
            seen[nx as usize] = true;
        }
        // Walk the chain; it must visit exactly n slots then terminate.
        let mut visited = 0usize;
        let mut j = self.head;
        while (j as usize) < n && visited <= n {
            visited += 1;
            j = self.next[j as usize];
        }
        if visited != n || j != n as Node {
            return Err(ListError::BrokenChain { visited });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_list_shape() {
        let l = LinkedList::ordered(5);
        assert_eq!(l.next, vec![1, 2, 3, 4, 5]);
        assert_eq!(l.head, 0);
        l.validate().unwrap();
    }

    #[test]
    fn empty_list() {
        let l = LinkedList::ordered(0);
        assert!(l.is_empty());
        assert_eq!(l.head, NIL);
        l.validate().unwrap();
        assert!(l.rank_oracle().is_empty());
    }

    #[test]
    fn singleton_list() {
        let l = LinkedList::ordered(1);
        assert_eq!(l.head, 0);
        assert_eq!(l.next, vec![1]);
        assert_eq!(l.rank_oracle(), vec![0]);
        l.validate().unwrap();
    }

    #[test]
    fn head_identity_matches_on_random_lists() {
        let mut rng = Rng::new(99);
        for n in [1usize, 2, 3, 10, 1000] {
            let l = LinkedList::random(n, &mut rng);
            assert!(
                !l.next.contains(&l.head),
                "n = {n}: the head has a predecessor"
            );
        }
    }

    #[test]
    fn random_list_ranks_follow_permutation() {
        let mut rng = Rng::new(4);
        let perm = rng.permutation(257);
        let l = LinkedList::from_permutation(&perm);
        l.validate().unwrap();
        let rank = l.rank_oracle();
        for (k, &slot) in perm.iter().enumerate() {
            assert_eq!(rank[slot as usize] as usize, k);
        }
    }

    #[test]
    fn order_inverts_rank() {
        let mut rng = Rng::new(21);
        let l = LinkedList::random(128, &mut rng);
        let order = l.order();
        let rank = l.rank_oracle();
        for (k, &slot) in order.iter().enumerate() {
            assert_eq!(rank[slot as usize] as usize, k);
        }
        assert_eq!(order.len(), 128);
    }

    #[test]
    fn validate_rejects_out_of_range_successor() {
        let l = LinkedList {
            next: vec![1, 7],
            head: 0,
        };
        assert!(matches!(
            l.validate(),
            Err(ListError::SuccessorOutOfRange { slot: 1, next: 7 })
        ));
    }

    #[test]
    fn validate_rejects_cycle() {
        // 0 -> 1 -> 0 cycle: slot 0 is a duplicate successor (head also
        // "enters" it), and the chain never terminates.
        let l = LinkedList {
            next: vec![1, 0],
            head: 0,
        };
        assert!(l.validate().is_err());
    }

    #[test]
    fn validate_rejects_duplicate_successor() {
        // Both 0 and 1 point at slot 2.
        let l = LinkedList {
            next: vec![2, 2, 3],
            head: 0,
        };
        assert!(matches!(
            l.validate(),
            Err(ListError::DuplicateSuccessor { slot: 2 })
        ));
    }

    #[test]
    fn validate_rejects_wrong_head() {
        let mut l = LinkedList::ordered(4);
        l.head = 2; // mid-chain: traversal visits only 2 slots
        assert!(matches!(l.validate(), Err(ListError::BrokenChain { .. })));
    }

    #[test]
    fn validate_rejects_head_out_of_range() {
        let l = LinkedList {
            next: vec![1, 2],
            head: 9,
        };
        assert_eq!(l.validate(), Err(ListError::HeadOutOfRange));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ListError::BrokenChain { visited: 3 };
        assert!(e.to_string().contains("3"));
        let e = ListError::SuccessorOutOfRange { slot: 1, next: 9 };
        assert!(e.to_string().contains("successor"));
    }

    #[test]
    fn ordered_equals_identity_permutation() {
        let perm: Vec<Node> = (0..50).collect();
        assert_eq!(LinkedList::from_permutation(&perm), LinkedList::ordered(50));
    }
}
