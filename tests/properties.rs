//! Property-based cross-crate tests: arbitrary inputs, every
//! implementation against its oracle.

use proptest::prelude::*;

use archgraph::concomp::{shiloach_vishkin, sv_mta_style};
use archgraph::graph::bfs::bfs_components;
use archgraph::graph::edgelist::EdgeList;
use archgraph::graph::list::LinkedList;
use archgraph::graph::unionfind::{connected_components, same_partition};
use archgraph::graph::Node;
use archgraph::listrank::{helman_jaja, sequential_rank, HjConfig};

/// Arbitrary permutation of 0..n encoded as a shuffled index vector.
fn permutation(max_n: usize) -> impl Strategy<Value = Vec<Node>> {
    (1..max_n).prop_flat_map(|n| Just((0..n as Node).collect::<Vec<_>>()).prop_shuffle())
}

/// Arbitrary small multigraph: vertex count + edge pairs (loops and
/// duplicates allowed — the algorithms must tolerate them).
fn multigraph(max_n: usize, max_m: usize) -> impl Strategy<Value = EdgeList> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as Node, 0..n as Node), 0..max_m)
            .prop_map(move |pairs| EdgeList::from_pairs(n, pairs))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ranking_agrees_on_arbitrary_permutations(perm in permutation(600)) {
        let list = LinkedList::from_permutation(&perm);
        list.validate().unwrap();
        let oracle = list.rank_oracle();
        prop_assert_eq!(&sequential_rank(&list), &oracle);
        prop_assert_eq!(&helman_jaja(&list, &HjConfig::with_threads(1)), &oracle);
        prop_assert_eq!(&helman_jaja(&list, &HjConfig::with_threads(3)), &oracle);
    }

    #[test]
    fn wyllie_ranks_arbitrary_permutations(perm in permutation(500)) {
        use archgraph::listrank::wyllie::wyllie_rank;
        let list = LinkedList::from_permutation(&perm);
        prop_assert_eq!(wyllie_rank(&list), list.rank_oracle());
    }

    #[test]
    fn head_identity_holds_for_any_permutation(perm in permutation(500)) {
        let list = LinkedList::from_permutation(&perm);
        prop_assert!(!list.next.contains(&list.head), "no slot's next names the head");
    }

    #[test]
    fn all_cc_algorithms_match_dsu_on_multigraphs(g in multigraph(120, 300)) {
        let oracle = connected_components(&g);
        prop_assert!(same_partition(&shiloach_vishkin(&g), &oracle), "SV Alg.2");
        prop_assert!(same_partition(&sv_mta_style(&g), &oracle), "SV Alg.3");
        prop_assert!(same_partition(&bfs_components(&g), &oracle), "BFS");
    }

    #[test]
    fn sv_labels_are_the_union_find_minima(g in multigraph(120, 300)) {
        // Alg. 2's settled-arc filter rests on roots being tree minima:
        // the labels must be exactly the min-vertex labels, not merely
        // the same partition.
        prop_assert_eq!(shiloach_vishkin(&g), connected_components(&g));
    }

    #[test]
    fn sv_outputs_rooted_stars(g in multigraph(100, 200)) {
        for labels in [shiloach_vishkin(&g), sv_mta_style(&g)] {
            for &p in &labels {
                prop_assert_eq!(labels[p as usize], p);
            }
        }
    }

    #[test]
    fn dedup_never_changes_connectivity(g in multigraph(80, 250)) {
        let before = connected_components(&g);
        let mut d = g.clone();
        d.dedup();
        let after = connected_components(&d);
        prop_assert!(same_partition(&before, &after));
        prop_assert!(d.is_simple());
    }
}

/// The shrunk counterexample proptest once found for
/// `all_cc_algorithms_match_dsu_on_multigraphs` (84 nodes, 120 edges),
/// pinned as a named test: the proptest shim keeps no regressions file,
/// so this is the only place the case is replayed.
#[test]
fn cc_regression_84_nodes_120_edges() {
    let pairs: Vec<(Node, Node)> = vec![
        (62, 82),
        (50, 12),
        (70, 49),
        (36, 64),
        (83, 22),
        (49, 19),
        (58, 49),
        (63, 37),
        (81, 9),
        (21, 49),
        (28, 50),
        (45, 61),
        (33, 28),
        (58, 53),
        (61, 53),
        (64, 78),
        (30, 47),
        (13, 56),
        (27, 33),
        (30, 73),
        (42, 59),
        (66, 3),
        (83, 53),
        (39, 5),
        (54, 23),
        (65, 18),
        (57, 17),
        (71, 77),
        (77, 46),
        (51, 74),
        (68, 72),
        (50, 61),
        (1, 63),
        (1, 26),
        (48, 5),
        (22, 29),
        (59, 2),
        (67, 3),
        (83, 24),
        (0, 45),
        (76, 66),
        (66, 70),
        (44, 55),
        (62, 67),
        (14, 60),
        (83, 81),
        (35, 75),
        (7, 39),
        (23, 28),
        (24, 11),
        (8, 71),
        (45, 6),
        (21, 19),
        (64, 66),
        (82, 0),
        (3, 74),
        (13, 40),
        (82, 62),
        (70, 45),
        (49, 22),
        (56, 46),
        (10, 22),
        (30, 50),
        (29, 48),
        (50, 0),
        (22, 82),
        (36, 1),
        (1, 80),
        (54, 52),
        (74, 32),
        (76, 19),
        (56, 12),
        (6, 43),
        (78, 82),
        (45, 3),
        (59, 16),
        (5, 29),
        (5, 78),
        (11, 54),
        (81, 27),
        (21, 11),
        (63, 4),
        (23, 10),
        (45, 60),
        (67, 51),
        (74, 81),
        (9, 17),
        (36, 6),
        (8, 23),
        (60, 54),
        (35, 78),
        (77, 17),
        (17, 52),
        (7, 79),
        (22, 67),
        (1, 46),
        (47, 58),
        (81, 39),
        (2, 83),
        (24, 33),
        (47, 26),
        (11, 53),
        (51, 0),
        (66, 1),
        (8, 71),
        (40, 19),
        (41, 17),
        (4, 21),
        (37, 50),
        (29, 53),
        (18, 11),
        (11, 36),
        (83, 4),
        (59, 10),
        (51, 23),
        (60, 29),
        (13, 14),
        (64, 48),
        (68, 51),
        (54, 14),
    ];
    let g = EdgeList::from_pairs(84, pairs);
    let oracle = connected_components(&g);
    assert!(same_partition(&shiloach_vishkin(&g), &oracle), "SV Alg.2");
    assert!(same_partition(&sv_mta_style(&g), &oracle), "SV Alg.3");
    assert!(same_partition(&bfs_components(&g), &oracle), "BFS");
}
