//! Failure injection and degenerate inputs: corrupted lists must be
//! *detected*, and every algorithm must handle empty/singleton/duplicate
//! inputs without panicking.

use archgraph::concomp::{shiloach_vishkin, sv_mta_style};
use archgraph::core::machine::{MtaParams, SmpParams};
use archgraph::graph::edgelist::EdgeList;
use archgraph::graph::gen;
use archgraph::graph::list::{LinkedList, ListError};
use archgraph::graph::rng::Rng;
use archgraph::graph::unionfind::{connected_components, same_partition};
use archgraph::listrank::{helman_jaja, sequential_rank, HjConfig};

#[test]
fn validator_catches_injected_cycles() {
    let mut rng = Rng::new(81);
    let mut list = LinkedList::random(100, &mut rng);
    // Corrupt: point some node's successor back at the head, closing a
    // cycle and orphaning the tail segment.
    let victim = list.order()[50] as usize;
    list.next[victim] = list.head;
    assert!(list.validate().is_err(), "cycle must be detected");
}

#[test]
fn validator_catches_truncation() {
    let mut list = LinkedList::ordered(50);
    list.next[20] = 50; // premature terminator: slots 21.. unreachable
    assert!(matches!(
        list.validate(),
        Err(ListError::DuplicateSuccessor { .. }) | Err(ListError::BrokenChain { .. })
    ));
}

#[test]
fn validator_catches_out_of_range_pointers() {
    let mut list = LinkedList::ordered(10);
    list.next[3] = 99;
    assert!(matches!(
        list.validate(),
        Err(ListError::SuccessorOutOfRange { slot: 3, next: 99 })
    ));
}

#[test]
fn rankers_handle_boundary_sizes() {
    for n in [0usize, 1, 2, 3] {
        let list = LinkedList::ordered(n);
        assert_eq!(sequential_rank(&list).len(), n);
        assert_eq!(
            helman_jaja(&list, &HjConfig::with_threads(4)),
            sequential_rank(&list)
        );
    }
}

#[test]
fn cc_handles_pathological_graphs() {
    let cases: Vec<EdgeList> = vec![
        EdgeList::empty(0),
        EdgeList::empty(1),
        EdgeList::from_pairs(1, [(0, 0)]), // single self loop
        EdgeList::from_pairs(2, vec![(0, 1); 50]), // heavy multi-edge
        EdgeList::from_pairs(3, [(2, 2), (2, 2), (0, 0)]), // loops only
        gen::with_isolated(&gen::complete(5), 100), // mostly isolated
    ];
    for g in &cases {
        let oracle = connected_components(g);
        assert!(same_partition(&shiloach_vishkin(g), &oracle));
        assert!(same_partition(&sv_mta_style(g), &oracle));
    }
}

#[test]
fn simulators_reject_invalid_configurations() {
    use std::panic::catch_unwind;
    assert!(catch_unwind(|| {
        archgraph::smp::machine::SmpMachine::new(SmpParams::sun_e4500(), 0)
    })
    .is_err());
    assert!(catch_unwind(|| {
        archgraph::smp::machine::SmpMachine::new(SmpParams::sun_e4500(), 99)
    })
    .is_err());
    assert!(
        catch_unwind(|| { archgraph::mta::machine::MtaMachine::new(MtaParams::mta2(), 0) })
            .is_err()
    );
}

#[test]
fn gnm_generator_edge_cases() {
    assert_eq!(gen::random_gnm(0, 0, 1).m(), 0);
    assert_eq!(gen::random_gnm(1, 0, 1).m(), 0);
    assert_eq!(gen::random_gnm(2, 1, 1).m(), 1);
    // Maximum density.
    let g = gen::random_gnm(8, gen::max_edges(8), 1);
    assert_eq!(g.m(), 28);
    assert!(g.is_simple());
}

#[test]
fn oversized_sublist_requests_are_clamped() {
    let mut rng = Rng::new(83);
    let list = LinkedList::random(20, &mut rng);
    // More sublists than elements must degrade gracefully.
    let hj = HjConfig {
        threads: 4,
        sublists_per_thread: 10_000,
        seed: 0,
    };
    assert_eq!(helman_jaja(&list, &hj), list.rank_oracle());
}
