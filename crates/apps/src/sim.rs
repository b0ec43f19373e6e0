//! Simulated-machine drivers for the Euler-tour application.
//!
//! The tour is an irregular linked list over `2(n−1)` arcs, so ranking it
//! on the simulated machines reuses the list-ranking kernels directly:
//! the MTA driver hands the tour's successor list to the walk-ranking
//! micro-ISA program, the SMP driver to the Helman–JáJá phase simulation.
//! Both surface [`SimError`] through `try_` entry points — the deadlock
//! and cycle-budget diagnostics of the simulators reach application
//! callers instead of being swallowed by panicking wrappers.
//!
//! Reached by: the `euler/mta/p8` and `euler/smp/p8` suite cells.

use archgraph_core::error::SimError;
use archgraph_core::machine::{MtaParams, SmpParams};
use archgraph_graph::Node;
use archgraph_listrank::sim_mta::{self, WalkSchedule};
use archgraph_mta_sim::report::RunReport;
use archgraph_smp_sim::stats::RunStats;

use crate::euler::{tour_structure, EulerTour};
use crate::tree::Tree;

/// An Euler tour ranked on the simulated MTA.
#[derive(Debug, Clone)]
pub struct EulerMtaSim {
    /// The ranked tour (ranks computed in simulated memory).
    pub tour: EulerTour,
    /// Simulated seconds for the ranking.
    pub seconds: f64,
    /// Combined region report (cycles, issue counts, utilization).
    pub report: RunReport,
}

/// An Euler tour ranked on the simulated SMP.
#[derive(Debug, Clone)]
pub struct EulerSmpSim {
    /// The ranked tour (ranks computed in simulated memory).
    pub tour: EulerTour,
    /// Simulated seconds for the ranking.
    pub seconds: f64,
    /// Aggregate machine statistics.
    pub stats: RunStats,
}

/// Rank the Euler tour of `tree` rooted at `root` on the simulated MTA
/// (`p` processors × `streams_per_proc` streams, `walks` walk heads).
/// Requires a tree with at least one edge (a singleton tour has nothing
/// to simulate).
pub fn try_simulate_euler_mta(
    tree: &Tree,
    root: Node,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
    walks: usize,
) -> Result<EulerMtaSim, SimError> {
    let s = tour_structure(tree, root);
    let list = s.list.expect("simulated tour ranking needs >= 1 edge");
    let r = sim_mta::try_simulate_walk_ranking(
        &list,
        params,
        p,
        streams_per_proc,
        walks,
        WalkSchedule::Dynamic,
    )?;
    Ok(EulerMtaSim {
        tour: EulerTour {
            root,
            from: s.from,
            to: s.to,
            rank: r.rank,
        },
        seconds: r.seconds,
        report: r.report,
    })
}

/// Panicking wrapper over [`try_simulate_euler_mta`] (legacy-style entry
/// point matching the other kernels).
pub fn simulate_euler_mta(
    tree: &Tree,
    root: Node,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
    walks: usize,
) -> EulerMtaSim {
    try_simulate_euler_mta(tree, root, params, p, streams_per_proc, walks)
        .unwrap_or_else(|e| panic!("simulate_euler_mta: {e}"))
}

/// Rank the Euler tour of `tree` rooted at `root` on the simulated SMP
/// (`p` processors, Helman–JáJá with `sublists_per_proc` sublists each).
pub fn try_simulate_euler_smp(
    tree: &Tree,
    root: Node,
    params: &SmpParams,
    p: usize,
    sublists_per_proc: usize,
) -> Result<EulerSmpSim, SimError> {
    let s = tour_structure(tree, root);
    let list = s.list.expect("simulated tour ranking needs >= 1 edge");
    let r = archgraph_listrank::sim_smp::try_simulate_hj(&list, params, p, sublists_per_proc, 0)?;
    Ok(EulerSmpSim {
        tour: EulerTour {
            root,
            from: s.from,
            to: s.to,
            rank: r.rank,
        },
        seconds: r.seconds,
        stats: r.stats,
    })
}

/// Panicking wrapper over [`try_simulate_euler_smp`].
pub fn simulate_euler_smp(
    tree: &Tree,
    root: Node,
    params: &SmpParams,
    p: usize,
    sublists_per_proc: usize,
) -> EulerSmpSim {
    try_simulate_euler_smp(tree, root, params, p, sublists_per_proc)
        .unwrap_or_else(|e| panic!("simulate_euler_smp: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::Ranker;

    #[test]
    fn simulated_mta_tour_matches_sequential_ranker() {
        let t = Tree::random_attachment(200, 9);
        let oracle = EulerTour::new(&t, 0, Ranker::Sequential);
        let sim = try_simulate_euler_mta(&t, 0, &MtaParams::tiny_for_tests(), 1, 8, 16)
            .expect("clean run");
        assert_eq!(sim.tour.rank, oracle.rank);
        assert_eq!(sim.tour.parents(), oracle.parents());
        assert!(sim.seconds > 0.0);
        assert!(sim.report.issued > 0);
    }

    #[test]
    fn simulated_smp_tour_matches_sequential_ranker() {
        let t = Tree::random_attachment(150, 10);
        for root in [0 as Node, 74] {
            let oracle = EulerTour::new(&t, root, Ranker::Sequential);
            let sim = try_simulate_euler_smp(&t, root, &SmpParams::tiny_for_tests(), 2, 8)
                .expect("clean run");
            assert_eq!(sim.tour.rank, oracle.rank, "root {root}");
            assert!(sim.seconds > 0.0);
        }
    }

    #[test]
    fn star_and_path_trees_simulate_correctly() {
        for t in [Tree::star(32), Tree::path(48), Tree::binary(64)] {
            let oracle = EulerTour::new(&t, 0, Ranker::Sequential);
            let mta = simulate_euler_mta(&t, 0, &MtaParams::tiny_for_tests(), 2, 4, 8);
            let smp = simulate_euler_smp(&t, 0, &SmpParams::tiny_for_tests(), 2, 4);
            assert_eq!(mta.tour.rank, oracle.rank);
            assert_eq!(smp.tour.rank, oracle.rank);
        }
    }
}
