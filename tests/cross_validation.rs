//! Cross-crate agreement: every implementation of each kernel — native
//! parallel, SMP-simulated, MTA-simulated, analytic — must agree with the
//! sequential oracle (and, for the analytic model, with the simulators'
//! scaling directions).

use archgraph::concomp::{sim_mta as cc_mta, sim_smp as cc_smp};
use archgraph::core::cost::formulas;
use archgraph::core::machine::{MtaParams, SmpParams};
use archgraph::core::predict;
use archgraph::graph::gen;
use archgraph::graph::list::LinkedList;
use archgraph::graph::rng::Rng;
use archgraph::graph::unionfind::{connected_components, same_partition};
use archgraph::listrank::{
    helman_jaja, sequential_rank, sim_mta as lr_mta, sim_smp as lr_smp, HjConfig,
};

#[test]
fn list_rankers_agree() {
    let mut rng = Rng::new(71);
    for n in [1usize, 13, 500, 4096] {
        let list = LinkedList::random(n, &mut rng);
        let oracle = sequential_rank(&list);
        assert_eq!(list.rank_oracle(), oracle, "n = {n}");
        assert_eq!(
            helman_jaja(&list, &HjConfig::with_threads(3)),
            oracle,
            "HJ, n = {n}"
        );
        let sim_s = lr_smp::simulate_hj(&list, &SmpParams::tiny_for_tests(), 2, 8, 1);
        assert_eq!(sim_s.rank, oracle, "SMP sim, n = {n}");
        if n >= 1 {
            let sim_m = lr_mta::simulate_walk_ranking(
                &list,
                &MtaParams::tiny_for_tests(),
                2,
                8,
                (n / 10).max(1),
            );
            assert_eq!(sim_m.rank, oracle, "MTA sim, n = {n}");
        }
    }
}

#[test]
fn all_cc_implementations_agree() {
    for (n, m, seed) in [(64usize, 96usize, 1u64), (512, 2048, 2), (1000, 1500, 3)] {
        let g = gen::random_gnm(n, m, seed);
        let oracle = connected_components(&g);
        let native2 = archgraph::concomp::shiloach_vishkin(&g);
        let native3 = archgraph::concomp::sv_mta_style(&g);
        let sim_s = cc_smp::simulate_sv(&g, &SmpParams::tiny_for_tests(), 2);
        let sim_m = cc_mta::simulate_sv_mta(&g, &MtaParams::tiny_for_tests(), 2, 8);
        for (name, labels) in [
            ("native Alg.2", &native2),
            ("native Alg.3", &native3),
            ("SMP sim", &sim_s.labels),
            ("MTA sim", &sim_m.labels),
        ] {
            assert!(
                same_partition(labels, &oracle),
                "{name} disagrees at n={n} m={m}"
            );
        }
    }
}

#[test]
fn analytic_model_tracks_simulator_scaling() {
    // The closed-form predictions and the simulator must agree on
    // *directions*: more processors -> less time; more data -> more time.
    let params = SmpParams::sun_e4500();
    let n = 1 << 15;
    let list = LinkedList::random(n, &mut Rng::new(5));
    let sim1 = lr_smp::simulate_hj(&list, &params, 1, 8, 1).seconds;
    let sim8 = lr_smp::simulate_hj(&list, &params, 8, 8, 1).seconds;
    let pred1 = predict::smp_seconds(&formulas::hj_list_ranking(n, 1), &params, 1);
    let pred8 = predict::smp_seconds(&formulas::hj_list_ranking(n, 8), &params, 8);
    assert!(sim1 > sim8 && pred1 > pred8, "both must speed up with p");
    // Within an order of magnitude of each other at p = 1 (the analytic
    // model has no TLB/instruction-budget terms).
    let ratio = sim1 / pred1;
    assert!(
        (0.1..60.0).contains(&ratio),
        "simulator and closed form wildly disagree: {ratio}"
    );
}

#[test]
fn mta_simulator_matches_saturation_model() {
    // The analytic saturation threshold (streams_to_saturate) should
    // separate starved from saturated regimes in the event simulator.
    let params = MtaParams::mta2();
    let n = 1 << 13;
    let list = LinkedList::ordered(n);
    let starved = lr_mta::simulate_walk_ranking(&list, &params, 1, 2, n / 10);
    let saturated = lr_mta::simulate_walk_ranking(&list, &params, 1, 100, n / 10);
    assert!(
        starved.report.utilization < 0.5,
        "2 streams must starve: {}",
        starved.report.utilization
    );
    assert!(
        saturated.report.utilization > 0.8,
        "100 streams must nearly saturate: {}",
        saturated.report.utilization
    );
    assert!(starved.seconds > 2.0 * saturated.seconds);
}

#[test]
fn simulated_and_native_iteration_counts_are_comparable() {
    // SV grafting rounds are a property of the algorithm + input, not the
    // architecture: the SMP simulation, MTA simulation and deterministic
    // native variant should take similar iteration counts.
    let g = gen::random_gnm(2048, 8192, 9);
    let (_, native_iters) = archgraph::concomp::sv_mta::sv_mta_style_iters(&g);
    let sim_s = cc_smp::simulate_sv(&g, &SmpParams::tiny_for_tests(), 2);
    let sim_m = cc_mta::simulate_sv_mta(&g, &MtaParams::tiny_for_tests(), 2, 8);
    for (name, iters) in [("SMP sim", sim_s.iterations), ("MTA sim", sim_m.iterations)] {
        assert!(
            iters <= native_iters + 3 && iters + 3 >= native_iters.min(iters + 3),
            "{name} iterations {iters} far from native {native_iters}"
        );
    }
}
