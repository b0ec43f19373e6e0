//! Property tests for the SMP memory-system models: conservation laws and
//! hierarchy invariants must hold for arbitrary access traces.

use proptest::prelude::*;

use archgraph_core::SmpParams;
use archgraph_smp_sim::cache::Cache;
use archgraph_smp_sim::machine::SmpMachine;
use archgraph_smp_sim::tlb::Tlb;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_counters_conserve(addrs in proptest::collection::vec(0u64..(1 << 16), 1..500)) {
        let mut c = Cache::new(1024, 64, 2);
        for &a in &addrs {
            c.access(a);
        }
        prop_assert_eq!(c.stats.accesses(), addrs.len() as u64);
        prop_assert!(c.stats.hits <= c.stats.accesses());
        // Re-access of the last address always hits (it was just installed).
        let last = *addrs.last().unwrap();
        prop_assert!(c.probe(last));
    }

    #[test]
    fn repeating_a_trace_never_lowers_hits(addrs in proptest::collection::vec(0u64..(1 << 14), 1..200)) {
        // Second identical pass over a trace that fits in the cache gets
        // at least as many hits as the first.
        let mut c = Cache::new(1 << 16, 64, 4); // 64 KB: the trace footprint fits
        for &a in &addrs {
            c.access(a);
        }
        let first = c.stats.hits;
        for &a in &addrs {
            c.access(a);
        }
        let second = c.stats.hits - first;
        prop_assert!(second >= first);
        // With a fully-resident footprint the second pass is all hits.
        prop_assert_eq!(second, addrs.len() as u64);
    }

    #[test]
    fn tlb_miss_count_bounded_by_distinct_pages_when_resident(
        pages in proptest::collection::vec(0u64..6, 1..300)
    ) {
        // 6 distinct pages in an 8-entry TLB: every page stays resident,
        // so misses = distinct pages touched (cold misses only).
        let mut t = Tlb::new(8, 4096);
        let mut distinct = std::collections::HashSet::new();
        for &p in &pages {
            t.access(p * 4096 + (p % 7) * 13);
            distinct.insert(p);
        }
        prop_assert_eq!(t.misses as usize, distinct.len());
    }

    #[test]
    fn machine_stats_conserve_for_arbitrary_mixed_traffic(
        ops in proptest::collection::vec((0usize..2048, any::<bool>()), 1..400),
        p in 1usize..5,
    ) {
        let mut m = SmpMachine::new(SmpParams::tiny_for_tests(), p);
        let arr = m.alloc_elems::<u32>(2048);
        let ops_ref = &ops;
        m.phase("traffic", |proc, ctx| {
            for (i, &(idx, is_write)) in ops_ref.iter().enumerate() {
                if i % p == proc {
                    if is_write {
                        ctx.write_elem(arr, idx);
                    } else {
                        ctx.read_elem(arr, idx);
                    }
                    ctx.compute(1);
                }
            }
        });
        let s = m.stats();
        prop_assert_eq!(s.accesses(), ops.len() as u64);
        prop_assert_eq!(s.l1_hits + s.l2_hits + s.mem_accesses, s.accesses());
        prop_assert_eq!(s.prefetch_hits, 0);
        prop_assert!(s.tlb_misses <= s.accesses());
        prop_assert!(s.cycles > 0.0);
        prop_assert_eq!(s.barriers, 1);
        let writes = ops.iter().filter(|&&(_, w)| w).count() as u64;
        prop_assert_eq!(s.stores, writes);
        prop_assert_eq!(s.loads, ops.len() as u64 - writes);
    }

    #[test]
    fn phase_time_dominates_any_single_processor(
        work in proptest::collection::vec(1u64..2000, 1..6),
    ) {
        let p = work.len();
        let mut m = SmpMachine::new(SmpParams::tiny_for_tests(), p.min(8));
        let work_ref = &work;
        m.try_phase_no_barrier("compute", |proc, ctx| {
            if proc < work_ref.len() {
                ctx.compute(work_ref[proc]);
            }
        })
        .unwrap();
        let max = *work.iter().max().unwrap() as f64;
        prop_assert!(m.cycles() >= max, "critical path {} < max work {max}", m.cycles());
    }
}
