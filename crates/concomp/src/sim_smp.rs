//! Shiloach–Vishkin on the simulated SMP (Fig. 2, right panel).
//!
//! Per iteration, the graft pass streams the edge array (contiguous) while
//! making the 2–3 *non-contiguous* accesses per edge the cost model counts
//! (`D[u]`, `D[v]`, `D[D[v]]`), and the shortcut pass walks the vertex
//! array with data-dependent extra hops. Barriers separate the phases —
//! the `4 log n` barrier term of the paper's SV analysis.
//!
//! Reached by: the `fig2/smp/p8` suite cell.

use archgraph_core::error::SimError;
use archgraph_core::machine::SmpParams;
use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::Node;
use archgraph_smp_sim::machine::SmpMachine;
use archgraph_smp_sim::stats::RunStats;

/// Result of a simulated SMP connected-components run.
#[derive(Debug, Clone)]
pub struct CcSmpSimResult {
    /// Rooted-star component labels.
    pub labels: Vec<Node>,
    /// Simulated seconds.
    pub seconds: f64,
    /// Aggregate machine statistics.
    pub stats: RunStats,
    /// Graft-and-shortcut iterations executed.
    pub iterations: usize,
}

const GRAFT_INSTRS: u64 = 8;
const SHORTCUT_INSTRS: u64 = 4;

/// Simulate SV (graft + full shortcut) on `p` processors, panicking on
/// simulation failure (legacy entry point).
pub fn simulate_sv(g: &EdgeList, params: &SmpParams, p: usize) -> CcSmpSimResult {
    try_simulate_sv(g, params, p).unwrap_or_else(|e| panic!("simulate_sv: {e}"))
}

/// [`simulate_sv`] returning structured failures: a cycle-budget trip
/// inside a phase surfaces as [`SimError`] instead of panicking.
pub fn try_simulate_sv(
    g: &EdgeList,
    params: &SmpParams,
    p: usize,
) -> Result<CcSmpSimResult, SimError> {
    let n = g.n;
    let mut m = SmpMachine::new(params.clone(), p);
    let arcs: Vec<(Node, Node)> = g
        .edges
        .iter()
        .flat_map(|e| [(e.u, e.v), (e.v, e.u)])
        .collect();
    let na = arcs.len();
    let arcs_a = m.alloc_elems::<u32>(2 * na); // interleaved (u, v) pairs
    let d_a = m.alloc_elems::<u32>(n);

    let mut d: Vec<Node> = (0..n as Node).collect();
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        let mut grafted = false;

        {
            let d_ref = &mut d;
            let grafted_ref = &mut grafted;
            let arcs = &arcs;
            m.try_phase("graft", move |proc, ctx| {
                let chunk = na.div_ceil(p);
                let (lo, hi) = (proc * chunk, ((proc + 1) * chunk).min(na));
                for (k, &(u, v)) in arcs[lo..hi].iter().enumerate() {
                    let i = lo + k;
                    // Contiguous edge-array reads...
                    ctx.read_elem(arcs_a, 2 * i);
                    ctx.read_elem(arcs_a, 2 * i + 1);
                    // ...and the non-contiguous D accesses of the model.
                    ctx.read_elem(d_a, u as usize);
                    ctx.read_elem(d_a, v as usize);
                    let du = d_ref[u as usize];
                    let dv = d_ref[v as usize];
                    ctx.compute(GRAFT_INSTRS);
                    if du < dv {
                        ctx.read_elem(d_a, dv as usize);
                        if d_ref[dv as usize] == dv {
                            d_ref[dv as usize] = du;
                            ctx.write_elem(d_a, dv as usize);
                            *grafted_ref = true;
                        }
                    }
                }
            })?;
        }

        if !grafted {
            break;
        }

        {
            let d_ref = &mut d;
            m.try_phase("shortcut", move |proc, ctx| {
                let chunk = n.div_ceil(p);
                let (lo, hi) = (proc * chunk, ((proc + 1) * chunk).min(n));
                for i in lo..hi {
                    ctx.read_elem(d_a, i);
                    ctx.compute(SHORTCUT_INSTRS);
                    while d_ref[i] != d_ref[d_ref[i] as usize] {
                        ctx.read_elem(d_a, d_ref[i] as usize);
                        ctx.write_elem(d_a, i);
                        ctx.compute(SHORTCUT_INSTRS);
                        d_ref[i] = d_ref[d_ref[i] as usize];
                    }
                }
            })?;
        }
    }

    Ok(CcSmpSimResult {
        labels: d,
        seconds: m.seconds(),
        stats: m.stats(),
        iterations,
    })
}

/// Simulate the best sequential comparator (union-find over the edge
/// array) on one processor: contiguous edge streaming plus non-contiguous
/// find chains. Panics on simulation failure (legacy entry point).
pub fn simulate_seq_unionfind(g: &EdgeList, params: &SmpParams) -> CcSmpSimResult {
    try_simulate_seq_unionfind(g, params).unwrap_or_else(|e| panic!("simulate_seq_unionfind: {e}"))
}

/// [`simulate_seq_unionfind`] returning structured failures.
pub fn try_simulate_seq_unionfind(
    g: &EdgeList,
    params: &SmpParams,
) -> Result<CcSmpSimResult, SimError> {
    let n = g.n;
    let mut m = SmpMachine::new(params.clone(), 1);
    let edges_a = m.alloc_elems::<u32>(2 * g.m());
    let parent_a = m.alloc_elems::<u32>(n);

    let mut uf = archgraph_graph::unionfind::UnionFind::new(n);
    {
        let uf_ref = &mut uf;
        let edges = &g.edges;
        m.try_phase_no_barrier("unionfind", move |_, ctx| {
            for (i, e) in edges.iter().enumerate() {
                ctx.read_elem(edges_a, 2 * i);
                ctx.read_elem(edges_a, 2 * i + 1);
                // Model the two find chains: ~amortized-constant hops.
                ctx.read_elem(parent_a, e.u as usize);
                ctx.read_elem(parent_a, e.v as usize);
                ctx.compute(6);
                if uf_ref.union(e.u, e.v) {
                    ctx.write_elem(parent_a, e.u.max(e.v) as usize);
                }
            }
        })?;
    }
    Ok(CcSmpSimResult {
        labels: uf.canonical_labels(),
        seconds: m.seconds(),
        stats: m.stats(),
        iterations: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::gen;
    use archgraph_graph::unionfind::{connected_components, same_partition};

    fn tiny() -> SmpParams {
        SmpParams::tiny_for_tests()
    }

    #[test]
    fn simulated_sv_is_correct() {
        for (n, mm, seed) in [(50usize, 40usize, 1u64), (200, 400, 2), (400, 1600, 3)] {
            let g = gen::random_gnm(n, mm, seed);
            for p in [1usize, 2, 4] {
                let r = simulate_sv(&g, &tiny(), p);
                assert!(
                    same_partition(&r.labels, &connected_components(&g)),
                    "n={n} m={mm} p={p}"
                );
                assert!(r.seconds > 0.0);
                assert!(r.iterations >= 1);
            }
        }
    }

    #[test]
    fn simulated_uf_is_correct() {
        let g = gen::random_gnm(300, 500, 9);
        let r = simulate_seq_unionfind(&g, &tiny());
        assert!(same_partition(&r.labels, &connected_components(&g)));
    }

    #[test]
    fn structured_graphs() {
        for g in [gen::path(200), gen::star(100), gen::mesh2d(10, 10)] {
            let r = simulate_sv(&g, &tiny(), 2);
            assert!(same_partition(&r.labels, &connected_components(&g)));
        }
    }

    #[test]
    fn more_processors_reduce_time() {
        let g = gen::random_gnm(2000, 10_000, 5);
        let t1 = simulate_sv(&g, &tiny(), 1).seconds;
        let t4 = simulate_sv(&g, &tiny(), 4).seconds;
        assert!(t1 / t4 > 1.8, "speedup {}", t1 / t4);
    }

    #[test]
    fn try_variants_match_the_panicking_wrappers() {
        let g = gen::random_gnm(150, 300, 13);
        let a = try_simulate_sv(&g, &tiny(), 2).expect("clean run");
        let b = simulate_sv(&g, &tiny(), 2);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
        let c = try_simulate_seq_unionfind(&g, &tiny()).expect("clean run");
        assert!(same_partition(&c.labels, &connected_components(&g)));
    }

    #[test]
    fn edgeless_graph_costs_one_pass() {
        let g = EdgeList::empty(64);
        let r = simulate_sv(&g, &tiny(), 2);
        assert_eq!(r.iterations, 1);
        let expect: Vec<Node> = (0..64).collect();
        assert_eq!(r.labels, expect);
    }
}
