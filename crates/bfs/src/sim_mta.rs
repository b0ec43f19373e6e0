//! Frontier BFS lowered to the MTA micro-ISA.
//!
//! One region per level: streams claim frontier slots dynamically with
//! `int_fetch_add` (grain > 1 amortizes the claim, but the grain is kept
//! small because per-vertex work is a whole skewed CSR row), and each
//! edge tries to *claim* its target with `int_fetch_add(seen[w], 1)` —
//! the old value is zero for exactly one edge per vertex, machine-wide,
//! so that edge alone writes `dist[w]` and appends `w` to the next
//! frontier. No locks, no dedup pass; discovery order inside a level is a
//! race the level structure is invariant to.
//!
//! The same two compiled programs (frontier A→B and B→A) run every level;
//! the host pokes the frontier size and level number into memory between
//! regions, mirroring the serial loop-head of a level-synchronous BFS.
//!
//! A block-scheduled variant ([`BfsSchedule::Block`]) is compiled per
//! level (its trip count is an immediate) to demonstrate the paper's
//! load-imbalance ablation: on hub-dominated frontiers one stream drags
//! the whole level.
//!
//! Reached by: the `bfs/mta/p8` suite cells.

use archgraph_core::error::SimError;
use archgraph_core::MtaParams;
use archgraph_graph::csr::Csr;
use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::{Node, NIL};
use archgraph_mta_sim::isa::{Program, ProgramBuilder, Reg, ZERO};
use archgraph_mta_sim::machine::MtaMachine;
use archgraph_mta_sim::parloop::{block_chunk, block_loop, dynamic_loop_grained_mem, LoopRegs};
use archgraph_mta_sim::report::{combine, RunReport};

/// How frontier slots are handed to streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BfsSchedule {
    /// `int_fetch_add` dynamic claiming (the paper's idiom).
    Dynamic,
    /// Static block partition — the load-imbalance ablation.
    Block,
}

/// Result of a simulated MTA BFS run.
#[derive(Debug, Clone)]
pub struct BfsMtaSimResult {
    /// `levels[v]` = BFS level from the source, [`NIL`] if unreachable.
    pub levels: Vec<Node>,
    /// Simulated seconds (sum over level regions).
    pub seconds: f64,
    /// Combined report (utilization, issue counts).
    pub report: RunReport,
    /// Number of frontier expansions.
    pub level_count: usize,
}

/// Grain for the dynamic frontier claim loop.
const GRAIN: i64 = 4;

/// Simulate frontier BFS from `src` on `p` processors ×
/// `streams_per_proc` streams with dynamic claiming, panicking on
/// simulation failure.
pub fn simulate_bfs_mta(
    g: &EdgeList,
    src: Node,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
) -> BfsMtaSimResult {
    try_simulate_bfs_mta(g, src, params, p, streams_per_proc)
        .unwrap_or_else(|e| panic!("simulate_bfs_mta: {e}"))
}

/// [`simulate_bfs_mta`] returning structured failures.
pub fn try_simulate_bfs_mta(
    g: &EdgeList,
    src: Node,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
) -> Result<BfsMtaSimResult, SimError> {
    try_simulate_bfs_mta_scheduled(g, src, params, p, streams_per_proc, BfsSchedule::Dynamic)
}

/// [`try_simulate_bfs_mta`] with an explicit frontier schedule.
pub fn try_simulate_bfs_mta_scheduled(
    g: &EdgeList,
    src: Node,
    params: &MtaParams,
    p: usize,
    streams_per_proc: usize,
    schedule: BfsSchedule,
) -> Result<BfsMtaSimResult, SimError> {
    let csr = Csr::from_edge_list(g);
    let n = csr.n();
    assert!((src as usize) < n, "source out of range");
    let na = csr.arc_count();
    let words = (n + 1) + na + 4 * n + 16;
    let mut m = MtaMachine::with_memory_words(params.clone(), p, words);

    let rowptr_base = {
        let vals: Vec<i64> = csr.offsets.iter().map(|&o| o as i64).collect();
        m.memory_mut().alloc_init(&vals)
    };
    let adj_base = {
        let vals: Vec<i64> = csr.targets.iter().map(|&t| t as i64).collect();
        m.memory_mut().alloc_init(&vals)
    };
    let dist_base = m.memory_mut().alloc_init(&vec![-1i64; n]);
    let seen_base = m.memory_mut().alloc(n);
    let f_a = m.memory_mut().alloc(n);
    let f_b = m.memory_mut().alloc(n);
    let counter_addr = m.memory_mut().alloc(1);
    let size_addr = m.memory_mut().alloc(1);
    let next_size_addr = m.memory_mut().alloc(1);
    let level_addr = m.memory_mut().alloc(1);

    let regs = LoopRegs::standard();

    // The level body: expand the claimed frontier slot `regs.idx`.
    let emit_body = |b: &mut ProgramBuilder, f_base: usize, nf_base: usize| {
        let (v, rp, re, w, t, slot, one, lvl) = (
            Reg(6),
            Reg(7),
            Reg(8),
            Reg(9),
            Reg(10),
            Reg(11),
            Reg(12),
            Reg(13),
        );
        // `one` and `lvl` are loop-invariant but cheap enough to set per
        // iteration, keeping the body self-contained for both schedules.
        b.li(one, 1);
        b.load_abs(lvl, level_addr);
        b.load(v, regs.idx, f_base as i64);
        b.load(rp, v, rowptr_base as i64);
        b.addi(t, v, 1);
        b.load(re, t, rowptr_base as i64);
        let top = b.here();
        let done = b.bge_fwd(rp, re);
        b.load(w, rp, adj_base as i64);
        b.fetch_add(t, w, seen_base as i64, one); // claim w
        let lost = b.bne_fwd(t, ZERO); // someone saw it first
        b.store(lvl, w, dist_base as i64);
        b.fetch_add_imm(slot, next_size_addr as i64, one);
        b.store(w, slot, nf_base as i64);
        b.bind(lost);
        b.addi(rp, rp, 1);
        b.jmp(top);
        b.bind(done);
    };

    let dynamic_prog = |f_base: usize, nf_base: usize| -> Program {
        let mut b = ProgramBuilder::new();
        dynamic_loop_grained_mem(&mut b, counter_addr, size_addr, GRAIN, regs, |b| {
            emit_body(b, f_base, nf_base)
        });
        b.halt();
        b.build()
    };
    // Block programs depend on the level's frontier size (an immediate),
    // so they are compiled per level inside the loop.
    let block_prog = |f_base: usize, nf_base: usize, len: usize| -> Program {
        let mut b = ProgramBuilder::new();
        let chunk = block_chunk(len, p * streams_per_proc);
        block_loop(&mut b, len as i64, chunk, regs, |b| {
            emit_body(b, f_base, nf_base)
        });
        b.halt();
        b.build()
    };

    let dyn_progs = [dynamic_prog(f_a, f_b), dynamic_prog(f_b, f_a)];
    let bases = [(f_a, f_b), (f_b, f_a)];

    {
        let mem = m.memory_mut();
        mem.poke(dist_base + src as usize, 0);
        mem.poke(seen_base + src as usize, 1);
        mem.poke(f_a, src as i64);
    }

    let mut cur = 1usize;
    let mut parity = 0usize;
    let mut level_count = 0usize;
    while cur > 0 {
        level_count += 1;
        assert!(level_count <= n, "BFS exceeded n levels");
        let mem = m.memory_mut();
        mem.poke(counter_addr, 0);
        mem.poke(size_addr, cur as i64);
        mem.poke(next_size_addr, 0);
        mem.poke(level_addr, level_count as i64);
        match schedule {
            BfsSchedule::Dynamic => {
                m.try_run(&dyn_progs[parity], streams_per_proc, |_, _| {})?;
            }
            BfsSchedule::Block => {
                let (fb, nb) = bases[parity];
                let prog = block_prog(fb, nb, cur);
                m.try_run(&prog, streams_per_proc, |_, _| {})?;
            }
        }
        cur = m.memory().peek(next_size_addr) as usize;
        parity ^= 1;
    }

    let levels: Vec<Node> = m
        .memory()
        .peek_slice(dist_base, n)
        .into_iter()
        .map(|x| if x < 0 { NIL } else { x as Node })
        .collect();
    let report = combine(m.reports());
    Ok(BfsMtaSimResult {
        levels,
        seconds: m.total_seconds(),
        report,
        level_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::bfs::{bfs_levels, level_count};
    use archgraph_graph::gen;

    fn tiny() -> MtaParams {
        MtaParams::tiny_for_tests()
    }

    #[test]
    fn simulated_levels_match_oracle() {
        for (n, mm, seed) in [(40usize, 80usize, 1u64), (150, 450, 2), (400, 1600, 3)] {
            let g = gen::random_gnm(n, mm, seed);
            let csr = Csr::from_edge_list(&g);
            let r = simulate_bfs_mta(&g, 0, &tiny(), 1, 8);
            let oracle = bfs_levels(&csr, 0);
            assert_eq!(r.levels, oracle, "n={n} m={mm}");
            assert_eq!(r.level_count, level_count(&oracle).max(1));
        }
    }

    #[test]
    fn multiprocessor_correctness() {
        let g = gen::random_gnm(300, 900, 4);
        let csr = Csr::from_edge_list(&g);
        let oracle = bfs_levels(&csr, 7);
        for p in [1usize, 2, 4] {
            let r = simulate_bfs_mta(&g, 7, &tiny(), p, 8);
            assert_eq!(r.levels, oracle, "p={p}");
        }
    }

    #[test]
    fn structured_graphs() {
        for el in [
            gen::path(64),
            gen::star(80),
            gen::binary_tree(127),
            gen::torus2d(7, 7),
        ] {
            let csr = Csr::from_edge_list(&el);
            let r = simulate_bfs_mta(&el, 0, &tiny(), 2, 4);
            assert_eq!(r.levels, bfs_levels(&csr, 0));
        }
    }

    /// Source 0 fans out to `children` level-1 vertices; the first
    /// `heavy` of them each fan out to `fan` private level-2 leaves.
    /// The level-1 frontier is discovered in adjacency order, so a block
    /// schedule hands *all* the heavy rows to the first streams.
    fn skewed_two_level(children: usize, heavy: usize, fan: usize) -> EdgeList {
        let mut pairs: Vec<(Node, Node)> = Vec::new();
        for c in 0..children {
            pairs.push((0, (1 + c) as Node));
        }
        let mut next = 1 + children;
        for h in 0..heavy {
            for _ in 0..fan {
                pairs.push(((1 + h) as Node, next as Node));
                next += 1;
            }
        }
        EdgeList::from_pairs(next, pairs)
    }

    #[test]
    fn block_schedule_matches_levels_but_costs_more_on_skew() {
        // The load-imbalance ablation: identical levels, but the block
        // schedule strands one stream behind every heavy row while the
        // int_fetch_add schedule spreads them.
        let el = skewed_two_level(128, 16, 32);
        let csr = Csr::from_edge_list(&el);
        let dynamic = try_simulate_bfs_mta_scheduled(&el, 0, &tiny(), 1, 8, BfsSchedule::Dynamic)
            .expect("clean run");
        let block = try_simulate_bfs_mta_scheduled(&el, 0, &tiny(), 1, 8, BfsSchedule::Block)
            .expect("clean run");
        assert_eq!(dynamic.levels, block.levels);
        assert_eq!(dynamic.levels, bfs_levels(&csr, 0));
        assert!(
            block.seconds > dynamic.seconds,
            "block {} vs dynamic {}",
            block.seconds,
            dynamic.seconds
        );
    }

    #[test]
    fn isolated_source_terminates_immediately() {
        let g = gen::with_isolated(&gen::path(6), 2);
        let r = simulate_bfs_mta(&g, 7, &tiny(), 1, 4);
        assert_eq!(r.level_count, 1);
        assert_eq!(r.levels[7], 0);
        assert!(r.levels[..6].iter().all(|&l| l == NIL));
    }
}
