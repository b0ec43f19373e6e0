//! Differential suite: trace batching must be *schedule preserving* — on
//! every program, the batching loop is bit-identical to the
//! single-step oracle in the full [`RunReport`] (cycles, issued, thirds,
//! op mix, memory counters, sync retries) and in the final memory image.
//!
//! Programs come from two sources:
//!
//! * property tests over structured random kernels (straight-line runs,
//!   bounded countdown loops, forward skips, loads/stores/`int_fetch_add`)
//!   across processor/stream combinations;
//! * hand-built kernels in the shape of the paper's Fig. 1 (list-walk)
//!   and Fig. 2 (edge-scan) inner loops.
//!
//! Any counterexample proptest ever finds should be pinned as a named
//! regression test at the bottom of this file.

use proptest::prelude::*;

use archgraph_core::MtaParams;
use archgraph_mta_sim::isa::{Program, ProgramBuilder, Reg};
use archgraph_mta_sim::machine::{with_engine, with_workers, MtaEngine, MtaMachine};
use archgraph_mta_sim::report::RunReport;

const MEM_WORDS: usize = 48;

/// Run `prog` under one engine; return the report and final memory image.
fn run_engine(
    prog: &Program,
    engine: MtaEngine,
    p: usize,
    streams: usize,
    mem_init: &[i64],
) -> (RunReport, Vec<i64>) {
    let mut m = MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), p, 1 << 12);
    let base = m.memory_mut().alloc(MEM_WORDS);
    assert_eq!(base, 0);
    for (a, &v) in mem_init.iter().enumerate() {
        m.memory_mut().poke(a, v);
    }
    m.set_engine(engine);
    let rep = m.run(prog, streams, |_, _| {});
    (rep, m.memory().peek_slice(0, MEM_WORDS))
}

/// Assert Trace agrees with the single-step oracle on `prog` for several
/// machine shapes.
fn assert_schedule_preserved(prog: &Program, mem_init: &[i64]) {
    for &(p, streams) in &[(1usize, 1usize), (1, 4), (2, 3), (2, 8)] {
        let (rs, ms) = run_engine(prog, MtaEngine::SingleStep, p, streams, mem_init);
        let (rt, mt) = run_engine(prog, MtaEngine::Trace, p, streams, mem_init);
        assert_eq!(rt, rs, "report diverged at p={p} streams={streams}");
        assert_eq!(mt, ms, "memory diverged at p={p} streams={streams}");
    }
}

/// A generatable operation for kernel bodies (no control flow here;
/// loops and skips are added structurally so programs always terminate).
#[derive(Debug, Clone, Copy)]
enum BodyOp {
    Li(u8, i8),
    Mov(u8, u8),
    Add(u8, u8, u8),
    AddI(u8, u8, i8),
    Sub(u8, u8, u8),
    Mul(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
    FetchAdd(u8, u8),
}

fn reg() -> impl Strategy<Value = u8> {
    2u8..8u8
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        (reg(), any::<i8>()).prop_map(|(d, i)| BodyOp::Li(d, i)),
        (reg(), reg()).prop_map(|(d, s)| BodyOp::Mov(d, s)),
        (reg(), reg(), reg()).prop_map(|(d, a, b)| BodyOp::Add(d, a, b)),
        (reg(), reg(), any::<i8>()).prop_map(|(d, a, i)| BodyOp::AddI(d, a, i)),
        (reg(), reg(), reg()).prop_map(|(d, a, b)| BodyOp::Sub(d, a, b)),
        (reg(), reg(), reg()).prop_map(|(d, a, b)| BodyOp::Mul(d, a, b)),
        (reg(), 0u8..MEM_WORDS as u8).prop_map(|(d, a)| BodyOp::Load(d, a)),
        (reg(), 0u8..MEM_WORDS as u8).prop_map(|(s, a)| BodyOp::Store(s, a)),
        (reg(), 0u8..MEM_WORDS as u8).prop_map(|(d, a)| BodyOp::FetchAdd(d, a)),
    ]
}

/// One structural segment of a generated kernel.
#[derive(Debug, Clone)]
enum Segment {
    /// Straight-line body ops.
    Flat(Vec<BodyOp>),
    /// A countdown loop: `iters` trips over the body (backward branch).
    Loop(u8, Vec<BodyOp>),
    /// A data-dependent forward skip over the body (`beq r_a, r_b`).
    Skip(u8, u8, Vec<BodyOp>),
}

fn body() -> impl Strategy<Value = Vec<BodyOp>> {
    proptest::collection::vec(body_op(), 1..8)
}

fn segment() -> impl Strategy<Value = Segment> {
    prop_oneof![
        body().prop_map(Segment::Flat),
        (1u8..5, body()).prop_map(|(k, b)| Segment::Loop(k, b)),
        (reg(), reg(), body()).prop_map(|(a, b, ops)| Segment::Skip(a, b, ops)),
    ]
}

fn emit_body(b: &mut ProgramBuilder, ops: &[BodyOp]) {
    for &op in ops {
        match op {
            BodyOp::Li(d, i) => b.li(Reg(d), i as i64),
            BodyOp::Mov(d, s) => b.mov(Reg(d), Reg(s)),
            BodyOp::Add(d, a, x) => b.add(Reg(d), Reg(a), Reg(x)),
            BodyOp::AddI(d, a, i) => b.addi(Reg(d), Reg(a), i as i64),
            BodyOp::Sub(d, a, x) => b.sub(Reg(d), Reg(a), Reg(x)),
            BodyOp::Mul(d, a, x) => b.mul(Reg(d), Reg(a), Reg(x)),
            BodyOp::Load(d, a) => b.load_abs(Reg(d), a as usize),
            BodyOp::Store(s, a) => b.store_abs(Reg(s), a as usize),
            BodyOp::FetchAdd(d, a) => b.fetch_add_imm(Reg(d), a as i64, Reg(2)),
        };
    }
}

/// Lower segments to a program. Loops use r9 as the trip counter so the
/// generated bodies (r2..r7) cannot clobber it.
fn lower(segments: &[Segment]) -> Program {
    let mut b = ProgramBuilder::new();
    for seg in segments {
        match seg {
            Segment::Flat(ops) => emit_body(&mut b, ops),
            Segment::Loop(k, ops) => {
                b.li(Reg(9), *k as i64);
                let top = b.here();
                emit_body(&mut b, ops);
                b.addi(Reg(9), Reg(9), -1);
                b.bne(Reg(9), Reg(0), top);
            }
            Segment::Skip(x, y, ops) => {
                let fx = b.beq_fwd(Reg(*x), Reg(*y));
                emit_body(&mut b, ops);
                b.bind(fx);
            }
        }
    }
    b.halt();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_agree_on_random_kernels(
        segments in proptest::collection::vec(segment(), 0..6),
        mem_init in proptest::collection::vec(-4i64..5, MEM_WORDS..MEM_WORDS + 1),
    ) {
        let prog = lower(&segments);
        for &(p, streams) in &[(1usize, 3usize), (2, 5)] {
            let (rs, ms) = run_engine(&prog, MtaEngine::SingleStep, p, streams, &mem_init);
            let (rt, mt) = run_engine(&prog, MtaEngine::Trace, p, streams, &mem_init);
            prop_assert_eq!(&rt, &rs, "report diverged at p={} streams={}", p, streams);
            prop_assert_eq!(&mt, &ms, "memory diverged at p={} streams={}", p, streams);
        }
    }
}

/// `MtaEngine::Compiled` and `MtaEngine::Partitioned` are retained names,
/// not engines: each selects exactly the loop `Trace` selects, so — unlike
/// the two real engines — even the host-side `EngineStats` agree, on a
/// program that batches and on one that cannot. `with_workers` sets
/// nothing, and no merge round is ever counted.
#[test]
fn compiled_is_an_alias_of_trace() {
    let mut b = ProgramBuilder::new();
    let (x, y) = (Reg(2), Reg(3));
    b.li(x, 1);
    for _ in 0..6 {
        b.add(y, x, x).add(x, y, x);
    }
    b.store_abs(x, 0).halt();
    let chain = b.build();
    let mut b = ProgramBuilder::new();
    b.store(Reg(1), Reg(1), 0).load(Reg(2), Reg(1), 0).halt();
    let flat = b.build();
    for (prog, streams, batches) in [(&chain, 1, true), (&flat, 8, false)] {
        let run = |engine| {
            with_engine(engine, || {
                let mut m = MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), 1, 1 << 12);
                m.memory_mut().alloc(MEM_WORDS);
                let rep = m.run(prog, streams, |_, _| {});
                (rep, m.memory().peek_slice(0, MEM_WORDS), m.engine_stats())
            })
        };
        let trace = run(MtaEngine::Trace);
        assert_eq!(run(MtaEngine::Compiled), trace);
        assert_eq!(with_workers(4, || run(MtaEngine::Partitioned)), trace);
        assert_eq!(trace.2.batches > 0, batches, "{:?}", trace.2);
        assert_eq!(trace.2.windows, 0);
    }
}

/// Fig. 1-shaped kernel: each stream claims a node by `int_fetch_add`,
/// then chases `next[]` pointers until it hits a marked node, counting
/// hops — the paper's list-walk inner loop (load-load-branch per step).
#[test]
fn fig1_walk_kernel_golden() {
    // Memory layout: [0] claim counter, [1] hop-count accumulator,
    // [2..2+n] next-pointer array (a ring offset by +2), marks at ring
    // positions divisible by 4 encoded as next = 0 (sentinel).
    let n = 24i64;
    let mut mem = vec![0i64; MEM_WORDS];
    for i in 0..n {
        let succ = (i + 1) % n;
        mem[(2 + i) as usize] = if succ % 4 == 0 { 0 } else { 2 + succ };
    }
    let mut b = ProgramBuilder::new();
    let (i, one, lim, j, c) = (Reg(2), Reg(3), Reg(4), Reg(5), Reg(6));
    b.li(one, 1).li(lim, n);
    let claim = b.here();
    b.fetch_add_imm(i, 0, one);
    let done = b.bge_fwd(i, lim);
    b.addi(j, i, 2); // node address
    let walk = b.here();
    b.load(j, j, 0); // j = next[j]
    b.beq(j, Reg(0), claim); // sentinel: walk done, claim another
    b.fetch_add_imm(c, 1, one); // count the hop
    b.jmp(walk);
    b.bind(done);
    b.halt();
    let prog = b.build();
    assert_schedule_preserved(&prog, &mem);
}

/// Fig. 2-shaped kernel: scan an edge list, and for each edge compare
/// component labels and conditionally store — the paper's Shiloach-Vishkin
/// graft step (load-load-compare-store per edge).
#[test]
fn fig2_graft_kernel_golden() {
    // Memory: [0] edge claim counter, edges at [2..2+2m] as (u,v) pairs,
    // labels D[] at [30..30+8].
    let m_edges = 10i64;
    let mut mem = vec![0i64; MEM_WORDS];
    for e in 0..m_edges {
        mem[(2 + 2 * e) as usize] = (e * 3) % 8;
        mem[(3 + 2 * e) as usize] = (e * 5 + 1) % 8;
    }
    for v in 0..8 {
        mem[30 + v as usize] = v;
    }
    let mut b = ProgramBuilder::new();
    let (e, one, lim, u, v, du, dv) = (Reg(2), Reg(3), Reg(4), Reg(5), Reg(6), Reg(7), Reg(8));
    b.li(one, 1).li(lim, m_edges);
    let top = b.here();
    b.fetch_add_imm(e, 0, one);
    let done = b.bge_fwd(e, lim);
    b.add(u, e, e); // 2e
    b.load(v, u, 3); // v = mem[2e + 3]
    b.load(u, u, 2); // u = mem[2e + 2]
    b.load(du, u, 30);
    b.load(dv, v, 30);
    let no_graft = b.bge_fwd(du, dv);
    b.store(du, v, 30); // D[v] = D[u] when D[u] < D[v] (racy, like Alg. 3)
    b.bind(no_graft);
    b.jmp(top);
    b.bind(done);
    b.halt();
    let prog = b.build();
    assert_schedule_preserved(&prog, &mem);
}

/// The shape the kernels run at: 8 MTA-2 processors × 100 streams, every
/// stream claiming list nodes off one `int_fetch_add` counter and chasing
/// `next[]` with a short ALU run per hop. With 800 streams nearly every
/// event pops from a bucket that still holds others, so the issue loop
/// skips the batch attempt on `TimeWheel::has_remnant`; the attempts it
/// skips could only have failed, so the host-side `EngineStats` are the
/// ones commit 64667d8 (no such gate) counted, and the few batches that do
/// fire must still reproduce the single-step oracle.
#[test]
fn saturated_shape_batches_exactly_as_before_the_remnant_gate() {
    const NODES: usize = 8192;
    const NEXT: i64 = 2; // next[] starts at word 2
    let run = |engine| {
        let mut m = MtaMachine::with_memory_words(MtaParams::mta2(), 8, 1 << 14);
        assert_eq!(m.memory_mut().alloc(NEXT as usize + NODES), 0);
        // A stride-389 ring where three nodes in four are sentinels: walks
        // are short, so the claim counter is a hotspot and a few streams
        // wake alone — the batches that do fire.
        for i in 0..NODES {
            let succ = (i + 389) % NODES;
            let word = if i % 4 != 0 { 0 } else { NEXT + succ as i64 };
            m.memory_mut().poke(NEXT as usize + i, word);
        }
        let mut b = ProgramBuilder::new();
        let (i, one, lim, j, c, acc) = (Reg(2), Reg(3), Reg(4), Reg(5), Reg(6), Reg(7));
        b.li(one, 1).li(lim, NODES as i64);
        let claim = b.here();
        b.fetch_add_imm(i, 0, one);
        let done = b.bge_fwd(i, lim);
        b.addi(j, i, NEXT);
        let walk = b.here();
        b.load(j, j, 0);
        b.addi(c, c, 1).add(acc, acc, c).addi(acc, acc, 3);
        b.beq(j, Reg(0), claim);
        b.jmp(walk);
        b.bind(done);
        b.fetch_add_imm(c, 1, acc);
        b.halt();
        m.set_engine(engine);
        let rep = m.run(&b.build(), 100, |_, _| {});
        (rep, m.memory().peek_slice(0, 2), m.engine_stats())
    };
    let (oracle_rep, oracle_mem, oracle) = run(MtaEngine::SingleStep);
    let (rep, mem, stats) = run(MtaEngine::Trace);
    assert_eq!(rep, oracle_rep);
    assert_eq!(mem, oracle_mem);
    assert_eq!(
        (oracle.events, oracle.batches, oracle.batched_instrs),
        (82_624, 0, 0),
        "single-step"
    );
    assert_eq!(
        (stats.events, stats.batches, stats.batched_instrs),
        (82_430, 194, 388),
        "trace"
    );
}

// ---------------------------------------------------------------------------
// Pinned regressions: hand-reduced cases that exercise batch-path edges.
// ---------------------------------------------------------------------------

/// A lone backward branch (run_len 1, tail): batchable via its taken edge.
#[test]
fn pinned_lone_branch_countdown() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(2), 50);
    let top = b.here();
    b.addi(Reg(2), Reg(2), -1);
    b.bne(Reg(2), Reg(0), top);
    b.halt();
    let prog = b.build();
    assert_schedule_preserved(&prog, &[]);
}

/// Halt inside a batched run must count as issued, then stop the stream.
#[test]
fn pinned_halt_terminates_batch() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(2), 1).add(Reg(3), Reg(2), Reg(2)).halt();
    let prog = b.build();
    assert_schedule_preserved(&prog, &[]);
}

/// A straight-line run longer than the decoder's `u8` saturation (255):
/// the truncated run must re-enter the batcher mid-trace and stay exact.
#[test]
fn pinned_run_longer_than_saturation() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(2), 0);
    for k in 0..300 {
        b.addi(Reg(2), Reg(2), k % 7);
    }
    b.store_abs(Reg(2), 0).halt();
    let prog = b.build();
    assert_schedule_preserved(&prog, &[0]);
}

/// A load feeding the next run's use-set: the batcher must refuse to run
/// past the not-yet-arrived register rather than issue early.
#[test]
fn pinned_load_use_blocks_batch() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(2), 5).store_abs(Reg(2), 3);
    b.load_abs(Reg(4), 3);
    b.add(Reg(5), Reg(4), Reg(4)); // needs the load
    b.addi(Reg(5), Reg(5), 1);
    b.store_abs(Reg(5), 4);
    b.halt();
    let prog = b.build();
    assert_schedule_preserved(&prog, &[0, 0, 0, 0, 0]);
}

/// Full/empty producer-consumer handshake: `writeef` / `readfe` retries
/// and word-hotspot serialization must schedule identically under every
/// engine (the generated kernels never emit sync ops, so this pins the
/// sync paths explicitly).
#[test]
fn pinned_sync_handshake() {
    // mem[1] starts empty; the lower half of the streams produce into it,
    // the upper half consume from it and accumulate into mem[4] via
    // fetch_add. The program is built per machine shape so producers and
    // consumers are exactly balanced (else the extras retry forever).
    let build = |total: i64| {
        let mut b = ProgramBuilder::new();
        let (v, half, t) = (Reg(2), Reg(3), Reg(5));
        b.li(half, total / 2);
        b.mul(v, Reg(1), Reg(1)); // per-stream payload
        let consumer = b.bge_fwd(Reg(1), half);
        b.writeef(v, Reg(0), 1);
        b.halt();
        b.bind(consumer);
        b.readfe(v, Reg(0), 1);
        b.fetch_add_imm(t, 4, v);
        b.halt();
        b.build()
    };
    for &(p, streams) in &[(1usize, 2usize), (2, 4), (2, 8)] {
        let prog = build((p * streams) as i64);
        let run = |engine| {
            let mut m = MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), p, 1 << 12);
            m.memory_mut().alloc(MEM_WORDS);
            m.memory_mut().set_empty(1);
            m.set_engine(engine);
            let rep = m.run(&prog, streams, |_, _| {});
            (rep, m.memory().peek_slice(0, MEM_WORDS))
        };
        let (rs, ms) = run(MtaEngine::SingleStep);
        let (rep, mem) = run(MtaEngine::Trace);
        assert_eq!(rep, rs, "report diverged at p={p} s={streams}");
        assert_eq!(mem, ms, "memory diverged at p={p} s={streams}");
        assert!(rep.mem.sync_ops > 0, "handshake must use sync ops");
    }
}

/// Forward skip taken vs not taken, diverging by stream id: streams pick
/// different paths, so the batcher follows different taken edges per
/// stream while the oracle interleaves them.
#[test]
fn pinned_stream_dependent_skip() {
    let mut b = ProgramBuilder::new();
    let fx = b.bne_fwd(Reg(1), Reg(0)); // stream 0 falls through
    b.li(Reg(2), 7).store_abs(Reg(2), 0);
    b.bind(fx);
    b.addi(Reg(3), Reg(1), 10);
    b.store(Reg(3), Reg(1), 8);
    b.halt();
    let prog = b.build();
    assert_schedule_preserved(&prog, &[]);
}
