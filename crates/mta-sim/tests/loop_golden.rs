//! Loop goldens: the issue loop in `machine.rs`, pinned at instruction
//! level.
//!
//! * Hand-built kernels — the paper's Fig. 1 list walk and Fig. 2 graft
//!   inner loops, six small programs that each once caught a scheduling
//!   edge, and the 8 × 100-stream shape the kernels run at — assert
//!   **absolute** values: cycles, issued, issue-slot thirds, sync retries,
//!   the op mix and an FNV of the final memory image, per machine shape.
//!   `golden/loop.txt` was recorded by running this file on commit 9c672cf
//!   with batching off (the reference loop, which is the loop that
//!   remains; batching on printed the same text). After an intended model
//!   change, replace a kernel's lines with the ones its failure prints.
//! * Property tests over structured random kernels (straight-line runs,
//!   bounded countdown loops, forward skips, loads/stores/`int_fetch_add`)
//!   assert what needs no second implementation: a run is deterministic
//!   and its accounting conserves issue slots. The generator lives in
//!   `programs/mod.rs`, shared with the program fuzzer
//!   (`program_fuzz.rs`).

mod programs;

use proptest::prelude::*;

use archgraph_core::MtaParams;
use archgraph_mta_sim::isa::{Program, ProgramBuilder, Reg};
use archgraph_mta_sim::machine::MtaMachine;
use archgraph_mta_sim::report::RunReport;

use programs::{alu_op, lower, reg, segment, Addressing, BodyOp};

const GOLDEN: &str = include_str!("golden/loop.txt");

const MEM_WORDS: usize = 48;

/// The machine shapes every small kernel is pinned on.
const SHAPES: [(usize, usize); 4] = [(1, 1), (1, 4), (2, 3), (2, 8)];

/// Run `prog` on the tiny test machine; return the report and the final
/// memory image.
fn run(prog: &Program, p: usize, streams: usize, mem_init: &[i64]) -> (RunReport, Vec<i64>) {
    let mut m = MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), p, 1 << 12);
    let base = m.memory_mut().alloc(MEM_WORDS);
    assert_eq!(base, 0);
    for (a, &v) in mem_init.iter().enumerate() {
        m.memory_mut().poke(a, v);
    }
    let rep = m.run(prog, streams, |_, _| {});
    (rep, m.memory().peek_slice(0, MEM_WORDS))
}

/// One golden line: everything of a run that is a simulated quantity.
fn line(name: &str, rep: &RunReport, mem: &[i64]) -> String {
    let fnv = mem
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    let mix: Vec<String> = rep.op_mix.iter().map(u64::to_string).collect();
    format!(
        "{name} p={} s={} cycles={} issued={} thirds={} retries={} mix={} mem={fnv:016x}\n",
        rep.processors,
        rep.streams_per_processor,
        rep.cycles,
        rep.issued,
        rep.issued_thirds,
        rep.sync_retries,
        mix.join(","),
    )
}

/// `fresh` must be exactly the lines `golden/loop.txt` holds for `name`.
fn assert_golden(name: &str, fresh: &str) {
    let want: String = GOLDEN
        .lines()
        .filter(|l| l.split(' ').next() == Some(name))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        fresh == want,
        "{name} moved off golden/loop.txt; this run:\n{fresh}recorded:\n{want}"
    );
}

/// Pin `prog` on every shape in [`SHAPES`].
fn assert_pinned(name: &str, prog: &Program, mem_init: &[i64]) {
    let fresh: String = SHAPES
        .iter()
        .map(|&(p, streams)| {
            let (rep, mem) = run(prog, p, streams, mem_init);
            line(name, &rep, &mem)
        })
        .collect();
    assert_golden(name, &fresh);
}

/// Body ops for the determinism property: ALU ops and ordinary memory
/// ops on absolute words shared by every stream, no sync ops.
fn body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        alu_op(),
        (reg(), 0u8..MEM_WORDS as u8).prop_map(|(d, a)| BodyOp::Load(d, a)),
        (reg(), 0u8..MEM_WORDS as u8).prop_map(|(s, a)| BodyOp::Store(s, a)),
        (reg(), 0u8..MEM_WORDS as u8).prop_map(|(d, a)| BodyOp::FetchAdd(d, a)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two runs of one generated kernel agree in report and memory, and
    /// the report's accounting is consistent with itself.
    #[test]
    fn random_kernels_are_deterministic_and_conserve_issue_slots(
        segments in proptest::collection::vec(segment(body_op), 0..6),
        mem_init in proptest::collection::vec(-4i64..5, MEM_WORDS..MEM_WORDS + 1),
    ) {
        let prog = lower(&segments, Addressing::Shared { mailbox: 0 });
        for &(p, streams) in &[(1usize, 3usize), (2, 5)] {
            let (rep, mem) = run(&prog, p, streams, &mem_init);
            let (again, mem_again) = run(&prog, p, streams, &mem_init);
            prop_assert_eq!(&again, &rep, "report differs between runs at p={} streams={}", p, streams);
            prop_assert_eq!(&mem_again, &mem, "memory differs between runs at p={} streams={}", p, streams);
            prop_assert_eq!(rep.issued, rep.op_mix.iter().sum::<u64>());
            prop_assert!(rep.issued_thirds <= 3 * p as u64 * rep.cycles);
        }
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
    assert_pinned("fig1_walk", &prog, &mem);
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
    assert_pinned("fig2_graft", &prog, &mem);
}

/// The shape the kernels run at: 8 MTA-2 processors × 100 streams, every
/// stream claiming list nodes off one `int_fetch_add` counter and chasing
/// `next[]` with a short ALU run per hop. Pins the host-side event count
/// beside the simulated line: here exactly one scheduler visit per issued
/// instruction, since a stream is woken when its next operands are ready.
#[test]
fn saturated_shape_batches_exactly_as_before_the_remnant_gate() {
    const NODES: usize = 8192;
    const NEXT: i64 = 2; // next[] starts at word 2
    let mut m = MtaMachine::with_memory_words(MtaParams::mta2(), 8, 1 << 14);
    assert_eq!(m.memory_mut().alloc(NEXT as usize + NODES), 0);
    // A stride-389 ring where three nodes in four are sentinels: walks
    // are short, so the claim counter is a hotspot.
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
    let rep = m.run(&b.build(), 100, |_, _| {});
    assert_golden(
        "saturated",
        &line("saturated", &rep, &m.memory().peek_slice(0, 2)),
    );
    let stats = m.engine_stats();
    assert_eq!(
        (stats.events, stats.batches, stats.batched_instrs),
        (82_624, 0, 0)
    );
}

// ---------------------------------------------------------------------------
// Hand-reduced programs, each a scheduling edge.
// ---------------------------------------------------------------------------

/// A countdown whose body is one `addi` and a lone backward branch.
#[test]
fn pinned_lone_branch_countdown() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(2), 50);
    let top = b.here();
    b.addi(Reg(2), Reg(2), -1);
    b.bne(Reg(2), Reg(0), top);
    b.halt();
    let prog = b.build();
    assert_pinned("lone_branch_countdown", &prog, &[]);
}

/// `halt` straight after an ALU run counts as issued, then stops the stream.
#[test]
fn pinned_halt_terminates_batch() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(2), 1).add(Reg(3), Reg(2), Reg(2)).halt();
    let prog = b.build();
    assert_pinned("halt_after_alu_run", &prog, &[]);
}

/// A straight-line run of 300 dependent ALU ops ahead of one store.
#[test]
fn pinned_run_longer_than_saturation() {
    let mut b = ProgramBuilder::new();
    b.li(Reg(2), 0);
    for k in 0..300 {
        b.addi(Reg(2), Reg(2), k % 7);
    }
    b.store_abs(Reg(2), 0).halt();
    let prog = b.build();
    assert_pinned("long_alu_run", &prog, &[0]);
}

/// A load feeding the next ALU op: the stream must wait for the register
/// rather than issue early.
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
    assert_pinned("load_use", &prog, &[0, 0, 0, 0, 0]);
}

/// Full/empty producer-consumer handshake: `writeef` / `readfe` retries
/// and word-hotspot serialization (the generated kernels never emit sync
/// ops, so this pins the sync paths explicitly).
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
    let mut fresh = String::new();
    for &(p, streams) in &[(1usize, 2usize), (1, 8), (2, 4), (2, 8)] {
        let prog = build((p * streams) as i64);
        let mut m = MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), p, 1 << 12);
        m.memory_mut().alloc(MEM_WORDS);
        m.memory_mut().set_empty(1);
        let rep = m.run(&prog, streams, |_, _| {});
        assert!(rep.mem.sync_ops > 0, "handshake must use sync ops");
        fresh += &line("sync_handshake", &rep, &m.memory().peek_slice(0, MEM_WORDS));
    }
    assert_golden("sync_handshake", &fresh);
}

/// Forward skip taken vs not taken, diverging by stream id: streams pick
/// different paths through one program.
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
    assert_pinned("stream_dependent_skip", &prog, &[]);
}
