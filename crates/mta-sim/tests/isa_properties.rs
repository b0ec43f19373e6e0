//! Property tests for the MTA engine: on arbitrary straight-line ALU
//! programs the event-driven, stream-interleaved engine must compute
//! exactly what a trivial sequential reference interpreter computes, and
//! its accounting invariants must hold for any program.

use proptest::prelude::*;

use archgraph_core::MtaParams;
use archgraph_mta_sim::asm::assemble;
use archgraph_mta_sim::isa::{ProgramBuilder, Reg, NREGS};
use archgraph_mta_sim::machine::MtaMachine;

/// A generatable straight-line operation (no control flow, no sync).
#[derive(Debug, Clone, Copy)]
enum FlatOp {
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

const MEM_WORDS: usize = 32;

fn reg() -> impl Strategy<Value = u8> {
    2u8..8u8 // stay clear of r0/r1 conventions
}

fn flat_op() -> impl Strategy<Value = FlatOp> {
    prop_oneof![
        (reg(), any::<i8>()).prop_map(|(d, i)| FlatOp::Li(d, i)),
        (reg(), reg()).prop_map(|(d, s)| FlatOp::Mov(d, s)),
        (reg(), reg(), reg()).prop_map(|(d, a, b)| FlatOp::Add(d, a, b)),
        (reg(), reg(), any::<i8>()).prop_map(|(d, a, i)| FlatOp::AddI(d, a, i)),
        (reg(), reg(), reg()).prop_map(|(d, a, b)| FlatOp::Sub(d, a, b)),
        (reg(), reg(), reg()).prop_map(|(d, a, b)| FlatOp::Mul(d, a, b)),
        (reg(), 0u8..MEM_WORDS as u8).prop_map(|(d, a)| FlatOp::Load(d, a)),
        (reg(), 0u8..MEM_WORDS as u8).prop_map(|(s, a)| FlatOp::Store(s, a)),
        (reg(), 0u8..MEM_WORDS as u8).prop_map(|(d, a)| FlatOp::FetchAdd(d, a)),
    ]
}

fn emit(b: &mut ProgramBuilder, ops: &[FlatOp]) {
    for &op in ops {
        match op {
            FlatOp::Li(d, i) => b.li(Reg(d), i as i64),
            FlatOp::Mov(d, s) => b.mov(Reg(d), Reg(s)),
            FlatOp::Add(d, a, x) => b.add(Reg(d), Reg(a), Reg(x)),
            FlatOp::AddI(d, a, i) => b.addi(Reg(d), Reg(a), i as i64),
            FlatOp::Sub(d, a, x) => b.sub(Reg(d), Reg(a), Reg(x)),
            FlatOp::Mul(d, a, x) => b.mul(Reg(d), Reg(a), Reg(x)),
            FlatOp::Load(d, a) => b.load_abs(Reg(d), a as usize),
            FlatOp::Store(s, a) => b.store_abs(Reg(s), a as usize),
            FlatOp::FetchAdd(d, a) => {
                // delta register is the destination's old value source: use r2.
                b.fetch_add_imm(Reg(d), a as i64, Reg(2))
            }
        };
    }
}

fn lower(ops: &[FlatOp]) -> archgraph_mta_sim::isa::Program {
    let mut b = ProgramBuilder::new();
    emit(&mut b, ops);
    b.halt();
    b.build()
}

/// One stretch of a program built to be decoded, not run: a few arbitrary
/// flat ops, then a terminator picked by `term`.
fn stretch() -> impl Strategy<Value = (Vec<FlatOp>, u8)> {
    (proptest::collection::vec(flat_op(), 0..6), 0u8..5)
}

/// Reference interpreter: one stream, sequential, no timing.
fn reference(ops: &[FlatOp], mem: &mut [i64]) -> [i64; NREGS] {
    let mut r = [0i64; NREGS];
    r[1] = 0; // stream id of the single stream
    for &op in ops {
        match op {
            FlatOp::Li(d, i) => r[d as usize] = i as i64,
            FlatOp::Mov(d, s) => r[d as usize] = r[s as usize],
            FlatOp::Add(d, a, b) => r[d as usize] = r[a as usize].wrapping_add(r[b as usize]),
            FlatOp::AddI(d, a, i) => r[d as usize] = r[a as usize].wrapping_add(i as i64),
            FlatOp::Sub(d, a, b) => r[d as usize] = r[a as usize].wrapping_sub(r[b as usize]),
            FlatOp::Mul(d, a, b) => r[d as usize] = r[a as usize].wrapping_mul(r[b as usize]),
            FlatOp::Load(d, a) => r[d as usize] = mem[a as usize],
            FlatOp::Store(s, a) => mem[a as usize] = r[s as usize],
            FlatOp::FetchAdd(d, a) => {
                let old = mem[a as usize];
                mem[a as usize] = old.wrapping_add(r[2]);
                r[d as usize] = old;
            }
        }
        r[0] = 0;
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn disassembly_assembles_back_to_the_same_program(
        ops in proptest::collection::vec(flat_op(), 0..50)
    ) {
        let p1 = lower(&ops);
        let p2 = assemble(&p1.disassemble()).expect("disassembly must re-assemble");
        prop_assert_eq!(p1, p2);
    }

    #[test]
    fn per_pc_record_agrees_with_the_instructions(
        stretches in proptest::collection::vec(stretch(), 1..4)
    ) {
        let mut b = ProgramBuilder::new();
        let mut fwd = Vec::new();
        for (ops, term) in &stretches {
            emit(&mut b, ops);
            match term {
                0 => {}
                1 => { b.beq(Reg(2), Reg(5), 0); }
                2 => { b.jmp(0); }
                3 => { b.halt(); }
                _ => fwd.push(b.bne_fwd(Reg(6), Reg(0))),
            }
        }
        for fx in fwd {
            b.bind(fx);
        }
        let prog = b.build();
        prop_assert_eq!(prog.decoded().len(), prog.len());
        for (ins, d) in prog.instrs().iter().zip(prog.decoded()) {
            let [a, b] = ins.sources();
            prop_assert_eq!([d.src0, d.src1], [a.map_or(0, |r| r.0), b.map_or(0, |r| r.0)]);
            prop_assert_eq!(d.is_memory, ins.is_memory());
            prop_assert_eq!(d.cost, if ins.is_memory() { 3 } else { 1 });
            prop_assert_eq!(d.class_idx as usize, ins.class().index());
        }
    }

    #[test]
    fn single_stream_matches_reference(ops in proptest::collection::vec(flat_op(), 0..60)) {
        // Engine run.
        let mut m = MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), 1, 64);
        m.memory_mut().alloc(MEM_WORDS);
        let prog = lower(&ops);
        // Observe final registers through memory: append stores of every
        // register... instead, compare memory only (registers die with the
        // stream). Stores/fetch_adds make memory a sufficient witness; to
        // strengthen it, dump r2..r8 to scratch words at the end.
        let mut b = ProgramBuilder::new();
        for i in prog.instrs().iter().take(prog.len() - 1) {
            b.push(*i);
        }
        for (k, rr) in (2u8..8).enumerate() {
            b.store_abs(Reg(rr), MEM_WORDS + k);
        }
        b.halt();
        let prog = b.build();
        m.run(&prog, 1, |_, _| {});

        // Reference run.
        let mut mem = vec![0i64; MEM_WORDS];
        let regs = reference(&ops, &mut mem);

        for (a, &expect) in mem.iter().enumerate() {
            prop_assert_eq!(m.memory().peek(a), expect, "memory word {}", a);
        }
        for (k, rr) in (2usize..8).enumerate() {
            prop_assert_eq!(m.memory().peek(MEM_WORDS + k), regs[rr], "r{}", rr);
        }
    }

    #[test]
    fn accounting_invariants_hold(ops in proptest::collection::vec(flat_op(), 0..40), streams in 1usize..8) {
        let mut m = MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), 2, 64);
        m.memory_mut().alloc(MEM_WORDS);
        let prog = lower(&ops);
        let rep = m.run(&prog, streams, |_, _| {});
        let total_streams = 2 * streams as u64;
        // Every stream executes every instruction exactly once.
        prop_assert_eq!(rep.issued, prog.len() as u64 * total_streams);
        // Thirds: memory ops cost 3, the rest 1.
        let mem_ops = ops.iter().filter(|o| matches!(o,
            FlatOp::Load(..) | FlatOp::Store(..) | FlatOp::FetchAdd(..))).count() as u64;
        let expect_thirds = total_streams * (mem_ops * 3 + (prog.len() as u64 - mem_ops));
        prop_assert_eq!(rep.issued_thirds, expect_thirds);
        // Utilization bounded; op-mix sums to issued.
        prop_assert!(rep.utilization >= 0.0 && rep.utilization <= 1.0 + 1e-12);
        prop_assert_eq!(rep.op_mix.iter().sum::<u64>(), rep.issued);
        // Memory counters match the op counts.
        let loads = ops.iter().filter(|o| matches!(o, FlatOp::Load(..))).count() as u64;
        let stores = ops.iter().filter(|o| matches!(o, FlatOp::Store(..))).count() as u64;
        let faas = ops.iter().filter(|o| matches!(o, FlatOp::FetchAdd(..))).count() as u64;
        prop_assert_eq!(rep.mem.loads, loads * total_streams);
        // +6 register-dump stores? No: this test lowers without the dump.
        prop_assert_eq!(rep.mem.stores, stores * total_streams);
        prop_assert_eq!(rep.mem.fetch_adds, faas * total_streams);
    }
}
