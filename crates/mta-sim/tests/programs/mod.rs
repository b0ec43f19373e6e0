//! The structured random-program generator shared by the loop goldens'
//! property test and the program fuzzer.
//!
//! A program is a list of [`Segment`]s lowered to micro-ISA: straight-line
//! runs, bounded countdown loops and data-dependent forward skips, so
//! every generated program terminates. Bodies compute in r2..r7; r8
//! holds a private region's base; r9 is the loop counter; r10 and r11
//! take the values of the synchronizing and hot-word ops, which no body
//! op reads. The callers choose which
//! [`BodyOp`]s a body may hold and which register ordinary memory ops
//! address from.

#![allow(dead_code)] // each test target uses part of the generator

use proptest::prelude::*;

use archgraph_mta_sim::isa::{Program, ProgramBuilder, Reg};

/// A generatable operation for kernel bodies (no control flow here;
/// loops and skips are added structurally so programs always terminate).
#[derive(Debug, Clone, Copy)]
pub enum BodyOp {
    Li(u8, i8),
    Mov(u8, u8),
    Add(u8, u8, u8),
    AddI(u8, u8, i8),
    Sub(u8, u8, u8),
    Mul(u8, u8, u8),
    /// `r_d = mem[base + off]`.
    Load(u8, u8),
    /// `mem[base + off] = r_s`.
    Store(u8, u8),
    /// `r_d = int_fetch_add(mem[base + off], r2)`.
    FetchAdd(u8, u8),
    /// `int_fetch_add(mem[hot], r2)`, the old value dropped in r10.
    HotAdd(u8),
    /// A critical section on a hot word: `readfe r10`, add the
    /// immediate, `writeef r10`. It leaves the tag as it found it.
    Lock(u8, i8),
    /// `readff r11` of a hot word, the value dropped.
    Peek(u8),
    /// Post `r_s` to the mailbox with `writeef`, then take it back with
    /// `readfe` into r10: the mailbox starts and ends empty.
    Post(u8),
}

/// One structural segment of a generated kernel.
#[derive(Debug, Clone)]
pub enum Segment {
    /// Straight-line body ops.
    Flat(Vec<BodyOp>),
    /// A countdown loop: `iters` trips over the body (backward branch).
    Loop(u8, Vec<BodyOp>),
    /// A data-dependent forward skip over the body (`beq r_a, r_b`).
    Skip(u8, u8, Vec<BodyOp>),
}

/// Where ordinary memory ops and the mailbox live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addressing {
    /// Offsets are absolute word addresses shared by every stream, and
    /// the mailbox is the absolute word `mailbox`.
    Shared { mailbox: usize },
    /// Each stream owns `stride` words from `first + stride × r1`
    /// (held in r8); offsets and the mailbox (private word 0) are
    /// relative to it, so no two streams touch the same ordinary word.
    Private { first: usize, stride: usize },
}

/// A body register.
pub fn reg() -> impl Strategy<Value = u8> {
    2u8..8u8
}

/// The ALU ops every body may hold.
pub fn alu_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        (reg(), any::<i8>()).prop_map(|(d, i)| BodyOp::Li(d, i)),
        (reg(), reg()).prop_map(|(d, s)| BodyOp::Mov(d, s)),
        (reg(), reg(), reg()).prop_map(|(d, a, b)| BodyOp::Add(d, a, b)),
        (reg(), reg(), any::<i8>()).prop_map(|(d, a, i)| BodyOp::AddI(d, a, i)),
        (reg(), reg(), reg()).prop_map(|(d, a, b)| BodyOp::Sub(d, a, b)),
        (reg(), reg(), reg()).prop_map(|(d, a, b)| BodyOp::Mul(d, a, b)),
    ]
}

/// Segments whose bodies draw from the strategy `op` makes.
pub fn segment<S>(op: fn() -> S) -> impl Strategy<Value = Segment>
where
    S: Strategy<Value = BodyOp> + 'static,
{
    let body = move || proptest::collection::vec(op(), 1..8);
    prop_oneof![
        body().prop_map(Segment::Flat),
        (1u8..5, body()).prop_map(|(k, b)| Segment::Loop(k, b)),
        (reg(), reg(), body()).prop_map(|(a, b, ops)| Segment::Skip(a, b, ops)),
    ]
}

fn emit_body(b: &mut ProgramBuilder, ops: &[BodyOp], addressing: Addressing) {
    let (base, mailbox) = match addressing {
        Addressing::Shared { mailbox } => (Reg(0), mailbox as i64),
        Addressing::Private { .. } => (Reg(8), 0),
    };
    let (r10, r11) = (Reg(10), Reg(11));
    for &op in ops {
        match op {
            BodyOp::Li(d, i) => b.li(Reg(d), i as i64),
            BodyOp::Mov(d, s) => b.mov(Reg(d), Reg(s)),
            BodyOp::Add(d, a, x) => b.add(Reg(d), Reg(a), Reg(x)),
            BodyOp::AddI(d, a, i) => b.addi(Reg(d), Reg(a), i as i64),
            BodyOp::Sub(d, a, x) => b.sub(Reg(d), Reg(a), Reg(x)),
            BodyOp::Mul(d, a, x) => b.mul(Reg(d), Reg(a), Reg(x)),
            BodyOp::Load(d, a) => b.load(Reg(d), base, a as i64),
            BodyOp::Store(s, a) => b.store(Reg(s), base, a as i64),
            BodyOp::FetchAdd(d, a) => b.fetch_add(Reg(d), base, a as i64, Reg(2)),
            BodyOp::HotAdd(h) => b.fetch_add_imm(r10, h as i64, Reg(2)),
            BodyOp::Lock(h, k) => b
                .readfe(r10, Reg(0), h as i64)
                .addi(r10, r10, k as i64)
                .writeef(r10, Reg(0), h as i64),
            BodyOp::Peek(h) => b.readff(r11, Reg(0), h as i64),
            BodyOp::Post(s) => b.writeef(Reg(s), base, mailbox).readfe(r10, base, mailbox),
        };
    }
}

/// Lower segments to a program. Loops use r9 as the trip counter so the
/// generated bodies (r2..r7) cannot clobber it.
pub fn lower(segments: &[Segment], addressing: Addressing) -> Program {
    let mut b = ProgramBuilder::new();
    if let Addressing::Private { first, stride } = addressing {
        b.li(Reg(8), stride as i64)
            .mul(Reg(8), Reg(1), Reg(8))
            .addi(Reg(8), Reg(8), first as i64);
    }
    for seg in segments {
        match seg {
            Segment::Flat(ops) => emit_body(&mut b, ops, addressing),
            Segment::Loop(k, ops) => {
                b.li(Reg(9), *k as i64);
                let top = b.here();
                emit_body(&mut b, ops, addressing);
                b.addi(Reg(9), Reg(9), -1);
                b.bne(Reg(9), Reg(0), top);
            }
            Segment::Skip(x, y, ops) => {
                let fx = b.beq_fwd(Reg(*x), Reg(*y));
                emit_body(&mut b, ops, addressing);
                b.bind(fx);
            }
        }
    }
    b.halt();
    b.build()
}
