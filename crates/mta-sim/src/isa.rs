//! The micro-ISA and assembler for simulated MTA programs.
//!
//! The real MTA executes three-wide LIW instructions (a memory op, a
//! fused multiply-add, and a control op). We model the *operation stream*
//! one operation per issue slot, with the algorithm lowerings written as
//! tightly as the MTA compiler would pack them; the machine parameters'
//! `issue_lookahead_instrs` captures how many further operations a stream
//! typically issues before depending on an outstanding load.
//!
//! Programs address memory in words. Register 0 is hardwired to zero
//! (writes to it are discarded), so an absolute address is expressed as
//! `Reg(0) + offset`.
//!
//! Reached by: every MTA suite cell (its program).

/// A register name. Each stream has [`NREGS`] registers; `Reg(0)` reads
/// as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

/// Registers per stream (the MTA stream holds 32).
pub const NREGS: usize = 32;

/// Register 0: hardwired zero.
pub const ZERO: Reg = Reg(0);

/// Register 1: preloaded by the loader with the stream's global index.
pub const STREAM_ID: Reg = Reg(1);

/// One micro-ISA operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `dst = imm`
    Li {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `dst = src`
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = a + b`
    Add {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = a + imm`
    AddI {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Immediate addend.
        imm: i64,
    },
    /// `dst = a - b`
    Sub {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = a * b`
    Mul {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Ordinary load: `dst = mem[a + off]`
    Load {
        /// Destination register.
        dst: Reg,
        /// Address base register.
        addr: Reg,
        /// Word offset.
        off: i64,
    },
    /// Ordinary store: `mem[a + off] = src`
    Store {
        /// Value register.
        src: Reg,
        /// Address base register.
        addr: Reg,
        /// Word offset.
        off: i64,
    },
    /// Synchronous read-and-empty (retries while the word is empty).
    ReadFE {
        /// Destination register.
        dst: Reg,
        /// Address base register.
        addr: Reg,
        /// Word offset.
        off: i64,
    },
    /// Synchronous write-and-fill (retries while the word is full).
    WriteEF {
        /// Value register.
        src: Reg,
        /// Address base register.
        addr: Reg,
        /// Word offset.
        off: i64,
    },
    /// Synchronous read-when-full (retries while empty; does not empty).
    ReadFF {
        /// Destination register.
        dst: Reg,
        /// Address base register.
        addr: Reg,
        /// Word offset.
        off: i64,
    },
    /// Atomic `dst = fetch_add(mem[a + off], delta)`.
    FetchAdd {
        /// Destination register receiving the old value.
        dst: Reg,
        /// Address base register.
        addr: Reg,
        /// Word offset.
        off: i64,
        /// Register holding the addend.
        delta: Reg,
    },
    /// Branch to `target` when `a == b`.
    Beq {
        /// Left comparand.
        a: Reg,
        /// Right comparand.
        b: Reg,
        /// Instruction index to jump to.
        target: usize,
    },
    /// Branch when `a != b`.
    Bne {
        /// Left comparand.
        a: Reg,
        /// Right comparand.
        b: Reg,
        /// Instruction index to jump to.
        target: usize,
    },
    /// Branch when `a < b` (signed).
    Blt {
        /// Left comparand.
        a: Reg,
        /// Right comparand.
        b: Reg,
        /// Instruction index to jump to.
        target: usize,
    },
    /// Branch when `a >= b` (signed).
    Bge {
        /// Left comparand.
        a: Reg,
        /// Right comparand.
        b: Reg,
        /// Instruction index to jump to.
        target: usize,
    },
    /// Unconditional jump.
    Jmp {
        /// Instruction index to jump to.
        target: usize,
    },
    /// Terminate this stream.
    Halt,
}

/// Coarse operation classes for instruction-mix accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Register moves and ALU arithmetic.
    Alu,
    /// Ordinary loads.
    Load,
    /// Ordinary stores.
    Store,
    /// Synchronous (full/empty) operations.
    Sync,
    /// Atomic fetch-and-add.
    FetchAdd,
    /// Branches and jumps.
    Control,
    /// Stream termination.
    Halt,
}

/// Number of [`OpClass`] variants (histogram width).
pub const N_OP_CLASSES: usize = 7;

impl OpClass {
    /// Dense index for histograms.
    pub fn index(self) -> usize {
        match self {
            OpClass::Alu => 0,
            OpClass::Load => 1,
            OpClass::Store => 2,
            OpClass::Sync => 3,
            OpClass::FetchAdd => 4,
            OpClass::Control => 5,
            OpClass::Halt => 6,
        }
    }
}

impl Instr {
    /// The instruction-mix class of this operation.
    pub fn class(&self) -> OpClass {
        match self {
            Instr::Li { .. }
            | Instr::Mov { .. }
            | Instr::Add { .. }
            | Instr::AddI { .. }
            | Instr::Sub { .. }
            | Instr::Mul { .. } => OpClass::Alu,
            Instr::Load { .. } => OpClass::Load,
            Instr::Store { .. } => OpClass::Store,
            Instr::ReadFE { .. } | Instr::WriteEF { .. } | Instr::ReadFF { .. } => OpClass::Sync,
            Instr::FetchAdd { .. } => OpClass::FetchAdd,
            Instr::Beq { .. }
            | Instr::Bne { .. }
            | Instr::Blt { .. }
            | Instr::Bge { .. }
            | Instr::Jmp { .. } => OpClass::Control,
            Instr::Halt => OpClass::Halt,
        }
    }

    /// True for operations that go to the memory system (and occupy a slot
    /// in the stream's outstanding-operation window).
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::ReadFE { .. }
                | Instr::WriteEF { .. }
                | Instr::ReadFF { .. }
                | Instr::FetchAdd { .. }
        )
    }

    /// Source registers read by this operation.
    pub fn sources(&self) -> [Option<Reg>; 2] {
        match *self {
            Instr::Li { .. } | Instr::Jmp { .. } | Instr::Halt => [None, None],
            Instr::Mov { src, .. } => [Some(src), None],
            Instr::Add { a, b, .. } | Instr::Sub { a, b, .. } | Instr::Mul { a, b, .. } => {
                [Some(a), Some(b)]
            }
            Instr::AddI { a, .. } => [Some(a), None],
            Instr::Load { addr, .. } | Instr::ReadFE { addr, .. } | Instr::ReadFF { addr, .. } => {
                [Some(addr), None]
            }
            Instr::Store { src, addr, .. } | Instr::WriteEF { src, addr, .. } => {
                [Some(src), Some(addr)]
            }
            Instr::FetchAdd { addr, delta, .. } => [Some(addr), Some(delta)],
            Instr::Beq { a, b, .. }
            | Instr::Bne { a, b, .. }
            | Instr::Blt { a, b, .. }
            | Instr::Bge { a, b, .. } => [Some(a), Some(b)],
        }
    }

    /// Destination register written, if any.
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Instr::Li { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Add { dst, .. }
            | Instr::AddI { dst, .. }
            | Instr::Sub { dst, .. }
            | Instr::Mul { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::ReadFE { dst, .. }
            | Instr::ReadFF { dst, .. }
            | Instr::FetchAdd { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Branch/jump target, if any.
    pub fn target(&self) -> Option<usize> {
        match *self {
            Instr::Beq { target, .. }
            | Instr::Bne { target, .. }
            | Instr::Blt { target, .. }
            | Instr::Bge { target, .. }
            | Instr::Jmp { target } => Some(target),
            _ => None,
        }
    }
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Instr::Li { dst, imm } => write!(f, "li    r{}, {}", dst.0, imm),
            Instr::Mov { dst, src } => write!(f, "mov   r{}, r{}", dst.0, src.0),
            Instr::Add { dst, a, b } => write!(f, "add   r{}, r{}, r{}", dst.0, a.0, b.0),
            Instr::AddI { dst, a, imm } => write!(f, "addi  r{}, r{}, {}", dst.0, a.0, imm),
            Instr::Sub { dst, a, b } => write!(f, "sub   r{}, r{}, r{}", dst.0, a.0, b.0),
            Instr::Mul { dst, a, b } => write!(f, "mul   r{}, r{}, r{}", dst.0, a.0, b.0),
            Instr::Load { dst, addr, off } => write!(f, "ld    r{}, [r{}+{}]", dst.0, addr.0, off),
            Instr::Store { src, addr, off } => write!(f, "st    r{}, [r{}+{}]", src.0, addr.0, off),
            Instr::ReadFE { dst, addr, off } => {
                write!(f, "rdfe  r{}, [r{}+{}]", dst.0, addr.0, off)
            }
            Instr::WriteEF { src, addr, off } => {
                write!(f, "wref  r{}, [r{}+{}]", src.0, addr.0, off)
            }
            Instr::ReadFF { dst, addr, off } => {
                write!(f, "rdff  r{}, [r{}+{}]", dst.0, addr.0, off)
            }
            Instr::FetchAdd {
                dst,
                addr,
                off,
                delta,
            } => {
                write!(f, "faa   r{}, [r{}+{}], r{}", dst.0, addr.0, off, delta.0)
            }
            Instr::Beq { a, b, target } => write!(f, "beq   r{}, r{}, @{}", a.0, b.0, target),
            Instr::Bne { a, b, target } => write!(f, "bne   r{}, r{}, @{}", a.0, b.0, target),
            Instr::Blt { a, b, target } => write!(f, "blt   r{}, r{}, @{}", a.0, b.0, target),
            Instr::Bge { a, b, target } => write!(f, "bge   r{}, r{}, @{}", a.0, b.0, target),
            Instr::Jmp { target } => write!(f, "jmp   @{}", target),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

/// One program counter's scheduling record: everything the issue loop asks
/// about `instrs[pc]` before executing it.
///
/// Source registers are stored as indices with "no operand" mapped to
/// register 0, whose ready time is pinned at 0 (r0 is never written), so
/// the readiness max over both slots is branch-free and exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// First source register, [`Instr::sources`] order (absent → r0).
    pub src0: u8,
    /// Second source register (absent → r0).
    pub src1: u8,
    /// Issue-slot thirds this operation consumes (memory 3, other 1).
    pub cost: u8,
    /// [`Instr::is_memory`].
    pub is_memory: bool,
    /// [`OpClass::index`] of [`Instr::class`].
    pub class_idx: u8,
}

impl Decoded {
    fn of(ins: &Instr) -> Decoded {
        let [src0, src1] = ins.sources().map(|s| s.map_or(0, |r| r.0));
        let is_memory = ins.is_memory();
        Decoded {
            src0,
            src1,
            cost: if is_memory { 3 } else { 1 },
            is_memory,
            class_idx: ins.class().index() as u8,
        }
    }
}

/// A validated, executable program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    instrs: Vec<Instr>,
    decoded: Vec<Decoded>,
}

impl Program {
    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The per-pc records computed at build time, indexed by program
    /// counter.
    #[inline]
    pub fn decoded(&self) -> &[Decoded] {
        &self.decoded
    }

    /// Number of instructions.
    ///
    /// Reached by: frozen benchmarks/src (`probes.rs`, the
    /// `mta-sim.build_ns_per_instr` row).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True for an empty program.
    ///
    /// Reached by: clippy::len_without_is_empty, for [`Program::len`].
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Disassembly listing with instruction indices.
    ///
    /// Reached by: `tests/isa_properties.rs`, whose round trip assembles
    /// the listing back to the same program.
    pub fn disassemble(&self) -> String {
        self.instrs
            .iter()
            .enumerate()
            .map(|(i, ins)| format!("{i:4}: {ins}\n"))
            .collect()
    }
}

/// A pending forward-branch fixup handle returned by the `*_fwd` methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "forward branches must be bound with ProgramBuilder::bind"]
pub struct Fixup(usize);

/// Assembler for [`Program`]s: appends instructions, resolves forward
/// branches, validates on [`ProgramBuilder::build`].
#[derive(Debug, Default, Clone)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    unresolved: Vec<usize>,
}

const UNRESOLVED: usize = usize::MAX;

impl ProgramBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the *next* instruction to be appended — use as a backward
    /// branch target.
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Append a raw instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    /// `dst = imm`
    pub fn li(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.push(Instr::Li { dst, imm })
    }

    /// `dst = src`
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Mov { dst, src })
    }

    /// `dst = a + b`
    pub fn add(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Instr::Add { dst, a, b })
    }

    /// `dst = a + imm`
    pub fn addi(&mut self, dst: Reg, a: Reg, imm: i64) -> &mut Self {
        self.push(Instr::AddI { dst, a, imm })
    }

    /// `dst = a - b`
    pub fn sub(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Instr::Sub { dst, a, b })
    }

    /// `dst = a * b`
    pub fn mul(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Instr::Mul { dst, a, b })
    }

    /// `dst = mem[addr + off]`
    pub fn load(&mut self, dst: Reg, addr: Reg, off: i64) -> &mut Self {
        self.push(Instr::Load { dst, addr, off })
    }

    /// `dst = mem[off]` (absolute address via the zero register).
    pub fn load_abs(&mut self, dst: Reg, off: usize) -> &mut Self {
        self.load(dst, ZERO, off as i64)
    }

    /// `mem[addr + off] = src`
    pub fn store(&mut self, src: Reg, addr: Reg, off: i64) -> &mut Self {
        self.push(Instr::Store { src, addr, off })
    }

    /// `mem[off] = src` (absolute).
    pub fn store_abs(&mut self, src: Reg, off: usize) -> &mut Self {
        self.store(src, ZERO, off as i64)
    }

    /// Synchronous read-and-empty.
    pub fn readfe(&mut self, dst: Reg, addr: Reg, off: i64) -> &mut Self {
        self.push(Instr::ReadFE { dst, addr, off })
    }

    /// Synchronous write-and-fill.
    pub fn writeef(&mut self, src: Reg, addr: Reg, off: i64) -> &mut Self {
        self.push(Instr::WriteEF { src, addr, off })
    }

    /// Synchronous read-when-full.
    pub fn readff(&mut self, dst: Reg, addr: Reg, off: i64) -> &mut Self {
        self.push(Instr::ReadFF { dst, addr, off })
    }

    /// `dst = fetch_add(mem[addr + off], delta)`
    pub fn fetch_add(&mut self, dst: Reg, addr: Reg, off: i64, delta: Reg) -> &mut Self {
        self.push(Instr::FetchAdd {
            dst,
            addr,
            off,
            delta,
        })
    }

    /// `dst = fetch_add(mem[abs_addr], delta)` (absolute address).
    pub fn fetch_add_imm(&mut self, dst: Reg, abs_addr: i64, delta: Reg) -> &mut Self {
        self.fetch_add(dst, ZERO, abs_addr, delta)
    }

    /// Backward (or known-target) conditional branches.
    ///
    /// Reached by: the generated programs of `tests/programs/mod.rs` and
    /// `tests/guardrails.rs`.
    pub fn beq(&mut self, a: Reg, b: Reg, target: usize) -> &mut Self {
        self.push(Instr::Beq { a, b, target })
    }

    /// Branch when `a != b`.
    ///
    /// Reached by: the generated programs of `tests/programs/mod.rs` and
    /// `tests/guardrails.rs`.
    pub fn bne(&mut self, a: Reg, b: Reg, target: usize) -> &mut Self {
        self.push(Instr::Bne { a, b, target })
    }

    /// Branch when `a < b`.
    pub fn blt(&mut self, a: Reg, b: Reg, target: usize) -> &mut Self {
        self.push(Instr::Blt { a, b, target })
    }

    /// Unconditional jump to a known target.
    pub fn jmp(&mut self, target: usize) -> &mut Self {
        self.push(Instr::Jmp { target })
    }

    /// Terminate the stream.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }

    fn fwd(&mut self, i: Instr) -> Fixup {
        let at = self.instrs.len();
        self.instrs.push(i);
        self.unresolved.push(at);
        Fixup(at)
    }

    /// Forward branch when equal; bind the returned fixup at the target.
    pub fn beq_fwd(&mut self, a: Reg, b: Reg) -> Fixup {
        self.fwd(Instr::Beq {
            a,
            b,
            target: UNRESOLVED,
        })
    }

    /// Forward branch when not equal.
    pub fn bne_fwd(&mut self, a: Reg, b: Reg) -> Fixup {
        self.fwd(Instr::Bne {
            a,
            b,
            target: UNRESOLVED,
        })
    }

    /// Forward branch when less-than.
    pub fn blt_fwd(&mut self, a: Reg, b: Reg) -> Fixup {
        self.fwd(Instr::Blt {
            a,
            b,
            target: UNRESOLVED,
        })
    }

    /// Forward branch when greater-or-equal.
    pub fn bge_fwd(&mut self, a: Reg, b: Reg) -> Fixup {
        self.fwd(Instr::Bge {
            a,
            b,
            target: UNRESOLVED,
        })
    }

    /// Forward unconditional jump.
    pub fn jmp_fwd(&mut self) -> Fixup {
        self.fwd(Instr::Jmp { target: UNRESOLVED })
    }

    /// Resolve a forward branch to the current position.
    pub fn bind(&mut self, fx: Fixup) -> &mut Self {
        let target = self.instrs.len();
        let slot = &mut self.instrs[fx.0];
        match slot {
            Instr::Beq { target: t, .. }
            | Instr::Bne { target: t, .. }
            | Instr::Blt { target: t, .. }
            | Instr::Bge { target: t, .. }
            | Instr::Jmp { target: t } => *t = target,
            other => panic!("fixup does not point at a branch: {other:?}"),
        }
        self.unresolved.retain(|&u| u != fx.0);
        self
    }

    /// Validate and freeze the program. Panics on unresolved forward
    /// branches, out-of-range targets, or out-of-range registers.
    pub fn build(self) -> Program {
        assert!(
            self.unresolved.is_empty(),
            "unresolved forward branches at {:?}",
            self.unresolved
        );
        let len = self.instrs.len();
        for (i, ins) in self.instrs.iter().enumerate() {
            if let Some(t) = ins.target() {
                assert!(
                    t <= len,
                    "instruction {i} targets {t}, beyond program end {len}"
                );
            }
            for r in ins.sources().into_iter().flatten() {
                assert!(
                    (r.0 as usize) < NREGS,
                    "instruction {i} reads bad register {}",
                    r.0
                );
            }
            if let Some(d) = ins.dest() {
                assert!(
                    (d.0 as usize) < NREGS,
                    "instruction {i} writes bad register {}",
                    d.0
                );
            }
        }
        let decoded = self.instrs.iter().map(Decoded::of).collect();
        Program {
            instrs: self.instrs,
            decoded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_counts() {
        let mut b = ProgramBuilder::new();
        b.li(Reg(2), 5).addi(Reg(2), Reg(2), 1).halt();
        let p = b.build();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn forward_branch_resolution() {
        let mut b = ProgramBuilder::new();
        let fx = b.beq_fwd(Reg(2), Reg(3));
        b.li(Reg(4), 1);
        b.bind(fx);
        b.halt();
        let p = b.build();
        assert_eq!(p.instrs()[0].target(), Some(2));
    }

    #[test]
    #[should_panic(expected = "unresolved")]
    fn unbound_forward_branch_panics() {
        let mut b = ProgramBuilder::new();
        let _fx = b.jmp_fwd();
        b.halt();
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "beyond program end")]
    fn out_of_range_target_panics() {
        let mut b = ProgramBuilder::new();
        b.jmp(99);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bad register")]
    fn out_of_range_register_panics() {
        let mut b = ProgramBuilder::new();
        b.li(Reg(40), 0);
        let _ = b.build();
    }

    #[test]
    fn memory_classification() {
        assert!(Instr::Load {
            dst: Reg(2),
            addr: ZERO,
            off: 0
        }
        .is_memory());
        assert!(Instr::FetchAdd {
            dst: Reg(2),
            addr: ZERO,
            off: 0,
            delta: Reg(3)
        }
        .is_memory());
        assert!(!Instr::Add {
            dst: Reg(2),
            a: Reg(3),
            b: Reg(4)
        }
        .is_memory());
        assert!(!Instr::Halt.is_memory());
    }

    #[test]
    fn sources_and_dest_extraction() {
        let i = Instr::Store {
            src: Reg(5),
            addr: Reg(6),
            off: 2,
        };
        assert_eq!(i.sources(), [Some(Reg(5)), Some(Reg(6))]);
        assert_eq!(i.dest(), None);
        let i = Instr::Load {
            dst: Reg(7),
            addr: Reg(8),
            off: 0,
        };
        assert_eq!(i.dest(), Some(Reg(7)));
        assert_eq!(i.sources()[0], Some(Reg(8)));
    }

    #[test]
    fn disassembly_mentions_every_instruction() {
        let mut b = ProgramBuilder::new();
        b.li(Reg(2), 1).load(Reg(3), Reg(2), 4).halt();
        let d = b.build().disassemble();
        assert!(d.contains("li"));
        assert!(d.contains("ld"));
        assert!(d.contains("halt"));
        assert_eq!(d.lines().count(), 3);
    }

    #[test]
    fn absolute_helpers_use_zero_register() {
        let mut b = ProgramBuilder::new();
        b.load_abs(Reg(2), 100).store_abs(Reg(2), 101).halt();
        let p = b.build();
        assert_eq!(
            p.instrs()[0],
            Instr::Load {
                dst: Reg(2),
                addr: ZERO,
                off: 100
            }
        );
        assert_eq!(
            p.instrs()[1],
            Instr::Store {
                src: Reg(2),
                addr: ZERO,
                off: 101
            }
        );
    }
}
