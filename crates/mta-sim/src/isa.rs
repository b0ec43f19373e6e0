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

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Sync => "sync",
            OpClass::FetchAdd => "fetch_add",
            OpClass::Control => "control",
            OpClass::Halt => "halt",
        }
    }

    /// All classes in index order.
    pub fn all() -> [OpClass; N_OP_CLASSES] {
        [
            OpClass::Alu,
            OpClass::Load,
            OpClass::Store,
            OpClass::Sync,
            OpClass::FetchAdd,
            OpClass::Control,
            OpClass::Halt,
        ]
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

/// What ends a trace (see [`TraceTable`]): the first non-ALU operation at
/// or after a given program counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEnd {
    /// An ordinary load or store.
    Memory,
    /// An atomic `int_fetch_add` (word-hotspot serialized).
    Atomic,
    /// A synchronous full/empty operation (`readfe`/`writeef`/`readff`),
    /// i.e. a potential full/empty wait.
    Sync,
    /// A branch or jump.
    Branch,
    /// `halt`, or control falling off the end of the program.
    Halt,
}

impl TraceEnd {
    /// Classify an instruction as a trace terminator. ALU operations are
    /// trace *bodies*, not terminators, and return `None`.
    pub fn of(instr: &Instr) -> Option<TraceEnd> {
        match instr.class() {
            OpClass::Alu => None,
            OpClass::Load | OpClass::Store => Some(TraceEnd::Memory),
            OpClass::FetchAdd => Some(TraceEnd::Atomic),
            OpClass::Sync => Some(TraceEnd::Sync),
            OpClass::Control => Some(TraceEnd::Branch),
            OpClass::Halt => Some(TraceEnd::Halt),
        }
    }

    /// Dense index for histograms.
    pub fn index(self) -> usize {
        match self {
            TraceEnd::Memory => 0,
            TraceEnd::Atomic => 1,
            TraceEnd::Sync => 2,
            TraceEnd::Branch => 3,
            TraceEnd::Halt => 4,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            TraceEnd::Memory => "memory",
            TraceEnd::Atomic => "atomic",
            TraceEnd::Sync => "sync",
            TraceEnd::Branch => "branch",
            TraceEnd::Halt => "halt",
        }
    }
}

/// Number of [`TraceEnd`] variants (histogram width).
pub const N_TRACE_ENDS: usize = 5;

/// One program counter's scheduling record: everything an issue loop asks
/// about `instrs[pc]` before executing it, in 12 bytes.
///
/// Source registers are stored as indices with "no operand" mapped to
/// register 0, whose ready time is pinned at 0 (r0 is never written), so
/// the readiness max over both slots is branch-free and exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// External use-set of the private run starting here (bit *r* =
    /// register *r*); of the *whole* run even when `run_len` saturates.
    pub use_mask: u32,
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
    /// Private run length starting here, saturated at `u8::MAX` (a batch
    /// longer than 255 is beyond every horizon the engines meet).
    pub run_len: u8,
    /// Whether that run ends with a trailing control op. Dropped when
    /// `run_len` saturates: the control op then lies beyond the cap.
    pub tail: bool,
    /// Whether a visit here could cover ≥ 2 instructions — a run of at
    /// least two, or a trailing control op whose taken edge may reveal a
    /// further run. The batching loops' single-byte gate.
    pub batchable: bool,
}

/// Per-program trace metadata, computed once at [`ProgramBuilder::build`]:
/// one [`Decoded`] record per program counter, which is also the only
/// per-pc table the issue loops read.
///
/// A **trace** is a maximal run of ALU operations (`li`/`mov`/`add`/
/// `addi`/`sub`/`mul` — non-memory, non-synchronizing, non-branching)
/// terminated by a memory operation, an `int_fetch_add`, a full/empty
/// operation, a branch, or `halt`. The table is indexed by program
/// counter so the execution engine can look up, from *any* entry point
/// (branch targets and mid-trace stall resumptions included), how many
/// ALU operations lie ahead before the next scheduling-relevant event and
/// which registers that run reads.
///
/// The run summaries make trace-batched execution a constant-time
/// decision per scheduler visit:
///
/// * [`Self::run_len`] — number of consecutive **private** operations
///   starting at `pc`: the ALU body plus, when the body runs straight
///   into a branch, jump, or `halt`, that one trailing control operation
///   (control ops read only this stream's registers and write only its
///   program counter, so — like the ALU body — they commute with every
///   other stream's events). 0 when `instrs[pc]` is itself a memory,
///   atomic, or sync operation;
/// * [`Self::has_tail`] — whether that run includes such a trailing
///   control operation (so the pure-ALU body is `run_len - tail`);
/// * [`Self::use_mask`] — bitmask (bit *r* = register *r*) of the
///   registers the run (body *and* tail) reads **before writing them**:
///   the run's external use-set. Registers defined inside the run before
///   use are excluded, as is r0 (hardwired zero, always ready). If every
///   register in the mask is ready, the entire run can issue
///   back-to-back with no stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTable {
    recs: Vec<Decoded>,
}

impl TraceTable {
    fn build(instrs: &[Instr]) -> TraceTable {
        // Backward scan carrying the private run that starts at `pc + 1`.
        let (mut len, mut tail, mut mask) = (0u32, false, 0u32);
        let mut recs: Vec<Decoded> = instrs
            .iter()
            .rev()
            .map(|ins| {
                let [src0, src1] = ins.sources().map(|s| s.map_or(0, |r| r.0));
                let uses = ((1u32 << src0) | (1u32 << src1)) & !1; // r0 is always ready
                (len, tail, mask) = match TraceEnd::of(ins) {
                    // ALU body op: extend whatever run follows. Its
                    // destination is defined inside the run from here on.
                    None => {
                        let dst = ins.dest().map_or(0, |d| d.0);
                        (len + 1, tail, (mask & !(1u32 << dst)) | uses)
                    }
                    // Control tail: a one-op run of its own (the engine
                    // resolves the successor pc when it executes it).
                    Some(TraceEnd::Branch | TraceEnd::Halt) => (1, true, uses),
                    Some(_) => (0, false, 0), // memory / atomic / sync: never private
                };
                // Saturate long runs at 255 body ops; the trailing control
                // op of a truncated run lies beyond the cap, so drop its
                // flag.
                let (run_len, capped_tail) = match u8::try_from(len) {
                    Ok(short) => (short, tail),
                    Err(_) => (u8::MAX, false),
                };
                Decoded {
                    use_mask: mask,
                    src0,
                    src1,
                    cost: if ins.is_memory() { 3 } else { 1 },
                    is_memory: ins.is_memory(),
                    class_idx: ins.class().index() as u8,
                    run_len,
                    tail: capped_tail,
                    batchable: run_len >= 2 || capped_tail,
                }
            })
            .collect();
        recs.reverse();
        TraceTable { recs }
    }

    /// The per-pc records, indexed by program counter.
    #[inline]
    pub fn decoded(&self) -> &[Decoded] {
        &self.recs
    }

    /// Unsaturated length and tail flag of the run starting at `pc`. A
    /// record saturated at 255 covers ALU body ops only, so the rest of
    /// its run is the run starting 255 further on.
    fn full_run(&self, mut pc: usize) -> (u32, bool) {
        let mut len = 0;
        loop {
            let Some(d) = self.recs.get(pc) else {
                return (len, false);
            };
            len += u32::from(d.run_len);
            if d.run_len < u8::MAX || d.tail {
                return (len, d.tail);
            }
            pc += usize::from(u8::MAX);
        }
    }

    /// Consecutive private operations starting at `pc` — ALU body plus an
    /// optional trailing control op (0 if `pc` holds a memory, atomic, or
    /// sync operation, or is out of range).
    #[inline]
    pub fn run_len(&self, pc: usize) -> u32 {
        self.full_run(pc).0
    }

    /// External use-set of the run starting at `pc`, as a register
    /// bitmask (empty for non-private ops and out-of-range `pc`).
    #[inline]
    pub fn use_mask(&self, pc: usize) -> u32 {
        self.recs.get(pc).map_or(0, |d| d.use_mask)
    }

    /// Whether the run starting at `pc` ends with a trailing control
    /// operation (branch, jump, or halt) included in [`Self::run_len`].
    #[inline]
    pub fn has_tail(&self, pc: usize) -> bool {
        self.full_run(pc).1
    }

    /// Static summary over a program: one entry per *maximal* trace (a
    /// run not preceded by another ALU operation, or a bare terminator).
    pub fn summary(&self, instrs: &[Instr]) -> TraceSummary {
        let mut s = TraceSummary::default();
        let mut pc = 0usize;
        while pc < instrs.len() {
            let len = self.run_len(pc) as usize - usize::from(self.has_tail(pc));
            s.traces += 1;
            s.alu_ops += len;
            s.longest_run = s.longest_run.max(len);
            let term = pc + len;
            if term < instrs.len() {
                let kind = TraceEnd::of(&instrs[term]).expect("run ends at a terminator");
                s.terminators[kind.index()] += 1;
                pc = term + 1;
            } else {
                // Run falls off the end of the program: an implicit halt.
                s.terminators[TraceEnd::Halt.index()] += 1;
                pc = term;
            }
        }
        s
    }
}

/// Static per-program trace statistics (see [`TraceTable::summary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Number of maximal traces (terminators plus their ALU bodies).
    pub traces: usize,
    /// Total ALU operations inside trace bodies.
    pub alu_ops: usize,
    /// Longest ALU run in the program.
    pub longest_run: usize,
    /// Terminator histogram indexed by [`TraceEnd::index`].
    pub terminators: [usize; N_TRACE_ENDS],
}

impl TraceSummary {
    /// Mean ALU body length per trace.
    pub fn mean_run(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            self.alu_ops as f64 / self.traces as f64
        }
    }
}

/// A validated, executable program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    instrs: Vec<Instr>,
    traces: TraceTable,
}

impl Program {
    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Trace metadata computed at build time (see [`TraceTable`]).
    pub fn traces(&self) -> &TraceTable {
        &self.traces
    }

    /// Static trace statistics for this program.
    pub fn trace_summary(&self) -> TraceSummary {
        self.traces.summary(&self.instrs)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True for an empty program.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Disassembly listing with instruction indices.
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
    pub fn beq(&mut self, a: Reg, b: Reg, target: usize) -> &mut Self {
        self.push(Instr::Beq { a, b, target })
    }

    /// Branch when `a != b`.
    pub fn bne(&mut self, a: Reg, b: Reg, target: usize) -> &mut Self {
        self.push(Instr::Bne { a, b, target })
    }

    /// Branch when `a < b`.
    pub fn blt(&mut self, a: Reg, b: Reg, target: usize) -> &mut Self {
        self.push(Instr::Blt { a, b, target })
    }

    /// Branch when `a >= b`.
    pub fn bge(&mut self, a: Reg, b: Reg, target: usize) -> &mut Self {
        self.push(Instr::Bge { a, b, target })
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
        let traces = TraceTable::build(&self.instrs);
        Program {
            instrs: self.instrs,
            traces,
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
    fn trace_runs_include_one_trailing_control_op() {
        // li; add; bne -> one private run of 3 (2-op ALU body + tail).
        let mut b = ProgramBuilder::new();
        b.li(Reg(2), 1).add(Reg(3), Reg(2), Reg(2));
        let fx = b.bne_fwd(Reg(3), Reg(2));
        b.bind(fx);
        b.halt();
        let p = b.build();
        let t = p.traces();
        assert_eq!(t.run_len(0), 3);
        assert!(t.has_tail(0));
        // Mid-run entry points see the remaining suffix.
        assert_eq!(t.run_len(1), 2);
        assert!(t.has_tail(1));
        // The bare branch is a one-op run of its own.
        assert_eq!(t.run_len(2), 1);
        assert!(t.has_tail(2));
        // halt too: a private terminator.
        assert_eq!(t.run_len(3), 1);
        assert!(t.has_tail(3));
    }

    #[test]
    fn trace_runs_stop_at_memory_and_sync_ops() {
        // li; load; add; faa; readfe; halt
        let mut b = ProgramBuilder::new();
        b.li(Reg(2), 7)
            .load(Reg(3), Reg(2), 0)
            .add(Reg(4), Reg(3), Reg(2))
            .fetch_add_imm(Reg(5), 0, Reg(4))
            .readfe(Reg(6), Reg(2), 0)
            .halt();
        let p = b.build();
        let t = p.traces();
        // Run at 0 is just `li` — the load is not private.
        assert_eq!(t.run_len(0), 1);
        assert!(!t.has_tail(0));
        for pc in [1usize, 3, 4] {
            assert_eq!(t.run_len(pc), 0, "pc {pc} holds a non-private op");
            assert!(!t.has_tail(pc));
            assert_eq!(t.use_mask(pc), 0);
        }
        // `add` at 2 runs into the fetch_add: body of 1, no tail.
        assert_eq!(t.run_len(2), 1);
        assert!(!t.has_tail(2));
    }

    #[test]
    fn use_mask_is_the_external_use_set() {
        // li r2 (defines r2); add r3 = r2 + r4 (r4 external);
        // bne r3, r5 (r5 external; r3 defined inside the run).
        let mut b = ProgramBuilder::new();
        b.li(Reg(2), 1).add(Reg(3), Reg(2), Reg(4));
        let fx = b.bne_fwd(Reg(3), Reg(5));
        b.bind(fx);
        b.halt();
        let p = b.build();
        let t = p.traces();
        // Only r4 and r5 are read before being written.
        assert_eq!(t.use_mask(0), (1 << 4) | (1 << 5));
        // Entering at the add, r2 is now external too.
        assert_eq!(t.use_mask(1), (1 << 2) | (1 << 4) | (1 << 5));
        // The branch alone reads r3 and r5.
        assert_eq!(t.use_mask(2), (1 << 3) | (1 << 5));
    }

    #[test]
    fn use_mask_never_contains_r0() {
        let mut b = ProgramBuilder::new();
        b.add(Reg(2), ZERO, ZERO).halt();
        let p = b.build();
        assert_eq!(p.traces().use_mask(0) & 1, 0);
    }

    #[test]
    fn trace_summary_counts_terminators() {
        // li; add; ld; addi; jmp top — two traces: (li,add)->Memory,
        // (addi)->Branch.
        let mut b = ProgramBuilder::new();
        b.li(Reg(2), 0)
            .add(Reg(3), Reg(2), Reg(2))
            .load(Reg(4), Reg(2), 0)
            .addi(Reg(2), Reg(2), 1)
            .jmp(0);
        let p = b.build();
        let s = p.trace_summary();
        assert_eq!(s.traces, 2);
        assert_eq!(s.alu_ops, 3);
        assert_eq!(s.longest_run, 2);
        assert_eq!(s.terminators[TraceEnd::Memory.index()], 1);
        assert_eq!(s.terminators[TraceEnd::Branch.index()], 1);
        assert!((s.mean_run() - 1.5).abs() < 1e-12);
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
