//! A textual assembler for the micro-ISA.
//!
//! Accepts the same mnemonics [`crate::isa::Program::disassemble`] emits,
//! plus symbolic labels, so programs can live in files and round-trip
//! through text:
//!
//! ```text
//! ; sum 0..n via int_fetch_add dynamic claiming
//!         li    r3, 1
//!         li    r4, 1000
//! top:    faa   r2, [r0+0], r3
//!         bge   r2, r4, @done
//!         faa   r5, [r0+1], r2
//!         jmp   @top
//! done:   halt
//! ```
//!
//! Operand forms: `rN` registers, decimal immediates, `[rN+OFF]` memory
//! operands (negative offsets allowed), `@label` or `@N` branch targets.
//! `;` and `#` start comments. Labels are `name:` prefixes on any line.
//!
//! Reached by: `archperf`'s `mta-sim.asm` layer probe.

use std::collections::HashMap;

use crate::isa::{Instr, Program, Reg, NREGS};

/// Assembly errors with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// Unknown mnemonic.
    UnknownOp(usize, String),
    /// Malformed operand list.
    BadOperands(usize),
    /// Register out of range.
    BadRegister(usize),
    /// Branch target label never defined.
    UndefinedLabel(String),
    /// The same label defined twice.
    DuplicateLabel(String),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UnknownOp(l, op) => write!(f, "line {l}: unknown mnemonic '{op}'"),
            AsmError::BadOperands(l) => write!(f, "line {l}: malformed operands"),
            AsmError::BadRegister(l) => write!(f, "line {l}: register out of range"),
            AsmError::UndefinedLabel(s) => write!(f, "undefined label '{s}'"),
            AsmError::DuplicateLabel(s) => write!(f, "duplicate label '{s}'"),
        }
    }
}

impl std::error::Error for AsmError {}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    let t = tok.trim();
    let num = t
        .strip_prefix('r')
        .and_then(|s| s.parse::<usize>().ok())
        .ok_or(AsmError::BadOperands(line))?;
    if num >= NREGS {
        return Err(AsmError::BadRegister(line));
    }
    Ok(Reg(num as u8))
}

fn parse_imm(tok: &str, line: usize) -> Result<i64, AsmError> {
    tok.trim().parse().map_err(|_| AsmError::BadOperands(line))
}

/// `[rN+OFF]` or `[rN-OFF]` or `[rN]`.
fn parse_mem(tok: &str, line: usize) -> Result<(Reg, i64), AsmError> {
    let t = tok.trim();
    let inner = t
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or(AsmError::BadOperands(line))?;
    if let Some(pos) = inner.rfind(['+', '-']) {
        if pos > 0 {
            let reg = parse_reg(&inner[..pos], line)?;
            let sign = if inner.as_bytes()[pos] == b'-' { -1 } else { 1 };
            let off: i64 = inner[pos + 1..]
                .trim()
                .parse()
                .map_err(|_| AsmError::BadOperands(line))?;
            return Ok((reg, sign * off));
        }
    }
    Ok((parse_reg(inner, line)?, 0))
}

enum Target {
    Absolute(usize),
    Label(String),
}

fn parse_target(tok: &str, line: usize) -> Result<Target, AsmError> {
    let t = tok
        .trim()
        .strip_prefix('@')
        .ok_or(AsmError::BadOperands(line))?;
    if let Ok(n) = t.parse::<usize>() {
        Ok(Target::Absolute(n))
    } else if !t.is_empty() {
        Ok(Target::Label(t.to_string()))
    } else {
        Err(AsmError::BadOperands(line))
    }
}

/// Assemble source text into a [`Program`].
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    // Pass 1: strip comments/labels, collect label -> instruction index.
    let mut labels: HashMap<String, usize> = HashMap::new();
    let mut ops: Vec<(usize, String)> = Vec::new(); // (line no, op text)
    for (ln, raw) in source.lines().enumerate() {
        let line_no = ln + 1;
        let mut text = raw;
        if let Some(c) = text.find([';', '#']) {
            text = &text[..c];
        }
        let mut text = text.trim();
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break; // not a label (e.g. a stray colon) — let ops parse fail
            }
            if labels.insert(label.to_string(), ops.len()).is_some() {
                return Err(AsmError::DuplicateLabel(label.to_string()));
            }
            text = rest[1..].trim();
        }
        if !text.is_empty() {
            ops.push((line_no, text.to_string()));
        }
    }

    // Pass 2: parse operations; remember label fixups.
    let mut instrs = Vec::with_capacity(ops.len());
    let mut fixups: Vec<(usize, String)> = Vec::new(); // (instr idx, label)
    for (line, text) in &ops {
        let line = *line;
        let (op, rest) = text
            .split_once(char::is_whitespace)
            .unwrap_or((text.as_str(), ""));
        let args: Vec<&str> = if rest.trim().is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        let need = |k: usize| -> Result<(), AsmError> {
            if args.len() == k {
                Ok(())
            } else {
                Err(AsmError::BadOperands(line))
            }
        };
        let lower = op.to_ascii_lowercase();
        let idx = instrs.len();
        let mut branch = |a: &str| -> Result<usize, AsmError> {
            match parse_target(a, line)? {
                Target::Absolute(t) => Ok(t),
                Target::Label(l) => {
                    fixups.push((idx, l));
                    Ok(usize::MAX)
                }
            }
        };
        let ins = match lower.as_str() {
            "li" => {
                need(2)?;
                Instr::Li {
                    dst: parse_reg(args[0], line)?,
                    imm: parse_imm(args[1], line)?,
                }
            }
            "mov" => {
                need(2)?;
                Instr::Mov {
                    dst: parse_reg(args[0], line)?,
                    src: parse_reg(args[1], line)?,
                }
            }
            "add" => {
                need(3)?;
                Instr::Add {
                    dst: parse_reg(args[0], line)?,
                    a: parse_reg(args[1], line)?,
                    b: parse_reg(args[2], line)?,
                }
            }
            "addi" => {
                need(3)?;
                Instr::AddI {
                    dst: parse_reg(args[0], line)?,
                    a: parse_reg(args[1], line)?,
                    imm: parse_imm(args[2], line)?,
                }
            }
            "sub" => {
                need(3)?;
                Instr::Sub {
                    dst: parse_reg(args[0], line)?,
                    a: parse_reg(args[1], line)?,
                    b: parse_reg(args[2], line)?,
                }
            }
            "mul" => {
                need(3)?;
                Instr::Mul {
                    dst: parse_reg(args[0], line)?,
                    a: parse_reg(args[1], line)?,
                    b: parse_reg(args[2], line)?,
                }
            }
            "ld" => {
                need(2)?;
                let (addr, off) = parse_mem(args[1], line)?;
                Instr::Load {
                    dst: parse_reg(args[0], line)?,
                    addr,
                    off,
                }
            }
            "st" => {
                need(2)?;
                let (addr, off) = parse_mem(args[1], line)?;
                Instr::Store {
                    src: parse_reg(args[0], line)?,
                    addr,
                    off,
                }
            }
            "rdfe" => {
                need(2)?;
                let (addr, off) = parse_mem(args[1], line)?;
                Instr::ReadFE {
                    dst: parse_reg(args[0], line)?,
                    addr,
                    off,
                }
            }
            "wref" => {
                need(2)?;
                let (addr, off) = parse_mem(args[1], line)?;
                Instr::WriteEF {
                    src: parse_reg(args[0], line)?,
                    addr,
                    off,
                }
            }
            "rdff" => {
                need(2)?;
                let (addr, off) = parse_mem(args[1], line)?;
                Instr::ReadFF {
                    dst: parse_reg(args[0], line)?,
                    addr,
                    off,
                }
            }
            "faa" => {
                need(3)?;
                let (addr, off) = parse_mem(args[1], line)?;
                Instr::FetchAdd {
                    dst: parse_reg(args[0], line)?,
                    addr,
                    off,
                    delta: parse_reg(args[2], line)?,
                }
            }
            "beq" | "bne" | "blt" | "bge" => {
                need(3)?;
                let a = parse_reg(args[0], line)?;
                let b = parse_reg(args[1], line)?;
                let target = branch(args[2])?;
                match lower.as_str() {
                    "beq" => Instr::Beq { a, b, target },
                    "bne" => Instr::Bne { a, b, target },
                    "blt" => Instr::Blt { a, b, target },
                    _ => Instr::Bge { a, b, target },
                }
            }
            "jmp" => {
                need(1)?;
                Instr::Jmp {
                    target: branch(args[0])?,
                }
            }
            "halt" => {
                need(0)?;
                Instr::Halt
            }
            other => return Err(AsmError::UnknownOp(line, other.to_string())),
        };
        instrs.push(ins);
    }

    // Pass 3: resolve label fixups.
    for (idx, label) in fixups {
        let target = *labels
            .get(&label)
            .ok_or_else(|| AsmError::UndefinedLabel(label.clone()))?;
        match &mut instrs[idx] {
            Instr::Beq { target: t, .. }
            | Instr::Bne { target: t, .. }
            | Instr::Blt { target: t, .. }
            | Instr::Bge { target: t, .. }
            | Instr::Jmp { target: t } => *t = target,
            _ => unreachable!("fixups only attach to branches"),
        }
    }

    // Validate through the builder path.
    let mut b = crate::isa::ProgramBuilder::new();
    for i in instrs {
        b.push(i);
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MtaMachine;
    use archgraph_core::MtaParams;

    #[test]
    fn assembles_and_runs_a_counting_loop() {
        let src = r#"
            ; sum 0..1000 into mem[1] using dynamic claiming on mem[0]
                    li    r3, 1
                    li    r4, 1000
            top:    faa   r2, [r0+0], r3
                    bge   r2, r4, @done
                    faa   r5, [r0+1], r2
                    jmp   @top
            done:   halt
        "#;
        let prog = assemble(src).unwrap();
        let mut m = MtaMachine::with_memory_words(MtaParams::tiny_for_tests(), 1, 64);
        m.memory_mut().alloc(2);
        m.run(&prog, 8, |_, _| {});
        assert_eq!(m.memory().peek(1), (0..1000).sum::<i64>());
    }

    #[test]
    fn disassembly_round_trips() {
        let src = r#"
            li r2, -5
            mov r3, r2
            add r4, r2, r3
            addi r4, r4, 7
            sub r5, r4, r2
            mul r6, r5, r5
            ld r7, [r6+12]
            st r7, [r0+3]
            rdfe r8, [r2+0]
            wref r8, [r2+1]
            rdff r9, [r0+2]
            faa r10, [r0+4], r3
            beq r2, r3, @9
            bne r2, r3, @9
            blt r2, r3, @9
            bge r2, r3, @9
            jmp @0
            halt
        "#;
        let p1 = assemble(src).unwrap();
        let p2 = assemble(&p1.disassemble()).unwrap();
        assert_eq!(p1, p2, "asm -> disasm -> asm must be a fixed point");
    }

    #[test]
    fn labels_comments_and_negative_offsets() {
        let src = "start: ld r2, [r3-4] # load below base\n jmp @start\n";
        let p = assemble(src).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.instrs()[0],
            Instr::Load {
                dst: Reg(2),
                addr: Reg(3),
                off: -4
            }
        );
        assert_eq!(p.instrs()[1], Instr::Jmp { target: 0 });
    }

    #[test]
    fn error_reporting() {
        assert!(matches!(
            assemble("frobnicate r1"),
            Err(AsmError::UnknownOp(1, _))
        ));
        assert!(matches!(
            assemble("li r99, 0"),
            Err(AsmError::BadRegister(1))
        ));
        assert!(matches!(assemble("li r2"), Err(AsmError::BadOperands(1))));
        assert!(matches!(
            assemble("jmp @nowhere\nhalt"),
            Err(AsmError::UndefinedLabel(_))
        ));
        assert!(matches!(
            assemble("a: halt\na: halt"),
            Err(AsmError::DuplicateLabel(_))
        ));
    }

    #[test]
    fn empty_and_comment_only_sources() {
        assert!(assemble("").unwrap().is_empty());
        assert!(assemble("; nothing here\n# or here\n").unwrap().is_empty());
    }

    #[test]
    fn multiple_labels_one_line() {
        let src = "a: b: halt\n";
        let p = assemble(src).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn assembled_programs_carry_trace_metadata() {
        // The per-pc records are computed at `Program` construction, so
        // text assembly must produce the same ones as the builder path.
        let src = r#"
                    li    r2, 0
                    li    r3, 1
            top:    add   r2, r2, r3
                    ld    r4, [r2+0]
                    addi  r2, r2, 1
                    jmp   @top
        "#;
        let prog = assemble(src).unwrap();
        let d = prog.decoded();
        assert_eq!(d.len(), 6);
        // The load is the one memory op: a full issue slot, reading r2.
        assert_eq!((d[3].is_memory, d[3].cost, d[3].src0), (true, 3, 2));
        assert!(d.iter().enumerate().all(|(pc, r)| r.is_memory == (pc == 3)));
        let mut b = crate::isa::ProgramBuilder::new();
        b.li(Reg(2), 0).li(Reg(3), 1);
        let top = b.here();
        b.add(Reg(2), Reg(2), Reg(3))
            .load(Reg(4), Reg(2), 0)
            .addi(Reg(2), Reg(2), 1)
            .jmp(top);
        assert_eq!(prog.decoded(), b.build().decoded());
    }
}
