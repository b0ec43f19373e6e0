//! # archgraph-mta-sim
//!
//! An event-driven, instruction-level simulator of the Cray MTA-2
//! multithreaded architecture as described in §2.2 of Bader, Cong & Feo
//! (ICPP 2005):
//!
//! * a **flat shared memory** — no caches, no local memory, every word
//!   equidistant; logical addresses hashed across banks (which makes
//!   physical layout irrelevant, so the simulator does not model banks);
//! * each memory word carries a **full/empty tag bit** implementing
//!   synchronous load/store (`readfe`, `writeef`, `readff`) that retries
//!   until it succeeds, blocking only the issuing *stream*;
//! * each processor holds **128 hardware streams** (a register set + PC)
//!   and one pipeline that issues **one instruction per cycle** from any
//!   ready stream, switching streams every cycle with zero cost;
//! * each stream may have up to **8 outstanding memory operations**;
//!   memory latency is ~100 cycles and is *tolerated* — a stream blocks
//!   when it needs an unarrived value, but the processor keeps issuing
//!   from other streams;
//! * `int_fetch_add` performs an atomic fetch-and-add at memory, the
//!   primitive behind dynamic loop scheduling.
//!
//! Programs are written in a small register micro-ISA ([`isa`]) through an
//! assembling [`isa::ProgramBuilder`], mirroring how the paper's C code
//! compiles to MTA hardware operations; [`parloop`] provides canned
//! lowerings for the loop shapes the paper's codes use (block-scheduled
//! and `int_fetch_add` dynamic loops). The [`machine::MtaMachine`] runs a
//! program on `p` processors × `s` streams and reports cycles, issued
//! instructions, memory traffic, and **processor utilization** — the
//! quantity of the paper's Table 1.
//!
//! ```
//! use archgraph_core::MtaParams;
//! use archgraph_mta_sim::isa::{ProgramBuilder, Reg};
//! use archgraph_mta_sim::machine::MtaMachine;
//!
//! // Sum 0..1000 into memory[0] with 8 concurrent streams using
//! // int_fetch_add for both the loop counter and the accumulation.
//! let mut m = MtaMachine::new(MtaParams::tiny_for_tests(), 1);
//! let counter = m.memory_mut().alloc(1); // loop counter
//! let acc = m.memory_mut().alloc(1); // result accumulator
//! let mut b = ProgramBuilder::new();
//! let (i, one, lim, tmp) = (Reg(2), Reg(3), Reg(4), Reg(5));
//! b.li(one, 1).li(lim, 1000);
//! let top = b.here();
//! b.fetch_add_imm(i, counter as i64, one);
//! let done = b.bge_fwd(i, lim);
//! b.fetch_add_imm(tmp, acc as i64, i);
//! b.jmp(top);
//! b.bind(done);
//! b.halt();
//! let prog = b.build();
//! let report = m.run(&prog, 8, |_, _| {});
//! assert_eq!(m.memory().peek(acc), (0..1000).sum::<i64>());
//! assert!(report.utilization > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asm;
pub mod fault;
pub mod isa;
pub mod machine;
pub mod memory;
pub mod parloop;
pub mod report;
pub(crate) mod wheel;

pub use archgraph_core::error::{BlockedStream, SimError};
pub use fault::{with_fault_plan, FaultPlan};
pub use machine::{with_engine, with_workers, MtaEngine, MtaMachine};
pub use memory::Memory;
pub use report::{EngineStats, RunReport};
