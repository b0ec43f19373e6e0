//! # archgraph-smp-sim
//!
//! A trace-driven, cycle-accounting simulator of a cache-based symmetric
//! multiprocessor in the class of the paper's Sun Enterprise E4500
//! (§2.1): in-order cache microprocessors, a two-level cache hierarchy
//! (small direct-mapped on-chip L1, large external L2), a data TLB whose
//! misses trap to software, a shared bus to UMA main memory, and
//! **software** barriers. Like the UltraSPARC-II, it has no prefetcher.
//!
//! ## Why a simulator
//!
//! The paper's SMP observations are mechanistic cache effects: ordered
//! traversals amortize one line fill over `line/4` elements and one TLB
//! entry over `page/4`, random traversals pay a full memory round trip
//! and a TLB trap per dependent load, and every algorithm phase ends in a
//! software barrier whose cost grows with `p`. This crate reproduces
//! exactly those mechanisms and nothing more — it is *not* a
//! microarchitectural model of the UltraSPARC-II pipeline.
//!
//! ## Programming model
//!
//! Algorithms are written SPMD-style: a [`machine::SmpMachine`] runs a
//! sequence of *phases*; within a phase, each of the `p` processors
//! executes a closure against its own [`machine::ProcCtx`], issuing
//! simulated `read`/`write`/`compute` operations while performing the real
//! computation on host data. A barrier is charged between phases. The
//! phase time is the slowest processor's cycle count, stretched if the
//! phase's aggregate line traffic exceeds the shared bus bandwidth.
//!
//! ```
//! use archgraph_core::SmpParams;
//! use archgraph_smp_sim::machine::SmpMachine;
//!
//! let mut m = SmpMachine::new(SmpParams::tiny_for_tests(), 2);
//! let xs = m.alloc_elems::<u32>(1024);
//! m.phase("touch", |proc, ctx| {
//!     // Each processor strides over its half of the array.
//!     let (lo, hi) = (proc * 512, (proc + 1) * 512);
//!     for i in lo..hi {
//!         ctx.read_elem(xs, i);
//!         ctx.compute(2);
//!     }
//! });
//! assert!(m.seconds() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod machine;
pub mod stats;
pub mod tlb;

pub use archgraph_core::SimError;
pub use machine::{ArrayAddr, ProcCtx, SmpMachine};
pub use stats::RunStats;
