//! # archgraph-listrank
//!
//! List ranking — §3 of the paper — in every form the study needs:
//!
//! * [`seq`] — the sequential pointer-chasing baseline the parallel codes
//!   are compared against.
//! * [`hj`] — the Helman–JáJá SMP algorithm (steps 1–5, `s = 8p`
//!   sublists), running natively on host threads with software barriers;
//!   its sublist chase is also [`sim_smp`]'s host half.
//! * [`sim_smp`] — Helman–JáJá lowered onto the cycle-accounting SMP
//!   simulator (`archgraph-smp-sim`): the Fig. 1 (right) pipeline.
//! * [`sim_mta`] — Alg. 1 lowered onto the MTA micro-ISA simulator
//!   (`archgraph-mta-sim`): the Fig. 1 (left) pipeline.
//! * [`wyllie`] — classical pointer-jumping ranking, the Θ(n log n)-work
//!   baseline the work-efficient algorithms are measured against.
//!
//! All implementations produce the same answer: `rank[slot]` = number of
//! predecessors of the element stored in array slot `slot` (head = 0),
//! verified against [`archgraph_graph::list::LinkedList::rank_oracle`].
//!
//! Note on Alg. 1 fidelity: the paper's printed final loop assigns
//! descending counts from `NLIST - lnth[i]`; as printed it produces a
//! tail-anchored numbering. We keep the algorithm's structure (walk
//! marking, length accumulation by doubling over the walk summary,
//! re-traversal) but assign head-anchored ascending ranks so every
//! implementation agrees with the oracle.

#![warn(missing_docs)]

pub mod hj;
pub mod seq;
pub mod sim_mta;
pub mod sim_smp;
pub mod wyllie;

pub use hj::{helman_jaja, HjConfig};
pub use seq::sequential_rank;
