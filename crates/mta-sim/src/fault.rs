//! Fault injection (re-exported from `archgraph-core`) and deadlock
//! bookkeeping.
//!
//! # Fault injection below the issue loop
//!
//! The deterministic [`FaultPlan`] — latency spikes, stuck full/empty
//! bits, delayed sync-retry wakeups on an address-keyed axis, plus the
//! structural axis of per-processor stalls, degraded links, and
//! brownouts — lives in [`archgraph_core::fault`] so both simulated
//! machines consume one plan. This module re-exports it, and the run
//! scope's [`with_fault_plan`], under their historical `archgraph_mta_sim`
//! paths.
//!
//! On the MTA the plan lives *below* the issue loop, attached to the shared
//! [`Memory`] image (stuck bits are applied inside
//! `readfe`/`writeef`/`readff` themselves); the loop only consults the
//! pure helpers when computing issue, completion and wakeup times:
//!
//! * `issue_at = max(event, proc_clock)` is mapped through
//!   [`FaultPlan::stall_adjust`], so no instruction issues inside a stall
//!   window;
//! * every memory-op completion adds
//!   [`FaultPlan::extra_mem_latency`]`(proc, addr, issue_at, latency)`,
//!   which folds the address-keyed spike, the degraded-link penalty and
//!   the brownout multiplier into one pure quantity.
//!
//! See DESIGN.md §8.
//!
//! # Deadlock bookkeeping
//!
//! [`BlockTracker`] is the shared per-stream state behind
//! `SimError::Deadlock`. Tags mutate **only** when a synchronizing
//! operation succeeds (ordinary stores never touch the full/empty bit), and
//! a stream that fails a sync op retries the *same* pc forever until it
//! succeeds. So once every unhalted stream is parked on a failing sync op,
//! no tag can ever change again and the machine is permanently stuck. The
//! tracker records each stream's current blocked spell and, when the
//! parked + halted count covers every stream, probes the memory image to
//! confirm no parked operation could succeed. All reported quantities — the
//! blocked set, pcs, addresses, tag states, and the detection cycle (the
//! issue time of the last stream's first failing attempt) — are
//! independent of the retry timing.
//!
//! Reached by: the suite's MTA fault-plan cells (`bfs/mta/p8+stall`, …).

use archgraph_core::error::{BlockedStream, SimError};

pub use archgraph_core::fault::FaultPlan;
pub use archgraph_core::run::with_fault_plan;

use crate::memory::Memory;

/// One stream's current blocked spell: it has failed the sync op at `pc`
/// on `addr` at least once, most recently unresolved.
#[derive(Debug, Clone, Copy)]
struct Block {
    pc: usize,
    addr: usize,
    op: &'static str,
    /// Issue time (thirds) of the *first* failing attempt of this spell —
    /// schedule-invariant, unlike the retry times.
    since: u64,
}

/// Per-stream blocked/halted bookkeeping for deadlock detection; one
/// instance per region, driven inline by the issue loop.
#[derive(Debug)]
pub(crate) struct BlockTracker {
    blocked: Vec<Option<Block>>,
    n_blocked: usize,
    n_halted: usize,
}

impl BlockTracker {
    /// Tracker for `total` streams, none blocked or halted.
    pub(crate) fn new(total: usize) -> Self {
        BlockTracker {
            blocked: vec![None; total],
            n_blocked: 0,
            n_halted: 0,
        }
    }

    /// Stream `id` failed the sync op `op` at `pc` on `addr`, issued at
    /// `issue_at` thirds. Retries of an ongoing spell keep the original
    /// `since` (the diagnostics and detection cycle must not depend on
    /// retry timing).
    #[inline]
    pub(crate) fn on_sync_fail(
        &mut self,
        id: usize,
        pc: usize,
        addr: usize,
        op: &'static str,
        issue_at: u64,
    ) {
        if self.blocked[id].is_none() {
            self.blocked[id] = Some(Block {
                pc,
                addr,
                op,
                since: issue_at,
            });
            self.n_blocked += 1;
        }
    }

    /// Stream `id`'s sync op succeeded: its blocked spell (if any) ends.
    #[inline]
    pub(crate) fn on_sync_success(&mut self, id: usize) {
        if self.blocked[id].take().is_some() {
            self.n_blocked -= 1;
        }
    }

    /// Stream `id` executed Halt.
    #[inline]
    pub(crate) fn on_halt(&mut self, id: usize) {
        // A blocked stream retries its sync op forever; it can only reach
        // Halt after a success cleared its spell.
        debug_assert!(self.blocked[id].is_none(), "a blocked stream halted");
        self.n_halted += 1;
    }

    /// Check for deadlock: every stream parked or halted, and no parked
    /// operation could succeed against the current (frozen) tag state.
    /// Call after any sync failure or halt — the only transitions that can
    /// complete the condition. Costs two integer compares when the machine
    /// is live.
    pub(crate) fn deadlock(&self, mem: &Memory) -> Option<SimError> {
        if self.n_blocked == 0 || self.n_blocked + self.n_halted < self.blocked.len() {
            return None;
        }
        let mut diags = Vec::with_capacity(self.n_blocked);
        let mut stuck_since = 0u64;
        for (id, b) in self.blocked.iter().enumerate() {
            let Some(b) = b else { continue };
            // readfe/readff proceed on a full word, writeef on an empty one.
            let needs_full = b.op != "writeef";
            let full = mem.effective_full(b.addr);
            if full == needs_full {
                return None; // that stream's next retry will succeed
            }
            stuck_since = stuck_since.max(b.since);
            diags.push(BlockedStream {
                stream: id,
                pc: b.pc,
                op: b.op,
                addr: b.addr,
                full,
            });
        }
        Some(SimError::Deadlock {
            cycle: stuck_since.div_ceil(3),
            blocked: diags,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_fault_plan_scopes_the_override() {
        let plan = FaultPlan::parse("mem-latency=30,rate=0:7").unwrap();
        let outer = archgraph_core::RunConfig::current();
        // Some(plan): new memories pick up exactly this plan.
        let seen = with_fault_plan(Some(plan.clone()), || Memory::new(4).fault_plan().cloned());
        assert_eq!(seen, Some(plan.clone()));
        // None forces a clean memory inside a faulted scope, and nesting
        // restores the outer plan on exit.
        let (inner_clean, outer_again) = with_fault_plan(Some(plan.clone()), || {
            let clean = with_fault_plan(None, || Memory::new(4).fault_plan().cloned());
            (clean, Memory::new(4).fault_plan().cloned())
        });
        assert_eq!(inner_clean, None);
        assert_eq!(outer_again, Some(plan));
        // Fully unwound: back to the outer configuration.
        assert_eq!(archgraph_core::RunConfig::current(), outer);
    }

    #[test]
    fn tracker_detects_only_when_everyone_is_stuck() {
        let mut mem = Memory::new(8);
        mem.set_empty(0);
        let mut t = BlockTracker::new(2);
        t.on_sync_fail(0, 4, 0, "readfe", 30);
        assert!(t.deadlock(&mem).is_none(), "stream 1 is still live");
        t.on_halt(1);
        let err = t.deadlock(&mem).expect("all streams parked or halted");
        match err {
            SimError::Deadlock { cycle, blocked } => {
                assert_eq!(cycle, 10);
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].stream, 0);
                assert_eq!(blocked[0].pc, 4);
                assert_eq!(blocked[0].addr, 0);
                assert!(!blocked[0].full);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn tracker_probe_vetoes_satisfiable_blocks() {
        // Stream 0 parked on readfe of a word that is now full: its next
        // retry succeeds, so this is not a deadlock even though every
        // stream is parked or halted.
        let mut t = BlockTracker::new(2);
        let mem = Memory::new(8); // words start full
        t.on_sync_fail(0, 1, 3, "readfe", 9);
        t.on_halt(1);
        assert!(t.deadlock(&mem).is_none());
        // writeef on a full word, though, is truly parked.
        let mut t = BlockTracker::new(2);
        t.on_sync_fail(0, 1, 3, "writeef", 9);
        t.on_halt(1);
        assert!(t.deadlock(&mem).is_some());
    }

    #[test]
    fn tracker_success_clears_the_spell() {
        let mut t = BlockTracker::new(1);
        let mut mem = Memory::new(4);
        mem.set_empty(0);
        t.on_sync_fail(0, 0, 0, "readfe", 3);
        t.on_sync_fail(0, 0, 0, "readfe", 12); // retry keeps since = 3
        t.on_sync_success(0);
        assert!(t.deadlock(&mem).is_none(), "no blocked stream remains");
        t.on_sync_fail(0, 0, 0, "readfe", 21);
        match t.deadlock(&mem) {
            Some(SimError::Deadlock { cycle, .. }) => assert_eq!(cycle, 7),
            other => panic!("unexpected {other:?}"),
        }
    }
}
