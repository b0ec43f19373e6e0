//! The partitioned time-wheel engine ([`crate::machine::MtaEngine::Partitioned`]):
//! deterministic intra-cell parallelism for the MTA simulator.
//!
//! # Scheme
//!
//! Streams are sharded across `W` worker partitions by **whole
//! processors** (contiguous processor ranges, so stream ids and processor
//! clocks split without overlap). Each partition owns a private
//! [`TimeWheel`] and runs the familiar issue loop inside **bounded time
//! windows** `[T, W_e)` with `W_e = T + Δ` and `Δ = latency − 1` thirds.
//! Shared-memory operations (`load` / `store` / `int_fetch_add`) are not
//! applied in-window: the worker logs them and the main thread applies the
//! whole window's log **serially at the barrier**, merged across
//! partitions by the same ascending `(time, stream_id)` key the single
//! wheel pops in.
//!
//! # Determinism argument (DESIGN.md has the long form)
//!
//! * **Merge order = single-wheel pop order.** The single-step engine
//!   applies a memory operation's side effects at its pop, and an issuing
//!   pop has `e == t`, so the global side-effect order is exactly
//!   ascending `(t, id)`. Each partition's log is appended in local pop
//!   order (ascending `(t, id)`), partitions cover disjoint id ranges, and
//!   windows cover disjoint time ranges, so the k-way merge by `(t, id)`
//!   reproduces the global order bit-for-bit — same memory image, same
//!   hotspot (`WordFree`) serialization, same completion times.
//! * **Readiness implies finality.** Any value produced by an in-window
//!   memory operation completes at `issue_at + latency ≥ T + latency =
//!   W_e + 1`, strictly beyond the window. A register whose ready time is
//!   `≤ W_e` therefore already holds its final value; a visit whose source
//!   max is `> W_e` is *suspended* (parked on a side list, replayed after
//!   the merge fixes land) rather than issued against stale state. The
//!   replayed visit always re-queues (`e > W_e ≥ t`) and touches only
//!   stream-private state, so its deferral commutes with every other
//!   event.
//! * **Provisional completions.** A `fetch_add`'s completion depends on
//!   hotspot serialization only the merge can order, so its ready time and
//!   lookahead-ring entry carry the lower bound `issue_at + latency` until
//!   the merge fix rewrites them (ring slots are addressed absolutely, so
//!   the fix lands even after pops). A forced lookahead pop that would
//!   consume a provisional ring entry suspends instead. Wheel pushes made
//!   from provisional wake hints are lower bounds: the early pop recomputes
//!   `e` from fixed values and re-queues, changing host-side event counts
//!   but no simulated quantity.
//! * **Overwrite guard.** A later in-window write may clobber a register
//!   still awaiting its merge fix (plain WAR over an in-flight load /
//!   `fetch_add` destination). Each pending fix carries a per-register
//!   sequence number; any intervening register write retires the number,
//!   so a stale fix is dropped exactly when the single-step engine's write
//!   order would have buried it. Trace batching is gated off while a
//!   stream has a pending fix (batch extent is host-side policy — PR 2's
//!   schedule-preservation lemma makes any horizon-respecting split,
//!   including "no batch", issue at identical times).
//! * **Batch horizon.** In-window batches use the *local* wheel front
//!   capped at `W_e`: same-processor streams are always co-partitioned, so
//!   the local front is the exact same-processor constraint; other
//!   partitions' events commute with private ops (the same cross-processor
//!   argument the shared-wheel engines already rely on); and the `W_e` cap
//!   keeps every batched slot inside the window where readiness implies
//!   finality.
//!
//! # Full/empty synchronization (`ReadFE`/`WriteEF`/`ReadFF`)
//!
//! A sync op's *outcome* (proceed vs. retry) depends on globally ordered
//! tag state, so unlike a load it cannot simply be logged: the outcome
//! steers the stream's own schedule (pc, retry wake) within the window.
//! Two mechanisms make it windowable anyway:
//!
//! * **Local decidability.** Tag words are monotone under the program's
//!   *capabilities*: only a `readfe` ever empties a word and only a
//!   `writeef` ever fills one. A worker therefore decides an outcome
//!   locally whenever no instruction in the program could flip the
//!   observed tag before this op's merge position — stuck-tag faults pin
//!   the outcome outright; a full word stays full if the program contains
//!   no `readfe`; an empty word stays empty if it contains no `writeef`.
//!   Decided successes are logged like fetch-adds ([`MemKind::SyncOk`]:
//!   provisional ring slot + fix with the hotspot-serialized completion);
//!   decided failures are control events replayed for the deadlock
//!   tracker. Crucially a decided success never *changes* a tag (a
//!   non-stuck `readfe` is never decidable — it itself is the program's
//!   `readfe`), so all value-log entries remain tag-neutral.
//! * **Stop-at-undecidable rounds.** An undecidable op parks its stream
//!   *and halts its partition's pop loop* (keeping the partition's log
//!   append-ordered). The merge then runs in rounds within the same
//!   window: the round frontier `F` is the earliest parked key; all
//!   logged operations with key `< F` are applied; control events are
//!   replayed serially in global `(t, id)` order; and the single parked
//!   op *at* `F` — now the globally next sync op, with every earlier
//!   effect applied — is resolved against real memory and its outcome
//!   mailed back ([`Resolution`]). The window advances only when no
//!   partition is stopped, i.e. when the log is fully drained. Programs
//!   without undecidable ops (e.g. `readff`-only conflict detection) pay
//!   zero extra rounds.
//!
//! Deadlock detection replays `SyncFail`/`Halt` control events through
//! the shared [`BlockTracker`] in global key order, probing tags that at
//! that point reflect exactly the resolutions with smaller keys — so
//! `SimError::Deadlock` diagnostics (cycle, per-stream blocks, observed
//! tags) are bit-identical to the single-step oracle's.
//!
//! # Sharded merge
//!
//! The apply phase itself runs in parallel: every logged value op is
//! routed (at log time) to `hash(addr) % W` and each participant applies
//! one shard's k-way merge under the same `(t, id)` order. Per-address
//! state (word value, tag, hotspot [`WordFree`] chain) lives entirely
//! within one shard, so the per-address apply order — the only order
//! memory semantics observe — equals the single-wheel pop order exactly;
//! counters and `last_completion` fold commutatively from per-shard
//! deltas. Memory words are touched through [`MemWords`], a raw view
//! whose phase discipline (workers read tags only between apply phases;
//! apply phases touch only their own shard's addresses) is enforced by
//! the round barriers.
//!
//! Worker count never affects simulated quantities — `W = 1` runs the same
//! windowed loop without threads, and the differential suite pins `W ∈
//! {1, 2, 4, 8}` against the single-step oracle.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use archgraph_core::error::SimError;

use crate::fault::{BlockTracker, FaultPlan};
use crate::isa::{Decoded, Instr, Program, NREGS, N_OP_CLASSES};
use crate::machine::{batch_limit, private_step, try_batch, Stream, WordFree};
use crate::memory::{self, MemCounters, MemWords, Memory};
use crate::report::EngineStats;
use crate::wheel::TimeWheel;

/// "No pending memory fix" sentinel in the per-register sequence table.
const NONE_FIX: u32 = u32::MAX;

/// Shard index a memory address's log entries route to. Any pure
/// function of the address works (per-address state never crosses
/// shards); Fibonacci hashing keeps striding access patterns balanced.
#[inline]
fn shard_of(addr: usize, shards: usize) -> usize {
    (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) % shards
}

/// Read-only per-region context shared by every partition.
struct Env<'a> {
    instrs: &'a [Instr],
    decoded: &'a [Decoded],
    streams_per_proc: usize,
    latency: u64,
    /// Failed-sync retry delay in thirds (`sync_retry_cycles * 3`).
    retry: u64,
    lookahead: usize,
    /// Tag-transition capabilities of the whole program: what the local
    /// sync decidability rules may assume other streams can do.
    has_readfe: bool,
    has_writeef: bool,
    /// Shard count for the parallel apply (= effective worker count).
    shards: usize,
    /// First global stream id of each partition (fix routing).
    stream_lo: Vec<usize>,
    /// Raw view of the memory words; see [`MemWords`] for the phase
    /// discipline that makes the unsafe accesses sound.
    words: MemWords,
    /// Watchdog boundary in thirds: no partition pops or batches an issue
    /// slot past it, so every engine simulates exactly the same prefix
    /// before [`SimError::CycleBudgetExceeded`] fires at the merge.
    budget_thirds: u64,
    /// Copy of the memory image's fault plan. Workers never touch
    /// [`Memory`], yet completion times must carry injected latency;
    /// every fault decision is a pure function of `(seed, addr)` or — on
    /// the structural axis — of `(seed, proc, issue_at)`, quantities the
    /// logged [`MemOp`] carries, so a worker-local copy perturbs
    /// identically to the merge's own image.
    fault: Option<FaultPlan>,
}

impl Env<'_> {
    /// Issuing processor of global stream `id` (fault decisions on the
    /// structural axis are keyed by processor, not stream).
    #[inline]
    fn proc_of(&self, id: u32) -> usize {
        id as usize / self.streams_per_proc
    }

    /// Combined extra completion latency for a memory op (address spike
    /// plus degraded link plus brownout), all pure functions of
    /// quantities the logged op carries, so the worker that issues and
    /// the shard that merges compute the identical number.
    #[inline]
    fn mem_extra(&self, proc: usize, addr: usize, issue_at: u64) -> u64 {
        self.fault.as_ref().map_or(0, |f| {
            f.extra_mem_latency(proc, addr, issue_at, self.latency)
        })
    }

    /// First non-stalled issue time ≥ `t` for `proc`.
    #[inline]
    fn stall_adjust(&self, proc: usize, t: u64) -> u64 {
        self.fault.as_ref().map_or(t, |f| f.stall_adjust(proc, t))
    }

    /// Start of the next stall window strictly after `t` for `proc`
    /// (`u64::MAX` when nothing stalls): a batching horizon.
    #[inline]
    fn next_stall(&self, proc: usize, t: u64) -> u64 {
        self.fault
            .as_ref()
            .map_or(u64::MAX, |f| f.next_stall_start(proc, t))
    }

    #[inline]
    fn extra_wake_delay(&self, addr: usize) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.extra_wake_delay(addr))
    }

    #[inline]
    fn stuck_tag(&self, addr: usize) -> Option<bool> {
        self.fault.as_ref().and_then(|f| f.stuck_tag(addr))
    }

    /// The full/empty state a sync op observes at `addr` right now, with
    /// stuck faults folded in — the worker-side twin of
    /// `Memory::effective_full`.
    ///
    /// # Safety
    /// Caller must be outside any apply phase (see [`MemWords`]).
    #[inline]
    unsafe fn effective_full(&self, addr: usize) -> bool {
        match self.stuck_tag(addr) {
            Some(tag) => tag,
            None => self.words.full(addr),
        }
    }
}

/// Sync-op identity carried through window logs and control events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncOp {
    ReadFE,
    WriteEF,
    ReadFF,
}

impl SyncOp {
    /// The static name the deadlock diagnostics use (must match the
    /// interpreter's strings byte-for-byte).
    fn name(self) -> &'static str {
        match self {
            SyncOp::ReadFE => "readfe",
            SyncOp::WriteEF => "writeef",
            SyncOp::ReadFF => "readff",
        }
    }
}

/// A shared-memory operation logged in-window, applied at the merge.
struct MemOp {
    /// Pop key (equals the issue check's `e`): the merge sort key.
    t: u64,
    /// Global stream id: the merge tie-break.
    id: u32,
    /// Pending-fix sequence number (guards destination-register fix-up).
    fid: u32,
    issue_at: u64,
    addr: usize,
    kind: MemKind,
}

enum MemKind {
    Load {
        dst: u8,
    },
    Store {
        val: i64,
    },
    FetchAdd {
        delta: i64,
        dst: u8,
        slot: u8,
    },
    /// A locally decided sync success. Tag-neutral by construction (see
    /// module docs), so it shards like any value op; the merge applies
    /// the real memory op, serializes the word hotspot, and mails back a
    /// fetch-add-shaped fix. `src` is the stored value for `writeef`
    /// (whose `dst` is 0).
    SyncOk {
        op: SyncOp,
        src: i64,
        dst: u8,
        slot: u8,
    },
}

/// A control event: replayed serially in global `(t, id)` order during
/// the merge's control phase (tracker updates, deadlock probes, parked
/// resolutions). Never sharded.
#[derive(Clone, Copy)]
struct CtlOp {
    t: u64,
    id: u32,
    pc: u32,
    issue_at: u64,
    addr: usize,
    kind: CtlKind,
}

#[derive(Clone, Copy)]
enum CtlKind {
    /// A locally decided sync failure: counts a retry, feeds the
    /// tracker, probes for deadlock. The word itself is untouched.
    SyncFail { op: SyncOp },
    /// An undecidable sync op: the partition stopped here; the merge
    /// resolves it at the round frontier. `src` is the would-be stored
    /// value for `writeef`.
    SyncWait { op: SyncOp, src: i64 },
    /// A stream ran off the program (or executed `Halt`).
    Halt,
}

/// Outcome of a parked sync op, mailed back to the owning partition.
#[derive(Clone, Copy)]
struct Resolution {
    success: bool,
    val: i64,
    done: u64,
}

/// A stream parked on an undecidable sync op, waiting for its
/// [`Resolution`].
struct Parked {
    li: u32,
    id: u32,
    pc: usize,
    addr: usize,
    issue_at: u64,
    dst: u8,
}

/// Merge-phase result handed back to the owning partition: the value (and,
/// for `fetch_add`, the hotspot-serialized completion time) a logged
/// operation resolved to.
enum Fix {
    LoadVal {
        local: u32,
        fid: u32,
        dst: u8,
        val: i64,
    },
    FetchAdd {
        local: u32,
        fid: u32,
        dst: u8,
        slot: u8,
        val: i64,
        done: u64,
    },
}

/// Per-partition mailbox: the worker deposits its control events, stop
/// key and next pending-event time; the coordinator deposits fixes and
/// resolutions. (Value ops go straight into the shard queues.) Locked
/// once per phase per side, so the mutex is uncontended by construction.
#[derive(Default)]
struct Mailbox {
    ctl: Vec<CtlOp>,
    fixes: Vec<Fix>,
    /// Key of the undecidable op this partition just parked on, if any.
    stop_key: Option<(u64, u32)>,
    /// Outcome for this partition's parked op, deposited by the merge.
    resolve: Option<Resolution>,
    next_event: u64,
}

/// One shard of the parallel apply phase: per-partition pending runs of
/// value ops (each ascending by `(t, id)` for the partition's whole
/// lifetime, with a consumed-prefix cursor — a round may apply only a
/// prefix), plus all per-address merge state and commutative output.
struct ShardState {
    runs: Vec<ShardRun>,
    word_free: WordFree,
    counters: MemCounters,
    last_completion: u64,
    /// Fixes produced by this shard, routed per partition.
    fixes: Vec<Vec<Fix>>,
}

#[derive(Default)]
struct ShardRun {
    ops: Vec<MemOp>,
    lo: usize,
}

/// Apply one shard's pending value ops with key `< fr`, k-way merged
/// across partitions in ascending `(t, id)` — per address this is
/// exactly the single-wheel order, which is the only order the memory
/// semantics can observe.
fn apply_shard(sh: &mut ShardState, fr: (u64, u32), env: &Env) {
    loop {
        let mut best: Option<((u64, u32), usize)> = None;
        for (k, run) in sh.runs.iter().enumerate() {
            if let Some(op) = run.ops.get(run.lo) {
                let key = (op.t, op.id);
                if key < fr && best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, k));
                }
            }
        }
        let Some((_, k)) = best else { break };
        let run = &mut sh.runs[k];
        let op = &run.ops[run.lo];
        run.lo += 1;
        let local = (op.id as usize - env.stream_lo[k]) as u32;
        // SAFETY: shard routing is a pure function of the address, so
        // every op on this word lands in this shard, and this thread is
        // the only one applying this shard this phase.
        let w = unsafe { env.words.word(op.addr) };
        let extra = env.mem_extra(env.proc_of(op.id), op.addr, op.issue_at);
        match op.kind {
            MemKind::Load { dst } => {
                let v = memory::word_load(w, &mut sh.counters);
                let done = op.issue_at + env.latency + extra;
                sh.last_completion = sh.last_completion.max(done);
                if dst != 0 {
                    sh.fixes[k].push(Fix::LoadVal {
                        local,
                        fid: op.fid,
                        dst,
                        val: v,
                    });
                }
            }
            MemKind::Store { val } => {
                memory::word_store(w, &mut sh.counters, val);
                let done = op.issue_at + env.latency + extra;
                sh.last_completion = sh.last_completion.max(done);
            }
            MemKind::FetchAdd { delta, dst, slot } => {
                let old = memory::word_fetch_add(w, &mut sh.counters, delta);
                let wf = sh.word_free.slot(op.addr);
                let service = (*wf).max(op.issue_at);
                *wf = service + 3;
                let done = service + env.latency + extra;
                sh.last_completion = sh.last_completion.max(done);
                sh.fixes[k].push(Fix::FetchAdd {
                    local,
                    fid: op.fid,
                    dst,
                    slot,
                    val: old,
                    done,
                });
            }
            MemKind::SyncOk {
                op: sop,
                src,
                dst,
                slot,
            } => {
                let stuck = env.stuck_tag(op.addr);
                let val = match sop {
                    SyncOp::ReadFE => memory::word_readfe(w, &mut sh.counters, stuck)
                        .expect("locally decided readfe success failed at the merge"),
                    SyncOp::ReadFF => memory::word_readff(w, &mut sh.counters, stuck)
                        .expect("locally decided readff success failed at the merge"),
                    SyncOp::WriteEF => {
                        let ok = memory::word_writeef(w, &mut sh.counters, stuck, src);
                        assert!(ok, "locally decided writeef success failed at the merge");
                        0
                    }
                };
                let wf = sh.word_free.slot(op.addr);
                let service = (*wf).max(op.issue_at);
                *wf = service + 3;
                let done = service + env.latency + extra;
                sh.last_completion = sh.last_completion.max(done);
                sh.fixes[k].push(Fix::FetchAdd {
                    local,
                    fid: op.fid,
                    dst,
                    slot,
                    val,
                    done,
                });
            }
        }
    }
    for run in &mut sh.runs {
        if run.lo == run.ops.len() {
            run.ops.clear();
            run.lo = 0;
        }
    }
}

/// Sense-reversing spin barrier. Four crossings per merge round over at
/// most a few dozen participants; spinning (with a yield fallback) beats
/// a mutex/condvar round-trip at the window rates the bench cells hit.
/// When the host cannot actually run all participants at once
/// (oversubscription), spinning only steals the quantum the straggler
/// needs, so the spin budget drops to zero and waiters yield immediately.
struct SpinBarrier {
    n: usize,
    spin_budget: u32,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        let oversubscribed = std::thread::available_parallelism()
            .map(|c| c.get() < n)
            .unwrap_or(true);
        SpinBarrier {
            n,
            spin_budget: if oversubscribed { 0 } else { 1 << 14 },
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            if spins < self.spin_budget {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Coordination state shared by the main thread and the workers.
struct Shared {
    barrier: SpinBarrier,
    /// End (exclusive, in thirds) of the window being executed.
    window_end: AtomicU64,
    /// Round frontier `(t, id)`: the apply phase consumes value ops with
    /// strictly smaller keys. Set by the coordinator between the exec and
    /// apply barriers.
    fr_t: AtomicU64,
    fr_id: AtomicU32,
    done: AtomicBool,
    boxes: Vec<Mutex<Mailbox>>,
    /// Address-sharded pending value ops + per-address merge state; shard
    /// `k` is applied by participant `k` during the apply phase.
    shards: Vec<Mutex<ShardState>>,
}

/// One worker partition: a contiguous processor range with its private
/// wheel, plus the bookkeeping the window/merge protocol needs.
struct Partition<'a> {
    streams: &'a mut [Stream],
    proc_clock: &'a mut [u64],
    /// Global id of this partition's first stream.
    stream_lo: usize,
    /// Global index of this partition's first processor.
    proc_lo: usize,
    wheel: TimeWheel,
    /// Provisional-completion bitmask over each stream's lookahead ring
    /// (absolute slots): set on `fetch_add` push, cleared by its fix.
    prov: Vec<u16>,
    /// Pending-fix sequence per register, [`NONE_FIX`] when none.
    seq: Vec<[u32; NREGS]>,
    /// Count of registers with a pending fix (gates trace batching).
    cnt: Vec<u32>,
    /// Suspended visits `(t, id)`, replayed after the next merge.
    side: Vec<(u64, u32)>,
    /// Per-shard value-op logs for the current phase, appended in pop
    /// order (each therefore ascending in `(t, id)`).
    slog: Vec<Vec<MemOp>>,
    /// Control events for the current phase, in pop order.
    ctl: Vec<CtlOp>,
    /// Stream parked on an undecidable sync op. While set, the whole
    /// partition's pop loop is stopped (preserving log append order);
    /// cleared by [`Partition::apply_resolution`].
    parked: Option<Parked>,
    /// Key the partition parked at this phase (deposited once).
    stop_key: Option<(u64, u32)>,
    fix_seq: u32,
    issued: u64,
    issued_thirds: u64,
    op_mix: [u64; N_OP_CLASSES],
    stats: EngineStats,
}

impl Partition<'_> {
    /// Apply the previous window's merge fixes. Runs before anything else
    /// in a phase, so every provisional value is final before execution.
    fn apply_fixes(&mut self, fixes: &mut Vec<Fix>) {
        for f in fixes.drain(..) {
            match f {
                Fix::LoadVal {
                    local,
                    fid,
                    dst,
                    val,
                } => {
                    let li = local as usize;
                    let di = dst as usize;
                    if self.seq[li][di] == fid {
                        self.seq[li][di] = NONE_FIX;
                        self.cnt[li] -= 1;
                        self.streams[li].regs[di] = val;
                    }
                }
                Fix::FetchAdd {
                    local,
                    fid,
                    dst,
                    slot,
                    val,
                    done,
                } => {
                    let li = local as usize;
                    let s = &mut self.streams[li];
                    s.out_set_slot(slot as usize, done);
                    self.prov[li] &= !(1u16 << slot);
                    let di = dst as usize;
                    if di != 0 && self.seq[li][di] == fid {
                        self.seq[li][di] = NONE_FIX;
                        self.cnt[li] -= 1;
                        s.regs[di] = val;
                        s.reg_ready[di] = done;
                    }
                }
            }
        }
    }

    /// Replay visits suspended earlier. For each visit whose register and
    /// ring state is fully final, perform exactly the pop-time work the
    /// single-step engine would have: recompute `e`, drain the lookahead
    /// ring, take the forced pop if the ring is full, and re-queue (a
    /// suspended visit always has `e > t`, so it never issues here). All
    /// of it is stream-private, so doing it after other partitions'
    /// higher-keyed events is a pure commutation.
    ///
    /// Mid-window rounds can reach here before every fix has landed (a
    /// stopped partition defers part of the log); a visit whose stream
    /// still has any provisional register or ring entry simply stays
    /// parked — by the time the window advances, the log is fully
    /// applied and the side list drains completely, which is the old
    /// single-round invariant.
    fn replay_suspended(&mut self, env: &Env) {
        if self.side.is_empty() {
            return;
        }
        let side = std::mem::take(&mut self.side);
        for (t, id) in side {
            let li = id as usize - self.stream_lo;
            if self.cnt[li] != 0 || self.prov[li] != 0 {
                self.side.push((t, id));
                continue;
            }
            let s = &mut self.streams[li];
            let d = env.decoded[s.pc];
            let mut e = t
                .max(s.reg_ready[d.src0 as usize])
                .max(s.reg_ready[d.src1 as usize]);
            while let Some(c) = s.out_front() {
                if c <= e {
                    s.out_pop();
                } else {
                    break;
                }
            }
            if d.is_memory && s.out_len as usize >= env.lookahead {
                // The window is at its limit, so the ring holds
                // `lookahead ≥ 1` entries and the front exists.
                let c = s
                    .out_front()
                    .expect("outstanding ring at the lookahead limit is non-empty");
                e = e.max(c);
                s.out_pop();
            }
            debug_assert!(e > t, "suspended visits re-queue past the window");
            self.wheel.push(e, id);
        }
    }

    /// Wake the parked stream with its resolved sync outcome, mirroring
    /// the single-step engine's post-outcome scheduling exactly. On
    /// success the merge already accounted the tracker transition (and a
    /// possible terminal halt), so only stream-private state moves here.
    fn apply_resolution(&mut self, r: Resolution, env: &Env) {
        let p = self
            .parked
            .take()
            .expect("resolution arrived without a parked stream");
        let li = p.li as usize;
        let s = &mut self.streams[li];
        if r.success {
            let di = p.dst as usize;
            if di != 0 {
                s.regs[di] = r.val;
                s.reg_ready[di] = r.done;
                if self.seq[li][di] != NONE_FIX {
                    // Overwrites a register still awaiting a merge fix:
                    // this later write wins, so retire the fix.
                    self.seq[li][di] = NONE_FIX;
                    self.cnt[li] -= 1;
                }
            }
            s.out_push(r.done);
            s.pc = p.pc + 1;
            if s.pc >= env.instrs.len() {
                // The merge already ran the tracker's halt transition.
                s.halted = true;
                return;
            }
            let dn = env.decoded[s.pc];
            let wake = (p.issue_at + 3)
                .max(s.reg_ready[dn.src0 as usize])
                .max(s.reg_ready[dn.src1 as usize]);
            self.wheel.push(wake, p.id);
        } else {
            let dn = env.decoded[p.pc];
            let wake = (p.issue_at + env.retry + env.extra_wake_delay(p.addr))
                .max(s.reg_ready[dn.src0 as usize])
                .max(s.reg_ready[dn.src1 as usize]);
            self.wheel.push(wake, p.id);
        }
    }

    /// End-of-phase deposit: value ops into the shard queues, control
    /// events / stop key / next-event hint into the mailbox.
    fn deposit(&mut self, k: usize, shared: &Shared, we: u64) {
        for (sx, v) in self.slog.iter_mut().enumerate() {
            if !v.is_empty() {
                shared.shards[sx].lock().unwrap().runs[k].ops.append(v);
            }
        }
        let mut mb = shared.boxes[k].lock().unwrap();
        if !self.ctl.is_empty() {
            mb.ctl.append(&mut self.ctl);
        }
        mb.stop_key = self.stop_key.take();
        mb.next_event = self.next_event(we);
    }

    /// Earliest pending event after a window: the wheel front, or — if
    /// suspended visits are still awaiting fixes — the just-finished
    /// window end as a conservative stand-in (their re-queue times are
    /// provably beyond it).
    fn next_event(&mut self, we: u64) -> u64 {
        let w = self.wheel.peek().map_or(u64::MAX, |(t, _)| t);
        if self.side.is_empty() {
            w
        } else {
            w.min(we)
        }
    }

    /// The issue loop over one bounded window `[.., we)` — line-for-line
    /// the single-step loop in `machine.rs`, except that shared-memory
    /// effects are logged for the merge and visits that would touch
    /// non-final state are suspended.
    fn run_window(&mut self, we: u64, env: &Env) {
        // A parked partition stays stopped until its resolution arrives:
        // popping other streams would break the append-order invariant of
        // the per-partition logs (a resumed stream's continuation keys
        // precede theirs).
        if self.parked.is_some() {
            return;
        }
        // Clamp the pop range (not the window bookkeeping: suspension and
        // finality reason about the true `we`) so no event past the
        // watchdog boundary executes; the merge then reports the budget
        // error off the untouched pending-event times.
        let pop_we = we.min(env.budget_thirds.saturating_add(1));
        while let Some((t, id)) = self.wheel.pop_before(pop_we) {
            self.stats.events += 1;
            let li = id as usize - self.stream_lo;
            let proc = id as usize / env.streams_per_proc;
            let pi = proc - self.proc_lo;
            let s = &mut self.streams[li];
            debug_assert!(!s.halted);
            if s.pc >= env.instrs.len() {
                s.halted = true;
                self.ctl.push(CtlOp {
                    t,
                    id,
                    pc: s.pc as u32,
                    issue_at: t,
                    addr: 0,
                    kind: CtlKind::Halt,
                });
                continue;
            }
            let instr = env.instrs[s.pc];
            let d = env.decoded[s.pc];

            let rmax = s.reg_ready[d.src0 as usize].max(s.reg_ready[d.src1 as usize]);
            if rmax > we {
                // A source is still in flight past the window — possibly a
                // provisional lower bound. Park the visit; the replay after
                // the merge sees final values.
                self.side.push((t, id));
                continue;
            }
            let mut e = t.max(rmax);
            while let Some(c) = s.out_front() {
                // Ring entries ≤ e ≤ we are final (provisional ones are
                // > we by construction), so this drain is exact.
                if c <= e {
                    s.out_pop();
                } else {
                    break;
                }
            }
            if d.is_memory && s.out_len as usize >= env.lookahead {
                if self.prov[li] & (1u16 << s.out_front_slot()) != 0 {
                    // The forced pop would consume a provisional
                    // completion; its final time arrives with the merge.
                    self.side.push((t, id));
                    continue;
                }
                // The window is at its limit, so the ring holds
                // `lookahead ≥ 1` entries and the front exists.
                let c = s
                    .out_front()
                    .expect("outstanding ring at the lookahead limit is non-empty");
                e = e.max(c);
                s.out_pop();
            }
            if e > t {
                self.wheel.push(e, id);
                continue;
            }
            // Same stall adjustment as the serial engines: a processor in a
            // stall window issues nothing until the window closes.
            let issue_at = env.stall_adjust(proc, e.max(self.proc_clock[pi]));

            if d.batchable && self.cnt[li] == 0 {
                // Local front is the exact same-processor horizon (whole
                // processors per partition); the `we` cap keeps batched
                // slots where readiness implies finality. Batching is
                // skipped while a register fix is pending so no batched
                // write can bury one unnoticed.
                let limit = batch_limit(&mut self.wheel, id)
                    .min(we)
                    .min(env.budget_thirds.saturating_add(1))
                    .min(env.next_stall(proc, issue_at));
                if let Some(done) = try_batch(
                    limit,
                    s,
                    env.instrs,
                    env.decoded,
                    issue_at,
                    &mut self.op_mix,
                ) {
                    self.proc_clock[pi] = done.clock;
                    self.issued += done.n_exec;
                    self.issued_thirds += done.n_exec;
                    if done.n_exec >= 2 {
                        self.stats.batches += 1;
                        self.stats.batched_instrs += done.n_exec;
                    }
                    if s.halted {
                        self.ctl.push(CtlOp {
                            t,
                            id,
                            pc: s.pc as u32,
                            issue_at,
                            addr: 0,
                            kind: CtlKind::Halt,
                        });
                        continue;
                    }
                    let dn = env.decoded[s.pc];
                    let wake = done
                        .clock
                        .max(s.reg_ready[dn.src0 as usize])
                        .max(s.reg_ready[dn.src1 as usize]);
                    self.wheel.push(wake, id);
                    continue;
                }
            }

            let cost = u64::from(d.cost);
            self.proc_clock[pi] = issue_at + cost;
            self.issued += 1;
            self.issued_thirds += cost;
            self.op_mix[d.class_idx as usize] += 1;
            let mut next_ready = issue_at + cost;
            let mut next_pc = s.pc + 1;
            match instr {
                Instr::Load { dst, addr, off } => {
                    let a = (s.regs[addr.0 as usize] + off) as usize;
                    let done = issue_at + env.latency + env.mem_extra(proc, a, issue_at);
                    let fid = self.fix_seq;
                    self.fix_seq += 1;
                    let di = dst.0 as usize;
                    if di != 0 {
                        // Ready time is final; the value lands with the
                        // merge fix. Readers gate on the ready time, so
                        // the stale `regs` word is unreachable meanwhile.
                        s.reg_ready[di] = done;
                        if self.seq[li][di] == NONE_FIX {
                            self.cnt[li] += 1;
                        }
                        self.seq[li][di] = fid;
                    }
                    self.slog[shard_of(a, env.shards)].push(MemOp {
                        t,
                        id,
                        fid,
                        issue_at,
                        addr: a,
                        kind: MemKind::Load { dst: dst.0 },
                    });
                    s.out_push(done);
                }
                Instr::Store { src, addr, off } => {
                    let a = (s.regs[addr.0 as usize] + off) as usize;
                    self.slog[shard_of(a, env.shards)].push(MemOp {
                        t,
                        id,
                        fid: NONE_FIX,
                        issue_at,
                        addr: a,
                        kind: MemKind::Store {
                            val: s.regs[src.0 as usize],
                        },
                    });
                    s.out_push(issue_at + env.latency + env.mem_extra(proc, a, issue_at));
                }
                Instr::FetchAdd {
                    dst,
                    addr,
                    off,
                    delta,
                } => {
                    let a = (s.regs[addr.0 as usize] + off) as usize;
                    // Lower bound on the completion; the merge serializes
                    // the word hotspot and rewrites ready/ring with the
                    // true `service + latency` (injected latency only
                    // adds, so the bound survives fault plans too).
                    let done_lb = issue_at + env.latency + env.mem_extra(proc, a, issue_at);
                    let slot = s.out_next_slot();
                    let fid = self.fix_seq;
                    self.fix_seq += 1;
                    let di = dst.0 as usize;
                    if di != 0 {
                        s.reg_ready[di] = done_lb;
                        if self.seq[li][di] == NONE_FIX {
                            self.cnt[li] += 1;
                        }
                        self.seq[li][di] = fid;
                    }
                    self.prov[li] |= 1u16 << slot;
                    self.slog[shard_of(a, env.shards)].push(MemOp {
                        t,
                        id,
                        fid,
                        issue_at,
                        addr: a,
                        kind: MemKind::FetchAdd {
                            delta: s.regs[delta.0 as usize],
                            dst: dst.0,
                            slot: slot as u8,
                        },
                    });
                    s.out_push(done_lb);
                }
                Instr::ReadFE { dst, addr, off }
                | Instr::ReadFF { dst, addr, off }
                | Instr::WriteEF {
                    src: dst,
                    addr,
                    off,
                } => {
                    // (`WriteEF`'s `src` binds to `dst` only to share the
                    // pattern; the roles are split right below.)
                    let sop = match instr {
                        Instr::ReadFE { .. } => SyncOp::ReadFE,
                        Instr::ReadFF { .. } => SyncOp::ReadFF,
                        _ => SyncOp::WriteEF,
                    };
                    let (dreg, sval) = match sop {
                        SyncOp::WriteEF => (0u8, s.regs[dst.0 as usize]),
                        _ => (dst.0, 0i64),
                    };
                    let a = (s.regs[addr.0 as usize] + off) as usize;
                    let need_full = sop != SyncOp::WriteEF;
                    let stuck = env.stuck_tag(a);
                    // SAFETY: exec phases never overlap an apply phase
                    // (barrier-separated), so the tag read is quiescent.
                    let full = match stuck {
                        Some(tag) => tag,
                        None => unsafe { env.words.full(a) },
                    };
                    // Local decidability: `Some(outcome)` when no
                    // instruction in the program could flip the observed
                    // tag before this op's merge position (tags are
                    // monotone under the program's capabilities).
                    let decision = match stuck {
                        Some(tag) => Some(tag == need_full),
                        None if full => {
                            if env.has_readfe {
                                None
                            } else {
                                Some(need_full)
                            }
                        }
                        None => {
                            if env.has_writeef {
                                None
                            } else {
                                // A `writeef` here would itself make
                                // `has_writeef` true.
                                debug_assert!(need_full);
                                Some(false)
                            }
                        }
                    };
                    match decision {
                        Some(true) => {
                            // Logged like a fetch-add: provisional ring
                            // slot + ready lower bound until the merge's
                            // hotspot-serialized fix lands.
                            let done_lb = issue_at + env.latency + env.mem_extra(proc, a, issue_at);
                            let slot = s.out_next_slot();
                            let fid = self.fix_seq;
                            self.fix_seq += 1;
                            let di = dreg as usize;
                            if di != 0 {
                                s.reg_ready[di] = done_lb;
                                if self.seq[li][di] == NONE_FIX {
                                    self.cnt[li] += 1;
                                }
                                self.seq[li][di] = fid;
                            }
                            self.prov[li] |= 1u16 << slot;
                            self.slog[shard_of(a, env.shards)].push(MemOp {
                                t,
                                id,
                                fid,
                                issue_at,
                                addr: a,
                                kind: MemKind::SyncOk {
                                    op: sop,
                                    src: sval,
                                    dst: dreg,
                                    slot: slot as u8,
                                },
                            });
                            s.out_push(done_lb);
                        }
                        Some(false) => {
                            self.ctl.push(CtlOp {
                                t,
                                id,
                                pc: s.pc as u32,
                                issue_at,
                                addr: a,
                                kind: CtlKind::SyncFail { op: sop },
                            });
                            next_pc = s.pc;
                            next_ready = issue_at + env.retry + env.extra_wake_delay(a);
                        }
                        None => {
                            // Undecidable: park the stream and stop the
                            // partition's pop loop — the merge resolves
                            // this op at the round frontier and mails the
                            // outcome back.
                            self.ctl.push(CtlOp {
                                t,
                                id,
                                pc: s.pc as u32,
                                issue_at,
                                addr: a,
                                kind: CtlKind::SyncWait { op: sop, src: sval },
                            });
                            self.parked = Some(Parked {
                                li: li as u32,
                                id,
                                pc: s.pc,
                                addr: a,
                                issue_at,
                                dst: dreg,
                            });
                            self.stop_key = Some((t, id));
                            break;
                        }
                    }
                }
                _ => {
                    // Every other op is private to the stream.
                    let wrote = private_step(s, instr, issue_at, env.instrs.len()) as usize;
                    if self.seq[li][wrote] != NONE_FIX {
                        // This write buries a pending memory fix: the
                        // single-step engine's later write wins there
                        // too, so retire the fix. (r0 never has one.)
                        self.seq[li][wrote] = NONE_FIX;
                        self.cnt[li] -= 1;
                    }
                    next_pc = s.pc;
                }
            }

            s.pc = next_pc;
            if s.halted || s.pc >= env.instrs.len() {
                s.halted = true;
                self.ctl.push(CtlOp {
                    t,
                    id,
                    pc: s.pc as u32,
                    issue_at,
                    addr: 0,
                    kind: CtlKind::Halt,
                });
                continue;
            }
            let dn = env.decoded[s.pc];
            let wake = next_ready
                .max(s.reg_ready[dn.src0 as usize])
                .max(s.reg_ready[dn.src1 as usize]);
            self.wheel.push(wake, id);
        }
    }
}

/// One participant's execution phase within a round: pick up fixes and a
/// possible resolution, replay what became final, run the window (a
/// no-op while parked), and deposit the results. Shared verbatim by the
/// workers and the coordinator (which runs partition 0).
fn run_phase(part: &mut Partition, k: usize, shared: &Shared, env: &Env, fixes: &mut Vec<Fix>) {
    let we = shared.window_end.load(Ordering::Acquire);
    let resolve = {
        let mut mb = shared.boxes[k].lock().unwrap();
        std::mem::swap(fixes, &mut mb.fixes);
        mb.resolve.take()
    };
    part.apply_fixes(fixes);
    if let Some(r) = resolve {
        part.apply_resolution(r, env);
    }
    part.replay_suspended(env);
    part.run_window(we, env);
    part.deposit(k, shared, we);
}

/// One worker's lifetime, four barrier crossings per round: (A) round
/// start → exec phase → (B) exec done — the coordinator collects and
/// sets the frontier — (C) apply start → apply own shard → (D) apply
/// done — the coordinator runs the serial control phase and decides
/// whether the round repeats, the window advances, or the region is done.
fn worker_loop(part: &mut Partition, k: usize, shared: &Shared, env: &Env) {
    let mut fixes: Vec<Fix> = Vec::new();
    loop {
        shared.barrier.wait(); // A
        if shared.done.load(Ordering::Acquire) {
            break;
        }
        run_phase(part, k, shared, env, &mut fixes);
        shared.barrier.wait(); // B
        shared.barrier.wait(); // C
        let fr = (
            shared.fr_t.load(Ordering::Acquire),
            shared.fr_id.load(Ordering::Acquire),
        );
        apply_shard(&mut shared.shards[k].lock().unwrap(), fr, env);
        shared.barrier.wait(); // D
    }
}

/// Coordinator-side pending control events for one partition, ascending
/// in `(t, id)` across the partition's whole lifetime.
#[derive(Default)]
struct CtlRun {
    ops: Vec<CtlOp>,
    lo: usize,
}

/// Accumulators a region run hands back to `MtaMachine::try_run`'s shared
/// report epilogue.
pub(crate) struct RegionOut {
    /// Instructions issued.
    pub issued: u64,
    /// Issue-slot thirds consumed.
    pub issued_thirds: u64,
    /// Instruction-mix histogram.
    pub op_mix: [u64; N_OP_CLASSES],
    /// Latest memory-completion time (thirds).
    pub last_completion: u64,
}

/// Execute one region under the partitioned engine. Same contract as the
/// serial loop in `machine.rs`: every simulated quantity (issue order,
/// clocks, counters, memory image) is bit-identical to the single-step
/// oracle for any `workers`, including 1 — and so are
/// [`SimError::Deadlock`] diagnostics, produced by replaying control
/// events through the shared [`BlockTracker`] in global key order.
///
/// The cycle watchdog: workers stop popping at the budget boundary, and
/// the merge converts "every pending event lies past the budget" into
/// [`SimError::CycleBudgetExceeded`]. (`spent` reads the merged
/// next-event time, which for a pending provisional completion is its
/// lower bound — always past the budget, though it may name an earlier
/// cycle than the single-wheel engines report for the same runaway.)
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_region(
    prog: &Program,
    memory: &mut Memory,
    streams: &mut [Stream],
    proc_clock: &mut [u64],
    streams_per_proc: usize,
    latency: u64,
    retry: u64,
    lookahead: usize,
    workers: usize,
    max_cycles: u64,
    engine_stats: &mut EngineStats,
) -> Result<RegionOut, SimError> {
    let budget_thirds = max_cycles.saturating_mul(3);
    let total = streams.len();
    let p = proc_clock.len();
    let w_eff = workers.clamp(1, p);
    // Window width Δ = latency − 1: an in-window memory operation issues at
    // ≥ the window start T, so it completes at ≥ T + latency = W_e + 1,
    // strictly beyond the window — which is what makes "ready time ≤ W_e"
    // imply "value is final". (The dispatcher guarantees latency ≥ 3.)
    debug_assert!(latency >= 2);
    let delta = latency.saturating_sub(1).max(1);
    let instrs = prog.instrs();
    let stream_lo_tab: Vec<usize> = {
        let mut tab = Vec::with_capacity(w_eff);
        let mut proc_lo = 0usize;
        for k in 0..w_eff {
            tab.push(proc_lo * streams_per_proc);
            proc_lo += p / w_eff + usize::from(k < p % w_eff);
        }
        tab
    };
    let env = Env {
        instrs,
        decoded: prog.traces().decoded(),
        streams_per_proc,
        latency,
        retry,
        lookahead,
        has_readfe: instrs.iter().any(|i| matches!(i, Instr::ReadFE { .. })),
        has_writeef: instrs.iter().any(|i| matches!(i, Instr::WriteEF { .. })),
        shards: w_eff,
        stream_lo: stream_lo_tab,
        budget_thirds,
        fault: memory.fault_plan().cloned(),
        // Created last: `memory` must not be touched again until the
        // thread scope below ends (see MemWords).
        words: memory.words_view(),
    };

    // Carve contiguous whole-processor partitions.
    let mut parts: Vec<Partition> = Vec::with_capacity(w_eff);
    {
        let mut srest = streams;
        let mut crest = proc_clock;
        let mut proc_lo = 0usize;
        for k in 0..w_eff {
            let nproc = p / w_eff + usize::from(k < p % w_eff);
            let (sa, srest2) = srest.split_at_mut(nproc * streams_per_proc);
            let (ca, crest2) = crest.split_at_mut(nproc);
            srest = srest2;
            crest = crest2;
            let stream_lo = proc_lo * streams_per_proc;
            debug_assert_eq!(stream_lo, env.stream_lo[k]);
            let mut wheel = TimeWheel::new(total);
            for i in 0..sa.len() {
                wheel.push(0, (stream_lo + i) as u32);
            }
            let n = sa.len();
            parts.push(Partition {
                streams: sa,
                proc_clock: ca,
                stream_lo,
                proc_lo,
                wheel,
                prov: vec![0u16; n],
                seq: vec![[NONE_FIX; NREGS]; n],
                cnt: vec![0u32; n],
                side: Vec::new(),
                slog: (0..w_eff).map(|_| Vec::new()).collect(),
                ctl: Vec::new(),
                parked: None,
                stop_key: None,
                fix_seq: 0,
                issued: 0,
                issued_thirds: 0,
                op_mix: [0u64; N_OP_CLASSES],
                stats: EngineStats::default(),
            });
            proc_lo += nproc;
        }
    }

    let shared = Shared {
        barrier: SpinBarrier::new(w_eff),
        window_end: AtomicU64::new(delta),
        fr_t: AtomicU64::new(0),
        fr_id: AtomicU32::new(0),
        done: AtomicBool::new(false),
        boxes: (0..w_eff).map(|_| Mutex::new(Mailbox::default())).collect(),
        shards: (0..w_eff)
            .map(|_| {
                Mutex::new(ShardState {
                    runs: (0..w_eff).map(|_| ShardRun::default()).collect(),
                    word_free: WordFree::new(),
                    counters: MemCounters::default(),
                    last_completion: 0,
                    fixes: (0..w_eff).map(|_| Vec::new()).collect(),
                })
            })
            .collect(),
    };

    let mut ctl_completion = 0u64;
    let mut ctl_counters = MemCounters::default();
    let mut rounds = 0u64;
    let mut err: Option<SimError> = None;
    {
        let (head, rest) = parts.split_at_mut(1);
        let p0 = &mut head[0];
        std::thread::scope(|scope| {
            for (i, part) in rest.iter_mut().enumerate() {
                let shared = &shared;
                let env = &env;
                scope.spawn(move || worker_loop(part, i + 1, shared, env));
            }
            // Main thread: partition 0's exec/apply phases plus the
            // serial control phase between rounds.
            let mut tracker = BlockTracker::new(total);
            let mut ctl_pending: Vec<CtlRun> = (0..w_eff).map(|_| CtlRun::default()).collect();
            let mut stops: Vec<Option<(u64, u32)>> = vec![None; w_eff];
            let mut fixes0: Vec<Fix> = Vec::new();
            loop {
                shared.barrier.wait(); // A
                if shared.done.load(Ordering::Acquire) {
                    break;
                }
                rounds += 1;
                run_phase(p0, 0, &shared, &env, &mut fixes0);
                shared.barrier.wait(); // B

                // Collect control events, stops and next-event hints;
                // publish the round frontier.
                let mut t_next = u64::MAX;
                for (k, bx) in shared.boxes.iter().enumerate() {
                    let mut mb = bx.lock().unwrap();
                    if !mb.ctl.is_empty() {
                        ctl_pending[k].ops.append(&mut mb.ctl);
                    }
                    if let Some(skey) = mb.stop_key.take() {
                        stops[k] = Some(skey);
                    }
                    t_next = t_next.min(mb.next_event);
                }
                let we = shared.window_end.load(Ordering::Acquire);
                let pop_we = we.min(budget_thirds.saturating_add(1));
                let stop_min = stops.iter().flatten().copied().min();
                let fr = stop_min.unwrap_or((pop_we, 0));
                shared.fr_t.store(fr.0, Ordering::Release);
                shared.fr_id.store(fr.1, Ordering::Release);
                shared.barrier.wait(); // C
                apply_shard(&mut shared.shards[0].lock().unwrap(), fr, &env);
                shared.barrier.wait(); // D

                // Serial control phase: replay SyncFail/Halt events with
                // key < fr through the tracker in global (t, id) order.
                // Tags probed here reflect exactly the resolutions with
                // smaller keys, so deadlock diagnostics are bit-identical
                // to the single-step engine's.
                // SAFETY (tag probes): workers are parked between D and A.
                'ctl: loop {
                    let mut best: Option<((u64, u32), usize)> = None;
                    for (k, run) in ctl_pending.iter().enumerate() {
                        if let Some(op) = run.ops.get(run.lo) {
                            let key = (op.t, op.id);
                            if key < fr && best.is_none_or(|(bk, _)| key < bk) {
                                best = Some((key, k));
                            }
                        }
                    }
                    let Some((_, k)) = best else { break 'ctl };
                    let op = ctl_pending[k].ops[ctl_pending[k].lo];
                    ctl_pending[k].lo += 1;
                    match op.kind {
                        CtlKind::SyncFail { op: sop } => {
                            ctl_counters.sync_retries += 1;
                            tracker.on_sync_fail(
                                op.id as usize,
                                op.pc as usize,
                                op.addr,
                                sop.name(),
                                op.issue_at,
                            );
                            if let Some(e) =
                                tracker.deadlock_by(|a| unsafe { env.effective_full(a) })
                            {
                                err = Some(e);
                                break 'ctl;
                            }
                        }
                        CtlKind::Halt => {
                            tracker.on_halt(op.id as usize);
                            if let Some(e) =
                                tracker.deadlock_by(|a| unsafe { env.effective_full(a) })
                            {
                                err = Some(e);
                                break 'ctl;
                            }
                        }
                        CtlKind::SyncWait { .. } => {
                            unreachable!("the round frontier bounds the control replay")
                        }
                    }
                }

                // Resolve the parked op at the frontier: it is the
                // globally next sync op, and every effect with a smaller
                // key has been applied, so real memory decides.
                if err.is_none() {
                    if let Some(fkey) = stop_min {
                        let k = stops
                            .iter()
                            .position(|s| *s == Some(fkey))
                            .expect("frontier stop key has an owner");
                        let run = &mut ctl_pending[k];
                        let op = run.ops[run.lo];
                        run.lo += 1;
                        debug_assert_eq!((op.t, op.id), fkey);
                        let CtlKind::SyncWait { op: sop, src } = op.kind else {
                            unreachable!("a stopped partition's next control event is its wait")
                        };
                        let stuck = env.stuck_tag(op.addr);
                        // SAFETY: workers are parked between D and A.
                        let w = unsafe { env.words.word(op.addr) };
                        let outcome = match sop {
                            SyncOp::ReadFE => memory::word_readfe(w, &mut ctl_counters, stuck),
                            SyncOp::ReadFF => memory::word_readff(w, &mut ctl_counters, stuck),
                            SyncOp::WriteEF => {
                                memory::word_writeef(w, &mut ctl_counters, stuck, src).then_some(0)
                            }
                        };
                        let resolution = match outcome {
                            Some(val) => {
                                tracker.on_sync_success(op.id as usize);
                                let done = {
                                    let mut sh =
                                        shared.shards[shard_of(op.addr, w_eff)].lock().unwrap();
                                    let wf = sh.word_free.slot(op.addr);
                                    let service = (*wf).max(op.issue_at);
                                    *wf = service + 3;
                                    service
                                        + latency
                                        + env.mem_extra(env.proc_of(op.id), op.addr, op.issue_at)
                                };
                                ctl_completion = ctl_completion.max(done);
                                if op.pc as usize + 1 >= instrs.len() {
                                    // The resumed stream halts immediately;
                                    // account it here so the tracker sees it
                                    // at this event's key, as single-step
                                    // does.
                                    tracker.on_halt(op.id as usize);
                                    if let Some(e) =
                                        tracker.deadlock_by(|a| unsafe { env.effective_full(a) })
                                    {
                                        err = Some(e);
                                    }
                                }
                                Resolution {
                                    success: true,
                                    val,
                                    done,
                                }
                            }
                            None => {
                                tracker.on_sync_fail(
                                    op.id as usize,
                                    op.pc as usize,
                                    op.addr,
                                    sop.name(),
                                    op.issue_at,
                                );
                                if let Some(e) =
                                    tracker.deadlock_by(|a| unsafe { env.effective_full(a) })
                                {
                                    err = Some(e);
                                }
                                Resolution {
                                    success: false,
                                    val: 0,
                                    done: 0,
                                }
                            }
                        };
                        if err.is_none() {
                            shared.boxes[k].lock().unwrap().resolve = Some(resolution);
                            stops[k] = None;
                        }
                    }
                }

                // Route the round's fixes home.
                for shard in &shared.shards {
                    let mut sh = shard.lock().unwrap();
                    for k in 0..w_eff {
                        if !sh.fixes[k].is_empty() {
                            let mut fx = std::mem::take(&mut sh.fixes[k]);
                            shared.boxes[k].lock().unwrap().fixes.append(&mut fx);
                            sh.fixes[k] = fx; // return the emptied buffer
                        }
                    }
                }

                for run in &mut ctl_pending {
                    if run.lo == run.ops.len() {
                        run.ops.clear();
                        run.lo = 0;
                    }
                }

                if err.is_some() {
                    shared.done.store(true, Ordering::Release);
                } else if stop_min.is_some() {
                    // Same window, next round: the resolved stream's
                    // continuation (or retry) may pop more events.
                } else if t_next == u64::MAX {
                    shared.done.store(true, Ordering::Release);
                } else if t_next > budget_thirds {
                    // Every pending event everywhere lies past the
                    // watchdog boundary; the region can only burn budget
                    // from here. Tear down through the normal done
                    // handshake so the workers exit cleanly.
                    err = Some(SimError::CycleBudgetExceeded {
                        budget: max_cycles,
                        spent: t_next.div_ceil(3),
                        what: "mta cycles",
                    });
                    shared.done.store(true, Ordering::Release);
                } else {
                    shared
                        .window_end
                        .store(t_next.saturating_add(delta), Ordering::Release);
                }
            }
        });
    }

    // The raw word view is dead from here on; fold the per-shard and
    // control-phase deltas back into the owning memory (on the error
    // path too — the counters must reflect the simulated prefix exactly
    // as the single-step engine's would).
    let mut last_completion = ctl_completion;
    let mut delta_c = ctl_counters;
    for shard in &shared.shards {
        let sh = shard.lock().unwrap();
        delta_c.loads += sh.counters.loads;
        delta_c.stores += sh.counters.stores;
        delta_c.sync_ops += sh.counters.sync_ops;
        delta_c.sync_retries += sh.counters.sync_retries;
        delta_c.fetch_adds += sh.counters.fetch_adds;
        last_completion = last_completion.max(sh.last_completion);
    }
    memory.counters.loads += delta_c.loads;
    memory.counters.stores += delta_c.stores;
    memory.counters.sync_ops += delta_c.sync_ops;
    memory.counters.sync_retries += delta_c.sync_retries;
    memory.counters.fetch_adds += delta_c.fetch_adds;

    // Host-side engine accounting lands even when the region errors —
    // `windows > 0` is how the differential suites prove a region really
    // took this path, and deadlocking regions must be provable too.
    engine_stats.windows += rounds;
    for part in &parts {
        engine_stats.events += part.stats.events;
        engine_stats.batches += part.stats.batches;
        engine_stats.batched_instrs += part.stats.batched_instrs;
    }

    if let Some(e) = err {
        return Err(e);
    }

    let mut out = RegionOut {
        issued: 0,
        issued_thirds: 0,
        op_mix: [0u64; N_OP_CLASSES],
        last_completion,
    };
    for part in &parts {
        out.issued += part.issued;
        out.issued_thirds += part.issued_thirds;
        for (acc, v) in out.op_mix.iter_mut().zip(part.op_mix.iter()) {
            *acc += v;
        }
    }
    Ok(out)
}
