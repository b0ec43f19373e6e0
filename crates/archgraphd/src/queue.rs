//! Job queue, admission control, fair scheduling, and the worker pool.
//!
//! Submitted jobs keep their cells on *per-job* queues; a ring of active
//! job ids is drained round-robin (deficit-style with a quantum of one
//! cell: each worker pull takes the next cell from the next job in the
//! ring, then rotates the job to the back). That is the serving-layer
//! version of the paper's thesis — many independent streams stay in
//! flight and no tenant's 1000-cell sweep head-of-line-blocks a
//! neighbour's single cell, which lands in roughly one cell-time
//! regardless of queue depth elsewhere. Admission control caps the total
//! *queued* backlog: a submit that would push the sum of pending cells
//! past the bound is rejected with a structured error instead of letting
//! one tenant buffer unbounded work ahead of everyone else.
//!
//! A cell the cache already holds is never queued. `submit` looks every
//! cell up before it takes the lock, and `admit` settles the hits on the
//! spot, so a fully cached job's lines and its `done` are in the
//! submitter's channel when `submit` returns, and no worker wakes for it.
//!
//! # The state machine
//!
//! Everything the scheduler decides is a value, `Sched`, that changes
//! only through four transitions. None touches a thread, the condvar, the
//! cache, the disk or the clock, so a test drives them on a bare value
//! against a model (`transitions_match_the_model`).
//!
//! | transition | precondition | effect | events sent |
//! |---|---|---|---|
//! | `admit` | job not empty, not draining, `queued + misses ≤ max_queue` | job `jN` is live; its misses join the back of the ring (a job with none never does), `queued += misses`; each hit settles at once, in index order | one [`Event::Cell`] per hit; the [`Event::Done`] too if every cell hit |
//! | `pull` | some job has a pending cell | the head job's first cell leaves `pending`, the job rotates to the back, `queued -= 1`, and `inflight += 1` unless draining | — |
//! | `cancel` | the job is live | its backlog is taken out, `queued` drops at once | — (the caller settles each cell `Cancelled`) |
//! | `settle` | the cell hit at admission, or was pulled or cancelled, and has not settled | **the only place a cell ends**: lifetime stats and job summary counted, `inflight -= 1` if a worker pulled it to run; a job whose summary now counts every cell is removed | one [`Event::Cell`]; after the last, the one [`Event::Done`] |
//!
//! Lock discipline: the mutex is held for a transition and nothing else —
//! never across the cache (`lookup`, `record` and `usage` are disk I/O),
//! never across `CellSpec::display_name` (it scans the bench suite),
//! never across a run. A miss costs two lock trips, `pull` and `settle`;
//! a hit costs none of its own: it settles inside the job's `admit`. With
//! the cache on, a cell's key is hashed once, at admission, and serves the
//! probe, the worker's second look, the record and the event. A cell runs
//! under its spec's own `max_cycles`; there is no job-level quota.
//!
//! Results stream back per job over an [`mpsc`](std::sync::mpsc) channel
//! the submitter provides. A submitter that disconnects just drops its
//! receiver; sends fail silently and the job still runs to completion
//! (and still populates the cache). Cancellation drains the job's pending
//! cells *eagerly*, so `status` never reports cancelled work as runnable
//! backlog.
//!
//! The runner is injected ([`Runner`]) so the pool is testable without
//! simulating anything; the real daemon injects [`crate::sim_runner`],
//! which executes [`CellSpec::run`] under panic isolation and under the
//! spec's own fault plan and cycle budget alone.
//!
//! Reached by: `archgraphd`'s `submit`, `cancel`, `list` and `status` ops.

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use archgraph_bench::cells::bench_suite;
use archgraph_bench::CellSpec;

use crate::cache::{Cache, CacheUsage, Sim};
use crate::stages::{Stage, Stages, StagesSnapshot};

/// Executes one cell, returning its fingerprint or a failure message.
/// Must be panic-free: the real runner wraps the simulation in
/// `sweep::isolate`, test runners simply don't panic.
pub type Runner = Arc<dyn Fn(&CellSpec) -> Result<Sim, String> + Send + Sync>;

/// Per-job completion accounting. `ok + failed + cancelled == cells`
/// once the job's [`Event::Done`] fires; `cached` counts the subset of
/// `ok` served from the result cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobSummary {
    /// Cells submitted with the job.
    pub cells: usize,
    /// Cells that produced a fingerprint (fresh or cached).
    pub ok: usize,
    /// Cells whose run failed (panic, watchdog, bad fault plan).
    pub failed: usize,
    /// Cells served from the cache (a subset of `ok`).
    pub cached: usize,
    /// Cells skipped because the job was cancelled or the daemon drained.
    pub cancelled: usize,
}

/// Daemon-lifetime counters, served by the `status` op.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Jobs accepted (admission rejections not included).
    pub jobs: u64,
    /// Cells actually executed (cache misses, including failures).
    pub cells_run: u64,
    /// Cells served from the cache without running.
    pub cache_hits: u64,
    /// Cells whose run failed (a subset of `cells_run`).
    pub failures: u64,
}

/// How one cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell has a fingerprint — freshly simulated or cache-served.
    Done {
        /// The simulated-quantity fingerprint, in render order.
        sim: Sim,
        /// Served from the result cache without running?
        cached: bool,
    },
    /// The run failed; the message is the isolated panic (a watchdog trip
    /// or deadlock included) or a fault-plan parse error. Failures are
    /// never cached.
    Failed {
        /// Human-readable failure reason.
        error: String,
    },
    /// Skipped: the job was cancelled or the daemon is draining.
    Cancelled,
}

/// One completed cell, streamed to the submitting client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellEvent {
    /// Position of the cell in the submitted job (0-based).
    pub index: usize,
    /// Display name (bench-suite name, or the canonical spec string).
    pub name: String,
    /// Content-addressed cache key (`CellSpec::cache_key`).
    pub key: String,
    /// How the cell ended.
    pub status: CellStatus,
}

/// What the scheduler streams back to a submitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// One cell finished (in completion order, with its submit index).
    Cell(CellEvent),
    /// The whole job finished; always the final event.
    Done(JobSummary),
}

/// A point-in-time view of scheduler state, for the `status` op.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Lifetime counters.
    pub stats: Stats,
    /// Cells queued but not yet picked up (cancelled cells excluded —
    /// cancellation drains them eagerly).
    pub queued: usize,
    /// Cells currently executing.
    pub inflight: usize,
    /// Jobs with at least one unfinished cell.
    pub active_jobs: usize,
    /// Worker-pool size (the in-flight bound).
    pub workers: usize,
    /// Result-cache footprint.
    pub cache: CacheUsage,
    /// Host time per request and cell stage, lifetime.
    pub stages: StagesSnapshot,
}

/// One suite cell as reported by the `list` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListEntry {
    /// Bench-suite name (`fig2/mta/p8`, ...).
    pub name: String,
    /// Content-addressed cache key.
    pub key: String,
    /// Would a submit of this cell be served from the cache?
    pub cached: bool,
}

struct Task {
    index: usize,
    spec: CellSpec,
    /// The content address, hashed once at admission for the cache probe
    /// and reused by the worker's lookup, the record and the event; `None`
    /// when the cache is off, where only the event needs it.
    key: Option<String>,
    /// When `submit` took its job: the start of its queue wait.
    admitted: Instant,
}

impl Task {
    /// This cell's event. Call it outside the lock: the name scans the
    /// bench suite.
    fn event(self, status: CellStatus) -> CellEvent {
        CellEvent {
            index: self.index,
            name: self.spec.display_name(),
            key: self.key.unwrap_or_else(|| self.spec.cache_key()),
            status,
        }
    }
}

/// How a cell reaches `settle`, which decides what it counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    /// Answered from the cache at admission: never queued, never in flight.
    Admission,
    /// Pulled to run and ended by a worker, from the runner or a late
    /// cache hit.
    Worker,
    /// Taken out of the backlog unrun, by a cancel or the drain.
    Backlog,
}

struct Job {
    /// Cells not yet picked up by a worker, in submit order.
    pending: VecDeque<Task>,
    /// Counts every settled cell; the job lives until that is all of them.
    summary: JobSummary,
    tx: Sender<Event>,
}

/// The scheduler's whole state; see the module header for its four
/// transitions.
#[derive(Default)]
struct Sched {
    /// Round-robin ring of job ids with pending cells. Invariant: a job
    /// id appears at most once; stale entries (drained or finished
    /// jobs) are dropped lazily by `pull`.
    ring: VecDeque<String>,
    jobs: HashMap<String, Job>,
    /// Sum of all pending-queue lengths (the admission-controlled
    /// backlog).
    queued: usize,
    /// Cells pulled to run and not yet settled.
    inflight: usize,
    next_job: u64,
    /// Set once by shutdown: admits are refused, pulled cells do not run.
    draining: bool,
    stats: Stats,
}

impl Sched {
    /// Admit a job whose cells the cache already split: `hits` are
    /// answered, `misses` must run. Only the misses are queued, and only
    /// they count against the bound; the hits settle here, in index order,
    /// so a fully cached job has streamed every line and its `done` before
    /// this returns, and never joins the ring.
    fn admit(
        &mut self,
        hits: Vec<CellEvent>,
        misses: VecDeque<Task>,
        tx: Sender<Event>,
        max_queue: usize,
    ) -> Result<(String, usize), String> {
        let n = hits.len() + misses.len();
        if n == 0 {
            return Err("empty job: no cells".into());
        }
        if self.draining {
            return Err("daemon is shutting down".into());
        }
        let queued = misses.len();
        if self.queued + queued > max_queue {
            return Err(format!(
                "queue full: {} queued + {queued} submitted exceeds the admission bound of {max_queue}",
                self.queued
            ));
        }
        self.next_job += 1;
        self.stats.jobs += 1;
        self.queued += queued;
        let id = format!("j{}", self.next_job);
        let job = Job {
            pending: misses,
            summary: JobSummary {
                cells: n,
                ..JobSummary::default()
            },
            tx,
        };
        self.jobs.insert(id.clone(), job);
        if queued > 0 {
            self.ring.push_back(id.clone());
        }
        for event in hits {
            self.settle(&id, event, Via::Admission);
        }
        Ok((id, n))
    }

    /// Take the head job off the ring, take its first pending cell, and
    /// rotate the job to the back if it still has more — a deficit
    /// round-robin with a quantum of one cell. The flag says whether the
    /// cell is to run; while draining it is not, the cell is not in flight,
    /// and the caller settles it `Cancelled` unrun.
    fn pull(&mut self) -> Option<(String, Task, bool)> {
        while let Some(id) = self.ring.pop_front() {
            let Some(job) = self.jobs.get_mut(&id) else {
                continue; // stale ring entry: job already finished
            };
            let Some(task) = job.pending.pop_front() else {
                continue; // stale ring entry: job drained by a cancel
            };
            let run = !self.draining;
            if !job.pending.is_empty() {
                self.ring.push_back(id.clone());
            }
            self.queued -= 1;
            self.inflight += usize::from(run);
            return Some((id, task, run));
        }
        None
    }

    /// Take a live job's backlog out. The caller settles every returned
    /// cell `Cancelled`; the job stays live until it has.
    fn cancel(&mut self, id: &str) -> Option<Vec<Task>> {
        let drained: Vec<Task> = self.jobs.get_mut(id)?.pending.drain(..).collect();
        self.queued -= drained.len();
        Some(drained)
    }

    /// End one cell. `via` says whether it was in flight.
    fn settle(&mut self, id: &str, event: CellEvent, via: Via) {
        let job = self
            .jobs
            .get_mut(id)
            .expect("a job is live until its last cell has settled");
        let (stats, sum) = (&mut self.stats, &mut job.summary);
        match &event.status {
            CellStatus::Done { cached: true, .. } => {
                stats.cache_hits += 1;
                sum.ok += 1;
                sum.cached += 1;
            }
            CellStatus::Done { .. } => {
                stats.cells_run += 1;
                sum.ok += 1;
            }
            CellStatus::Failed { .. } => {
                stats.cells_run += 1;
                stats.failures += 1;
                sum.failed += 1;
            }
            CellStatus::Cancelled => sum.cancelled += 1,
        }
        if via == Via::Worker {
            self.inflight -= 1;
        }
        // A disconnected submitter dropped its receiver; the send failing
        // is fine — the result is cached either way.
        let _ = job.tx.send(Event::Cell(event));
        let sum = &job.summary;
        if sum.ok + sum.failed + sum.cancelled == sum.cells {
            let job = self.jobs.remove(id).expect("job present");
            let _ = job.tx.send(Event::Done(job.summary));
        }
    }
}

struct Inner {
    state: Mutex<Sched>,
    cv: Condvar,
    runner: Runner,
    cache: Cache,
    max_queue: usize,
    workers: usize,
    stages: Stages,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.state.lock().expect("scheduler lock")
    }
}

/// The daemon's scheduler: per-job queues drained round-robin by a
/// fixed worker pool.
pub struct Scheduler {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawn a scheduler with `workers` worker threads (the in-flight
    /// bound; clamped to at least 1) and an admission bound of
    /// `max_queue` queued cells.
    pub fn new(workers: usize, max_queue: usize, cache: Cache, runner: Runner) -> Scheduler {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(Sched::default()),
            cv: Condvar::new(),
            runner,
            cache,
            max_queue,
            workers,
            stages: Stages::default(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("archgraphd-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Scheduler {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// Enqueue a job of already-validated cells. Events stream to `tx`.
    /// Returns the job id and cell count, or a structured rejection
    /// (shutdown in progress, empty job, or the admission bound).
    ///
    /// Every cell is looked up in the cache first, on the caller's thread
    /// and before the lock. The hits are answered at admission, so their
    /// lines are in `tx` when this returns; only the misses are queued for
    /// the workers, and a job with none wakes no worker.
    ///
    /// `_budget_cycles` and `_budget_host_ms` are always `None`; removed
    /// with ROADMAP 11(b). They stay only because the frozen `benchmarks/`
    /// package calls `submit(specs, None, None, tx)`.
    pub fn submit(
        &self,
        specs: Vec<CellSpec>,
        _budget_cycles: Option<Infallible>,
        _budget_host_ms: Option<Infallible>,
        tx: Sender<Event>,
    ) -> Result<(String, usize), String> {
        let inner = &self.inner;
        let (hits, misses) = probe(&inner.cache, specs);
        let wake = !misses.is_empty();
        let admitted = inner.lock().admit(hits, misses, tx, inner.max_queue)?;
        if wake {
            inner.cv.notify_all();
        }
        Ok(admitted)
    }

    /// Cancel a job: pending cells are drained *eagerly* — streamed to
    /// the submitter as cancelled and removed from the backlog before
    /// this returns, so a `status` probe never reports them as runnable.
    /// The in-flight cell — if any — completes normally. Returns false
    /// for unknown (or already finished) job ids.
    pub fn cancel(&self, job: &str) -> bool {
        let Some(drained) = self.inner.lock().cancel(job) else {
            return false;
        };
        let events: Vec<CellEvent> = drained
            .into_iter()
            .map(|task| task.event(CellStatus::Cancelled))
            .collect();
        let mut st = self.inner.lock();
        for event in events {
            st.settle(job, event, Via::Backlog);
        }
        true
    }

    /// Current state, for the `status` op.
    pub fn snapshot(&self) -> Snapshot {
        // Before the lock: `usage` walks the cache directory.
        let cache = self.inner.cache.usage();
        let st = self.inner.lock();
        Snapshot {
            stats: st.stats.clone(),
            queued: st.queued,
            inflight: st.inflight,
            active_jobs: st.jobs.len(),
            workers: self.inner.workers,
            cache,
            stages: self.inner.stages.snapshot(),
        }
    }

    /// The stage histograms, for the connection handlers to record into.
    pub(crate) fn stages(&self) -> &Stages {
        &self.inner.stages
    }

    /// The bench suite as served by the `list` op: every suite cell's
    /// name, content address, and whether the cache would serve it
    /// without running. Probing does not count as cache use.
    pub fn list(&self) -> Vec<ListEntry> {
        bench_suite()
            .into_iter()
            .map(|(name, spec)| ListEntry {
                name: name.to_string(),
                key: spec.cache_key(),
                cached: self.inner.cache.contains(&spec),
            })
            .collect()
    }

    /// Graceful drain: in-flight cells complete (and are cached), queued
    /// cells are flushed to their submitters as cancelled, every active
    /// job receives its terminal [`Event::Done`], and the worker threads
    /// exit. Blocks until the pool is gone. Idempotent.
    pub fn shutdown_and_join(&self) {
        self.inner.lock().draining = true;
        self.inner.cv.notify_all();
        let handles: Vec<_> = self
            .handles
            .lock()
            .expect("scheduler handles lock")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// A job's cells split into the cache hits, answered, and the misses, to
/// queue. Call it before the lock: a lookup is disk I/O. With the cache off
/// there is nothing to probe, and no key is hashed until a worker needs it.
fn probe(cache: &Cache, specs: Vec<CellSpec>) -> (Vec<CellEvent>, VecDeque<Task>) {
    let cells = specs.into_iter().enumerate();
    let admitted = Instant::now();
    if !cache.enabled() {
        let misses = cells.map(|(index, spec)| Task {
            index,
            spec,
            key: None,
            admitted,
        });
        return (Vec::new(), misses.collect());
    }
    let (mut hits, mut misses) = (Vec::new(), VecDeque::new());
    for (index, spec) in cells {
        let key = spec.cache_key();
        let sim = cache.lookup_key(&key);
        let task = Task {
            index,
            spec,
            key: Some(key),
            admitted,
        };
        match sim {
            Some(sim) => hits.push(task.event(CellStatus::Done { sim, cached: true })),
            None => misses.push_back(task),
        }
    }
    (hits, misses)
}

/// Pull, run, settle. Under a drain the pull keeps going, so that pending
/// cells are flushed as cancelled, and the worker exits once every queue
/// is dry.
fn worker_loop(inner: &Inner) {
    loop {
        let (job, task, run) = {
            let mut st = inner.lock();
            loop {
                if let Some(pulled) = st.pull() {
                    break pulled;
                }
                if st.draining {
                    return;
                }
                st = inner.cv.wait(st).expect("scheduler lock");
            }
        };
        inner
            .stages
            .record(Stage::QueueWait, task.admitted.elapsed());
        let (status, via) = if run {
            (run_cell(inner, &task), Via::Worker)
        } else {
            (CellStatus::Cancelled, Via::Backlog)
        };
        let event = task.event(status);
        inner.lock().settle(&job, event, via);
    }
}

/// How a pulled cell ends: the cache first (another job may have recorded
/// the cell since admission), then the runner, under the spec's own
/// `max_cycles`.
fn run_cell(inner: &Inner, task: &Task) -> CellStatus {
    let key = task.key.as_deref();
    if let Some(sim) = key.and_then(|k| inner.cache.lookup_key(k)) {
        return CellStatus::Done { sim, cached: true };
    }
    let started = Instant::now();
    let ran = (inner.runner)(&task.spec);
    inner.stages.record(Stage::Run, started.elapsed());
    match ran {
        Ok(sim) => {
            if let Some(key) = key {
                let started = Instant::now();
                inner.cache.record_key(key, &sim);
                inner.stages.record(Stage::Store, started.elapsed());
            }
            CellStatus::Done { sim, cached: false }
        }
        Err(error) => CellStatus::Failed { error },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_bench::cells::{CellSpec, Kernel, MachineKind};
    use std::sync::mpsc::{self, Receiver};

    /// Tiny distinct specs (never executed by these tests' runners).
    fn spec(p: usize) -> CellSpec {
        let mut s = CellSpec::new(Kernel::Color, MachineKind::Smp, p);
        s.n = 64;
        s.m = 128;
        s
    }

    /// A runner that blocks on `gate` per call, signals `started` when
    /// entered, and appends the spec's canonical string to `order`.
    #[allow(clippy::type_complexity)]
    fn gated_runner(order: Arc<Mutex<Vec<String>>>) -> (Runner, Sender<()>, Receiver<()>) {
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let gate_rx = Arc::new(Mutex::new(gate_rx));
        let runner: Runner = Arc::new(move |s: &CellSpec| {
            let _ = started_tx.send(());
            gate_rx
                .lock()
                .expect("gate lock")
                .recv()
                .expect("gate release");
            order.lock().expect("order lock").push(s.canonical());
            Ok(vec![("cycles".to_string(), s.p as u64)])
        });
        (runner, gate_tx, started_rx)
    }

    fn drain(rx: &Receiver<Event>) -> (Vec<CellEvent>, JobSummary) {
        let mut cells = Vec::new();
        loop {
            match rx.recv().expect("event stream ends with Done") {
                Event::Cell(c) => cells.push(c),
                Event::Done(s) => return (cells, s),
            }
        }
    }

    #[test]
    fn round_robin_interleaves_jobs_with_one_worker() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let (runner, gate, started) = gated_runner(Arc::clone(&order));
        let sched = Scheduler::new(1, 64, Cache::disabled(), runner);

        // Job A is submitted first and its first cell is already in
        // flight when B and C arrive; the ring then alternates jobs.
        let (a_tx, a_rx) = mpsc::channel();
        let (b_tx, b_rx) = mpsc::channel();
        let (c_tx, c_rx) = mpsc::channel();
        sched
            .submit(vec![spec(1), spec(2), spec(3)], None, None, a_tx)
            .expect("job A");
        started.recv().expect("A cell 0 in flight");
        sched
            .submit(vec![spec(4), spec(5)], None, None, b_tx)
            .expect("job B");
        sched
            .submit(vec![spec(6)], None, None, c_tx)
            .expect("job C");
        for _ in 0..6 {
            gate.send(()).expect("release");
        }

        let (a_cells, a_sum) = drain(&a_rx);
        let (b_cells, b_sum) = drain(&b_rx);
        let (c_cells, c_sum) = drain(&c_rx);
        assert_eq!(
            *order.lock().unwrap(),
            vec![
                spec(1).canonical(), // A0 (in flight before B/C existed)
                spec(2).canonical(), // A1 (head of the ring)
                spec(4).canonical(), // B0
                spec(6).canonical(), // C0 — the 1-cell job is not stuck behind A
                spec(3).canonical(), // A2
                spec(5).canonical(), // B1
            ],
            "one worker must rotate the ring one cell per job"
        );
        assert_eq!(
            a_cells.iter().map(|c| c.index).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!((a_sum.ok, b_sum.ok, c_sum.ok), (3, 2, 1));
        assert_eq!((a_cells.len(), b_cells.len(), c_cells.len()), (3, 2, 1));
        sched.shutdown_and_join();
    }

    #[test]
    fn a_one_cell_job_lands_within_two_cell_times_of_a_hundred_cell_sweep() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let (runner, gate, started) = gated_runner(Arc::clone(&order));
        let sched = Scheduler::new(1, 256, Cache::disabled(), runner);

        // The acceptance bar: 1 worker, a 100-cell sweep queued first,
        // then a 1-cell job. The small job must complete within 2
        // cell-times (the sweep cell in flight at submit time, plus at
        // most one more before the ring reaches the newcomer).
        let (big_tx, big_rx) = mpsc::channel();
        let big: Vec<CellSpec> = (0..100).map(|_| spec(1)).collect();
        sched
            .submit(big, None, None, big_tx)
            .expect("100-cell sweep");
        started.recv().expect("sweep cell 0 in flight");

        let (small_tx, small_rx) = mpsc::channel();
        sched
            .submit(vec![spec(2)], None, None, small_tx)
            .expect("1-cell job");
        for _ in 0..101 {
            gate.send(()).expect("release");
        }

        let (small_cells, small_sum) = drain(&small_rx);
        assert_eq!((small_cells.len(), small_sum.ok), (1, 1));
        let order = order.lock().unwrap();
        let pos = order
            .iter()
            .position(|c| c == &spec(2).canonical())
            .expect("small job ran");
        assert!(
            pos <= 2,
            "1-cell job ran {pos} cell-times after submit; FIFO would be 100"
        );
        drop(order);
        let (_, big_sum) = drain(&big_rx);
        assert_eq!(big_sum.ok, 100, "the sweep still completes in full");
        sched.shutdown_and_join();
    }

    #[test]
    fn admission_control_bounds_the_queued_backlog() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let (runner, gate, started) = gated_runner(Arc::clone(&order));
        let sched = Scheduler::new(1, 1, Cache::disabled(), runner);

        let (tx1, rx1) = mpsc::channel();
        sched
            .submit(vec![spec(1)], None, None, tx1)
            .expect("first job admitted");
        // Wait until the worker has *picked up* the cell: the queue is
        // empty, the cell is in-flight, and exactly one slot remains.
        started.recv().expect("worker started cell 1");

        let (tx2, rx2) = mpsc::channel();
        sched
            .submit(vec![spec(2)], None, None, tx2)
            .expect("one queued cell fits");
        let (tx3, _rx3) = mpsc::channel();
        let err = sched
            .submit(vec![spec(3)], None, None, tx3)
            .expect_err("bound exceeded");
        assert!(err.contains("queue full"), "structured rejection: {err}");
        assert!(err.contains("admission bound of 1"), "{err}");

        gate.send(()).unwrap();
        gate.send(()).unwrap();
        let (_, s1) = drain(&rx1);
        let (_, s2) = drain(&rx2);
        assert_eq!((s1.ok, s2.ok), (1, 1));
        // Backlog drained: the bound frees up again.
        let (tx4, rx4) = mpsc::channel();
        sched
            .submit(vec![spec(4)], None, None, tx4)
            .expect("slot freed");
        started.recv().expect("worker started cell 4");
        gate.send(()).unwrap();
        let (_, s4) = drain(&rx4);
        assert_eq!(s4.ok, 1);
        sched.shutdown_and_join();
    }

    #[test]
    fn racing_submits_never_over_admit() {
        // Two threads race 3-cell submits at a bound of 4 with the
        // worker parked: only one can fit, every round, and the backlog
        // never exceeds the bound.
        for round in 0..8 {
            let order = Arc::new(Mutex::new(Vec::new()));
            let (runner, gate, started) = gated_runner(Arc::clone(&order));
            let sched = Arc::new(Scheduler::new(1, 4, Cache::disabled(), runner));

            let (tx0, rx0) = mpsc::channel();
            sched
                .submit(vec![spec(9)], None, None, tx0)
                .expect("pilot job");
            started.recv().expect("worker parked on the pilot cell");

            let barrier = Arc::new(std::sync::Barrier::new(2));
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    let sched = Arc::clone(&sched);
                    let barrier = Arc::clone(&barrier);
                    thread::spawn(move || {
                        let (tx, rx) = mpsc::channel();
                        barrier.wait();
                        let admitted = sched
                            .submit(vec![spec(1), spec(2), spec(3)], None, None, tx)
                            .is_ok();
                        (admitted, rx)
                    })
                })
                .collect();
            let results: Vec<_> = racers.into_iter().map(|h| h.join().unwrap()).collect();
            let admitted = results.iter().filter(|(ok, _)| *ok).count();
            assert_eq!(admitted, 1, "round {round}: exactly one racer fits");
            assert!(
                sched.snapshot().queued <= 4,
                "round {round}: backlog within the bound"
            );

            for _ in 0..4 {
                gate.send(()).unwrap();
            }
            let (_, s0) = drain(&rx0);
            assert_eq!(s0.ok, 1);
            for (ok, rx) in results {
                if ok {
                    let (_, s) = drain(&rx);
                    assert_eq!(s.ok, 3);
                }
            }
            sched.shutdown_and_join();
        }
    }

    #[test]
    fn cancel_skips_queued_cells_but_finishes_the_inflight_one() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let (runner, gate, started) = gated_runner(Arc::clone(&order));
        let sched = Scheduler::new(1, 64, Cache::disabled(), runner);

        let (tx, rx) = mpsc::channel();
        let (job, _) = sched
            .submit(vec![spec(1), spec(2), spec(3)], None, None, tx)
            .unwrap();
        started.recv().expect("cell 0 in flight");
        assert!(sched.cancel(&job), "active job cancels");
        assert!(!sched.cancel("j999"), "unknown job does not");
        gate.send(()).unwrap(); // only cell 0 ever runs

        let (cells, sum) = drain(&rx);
        assert_eq!(cells.len(), 3, "every cell is accounted to the client");
        assert_eq!(cells[0].status, CellStatus::Cancelled);
        assert_eq!(cells[1].status, CellStatus::Cancelled);
        assert!(
            matches!(cells[2].status, CellStatus::Done { .. }),
            "the in-flight cell still completes"
        );
        assert_eq!((sum.ok, sum.cancelled, sum.failed), (1, 2, 0));
        assert_eq!(order.lock().unwrap().len(), 1, "cancelled cells never ran");
        assert!(!sched.cancel(&job), "finished job is gone");
        sched.shutdown_and_join();
    }

    #[test]
    fn cancel_drains_the_backlog_before_returning() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let (runner, gate, started) = gated_runner(Arc::clone(&order));
        let sched = Scheduler::new(1, 64, Cache::disabled(), runner);

        let (tx, rx) = mpsc::channel();
        let (job, _) = sched
            .submit(vec![spec(1), spec(2), spec(3), spec(4)], None, None, tx)
            .unwrap();
        started.recv().expect("cell 0 in flight");
        assert_eq!(sched.snapshot().queued, 3, "three cells pending");

        assert!(sched.cancel(&job));
        // Consistency pinned *before* any worker makes progress: the
        // cancelled cells are gone from the runnable backlog and already
        // streamed to the client.
        let snap = sched.snapshot();
        assert_eq!(snap.queued, 0, "cancelled cells are not runnable backlog");
        assert_eq!(snap.inflight, 1, "the in-flight cell is still going");
        let mut streamed = 0;
        while let Ok(Event::Cell(c)) = rx.try_recv() {
            assert_eq!(c.status, CellStatus::Cancelled);
            streamed += 1;
        }
        assert_eq!(streamed, 3, "cancellations streamed eagerly");

        gate.send(()).unwrap();
        // The in-flight cell completes and ends the job.
        let mut ok = 0;
        loop {
            match rx.recv().expect("stream ends with Done") {
                Event::Cell(c) => {
                    assert!(matches!(c.status, CellStatus::Done { .. }));
                    ok += 1;
                }
                Event::Done(sum) => {
                    assert_eq!((sum.ok, sum.cancelled), (1, 3));
                    break;
                }
            }
        }
        assert_eq!(ok, 1);
        sched.shutdown_and_join();
    }

    #[test]
    fn cache_hits_are_streamed_and_counted() {
        let dir = std::env::temp_dir().join(format!(
            "archgraphd-queue-test-{}-cache",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let calls = Arc::new(Mutex::new(0usize));
        let runner: Runner = Arc::new({
            let calls = Arc::clone(&calls);
            move |_s| {
                *calls.lock().unwrap() += 1;
                Ok(vec![("cycles".to_string(), 7)])
            }
        });
        let sched = Scheduler::new(1, 64, Cache::open(dir.clone()), runner);

        let (tx, rx) = mpsc::channel();
        sched.submit(vec![spec(1)], None, None, tx).unwrap();
        let (cells, sum) = drain(&rx);
        assert_eq!(
            cells[0].status,
            CellStatus::Done {
                sim: vec![("cycles".to_string(), 7)],
                cached: false
            }
        );
        assert_eq!((sum.ok, sum.cached), (1, 0));

        // Same content address (even under a different engine pin) hits.
        let mut pinned = spec(1);
        pinned.engine = Some(archgraph_mta_sim::machine::MtaEngine::Compiled);
        let (tx, rx) = mpsc::channel();
        sched.submit(vec![pinned], None, None, tx).unwrap();
        let (cells, sum) = drain(&rx);
        assert_eq!(
            cells[0].status,
            CellStatus::Done {
                sim: vec![("cycles".to_string(), 7)],
                cached: true
            }
        );
        assert_eq!((sum.ok, sum.cached), (1, 1));
        assert_eq!(*calls.lock().unwrap(), 1, "second submit never ran");

        let snap = sched.snapshot();
        assert_eq!(snap.stats.cells_run, 1);
        assert_eq!(snap.stats.cache_hits, 1);
        assert_eq!(snap.stats.jobs, 2);
        assert_eq!(snap.cache.entries, 1, "status surfaces the cache footprint");
        sched.shutdown_and_join();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A cache directory that already holds a result for each of `specs`
    /// (`cycles = p`), recorded through a handle of its own.
    fn warm_cache_dir(name: &str, specs: &[CellSpec]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "archgraphd-queue-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::open(dir.clone());
        for s in specs {
            cache.record(s, &[("cycles".to_string(), s.p as u64)]);
        }
        dir
    }

    /// A runner that counts its calls.
    fn counting_runner(calls: Arc<Mutex<usize>>) -> Runner {
        Arc::new(move |_| {
            *calls.lock().unwrap() += 1;
            Ok(vec![("cycles".to_string(), 60)])
        })
    }

    fn cached(p: usize) -> CellStatus {
        CellStatus::Done {
            sim: vec![("cycles".to_string(), p as u64)],
            cached: true,
        }
    }

    #[test]
    fn a_fully_cached_job_has_streamed_everything_when_submit_returns() {
        let specs: Vec<CellSpec> = (1..=5).map(spec).collect();
        let dir = warm_cache_dir("admission-hits", &specs);
        let calls = Arc::new(Mutex::new(0usize));
        let sched = Scheduler::new(
            2,
            64,
            Cache::open(dir.clone()),
            counting_runner(Arc::clone(&calls)),
        );

        let (tx, rx) = mpsc::channel();
        let (_, n) = sched.submit(specs.clone(), None, None, tx).unwrap();
        assert_eq!(n, 5);
        // No waiting: every line and the `Done` are already in the channel.
        let events: Vec<Event> = rx.try_iter().collect();
        let want: Vec<Event> = specs
            .iter()
            .enumerate()
            .map(|(index, s)| {
                Event::Cell(CellEvent {
                    index,
                    name: s.display_name(),
                    key: s.cache_key(),
                    status: cached(s.p),
                })
            })
            .chain([Event::Done(JobSummary {
                cells: 5,
                ok: 5,
                cached: 5,
                ..JobSummary::default()
            })])
            .collect();
        assert_eq!(events, want, "every cell in index order, then Done");
        assert_eq!(*calls.lock().unwrap(), 0, "the runner never ran");
        let snap = sched.snapshot();
        assert_eq!((snap.queued, snap.inflight, snap.active_jobs), (0, 0, 0));
        let stats = snap.stats;
        assert_eq!((stats.jobs, stats.cache_hits, stats.cells_run), (1, 5, 0));
        sched.shutdown_and_join();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_mixed_job_answers_its_hits_at_admission_and_runs_its_misses() {
        let specs: Vec<CellSpec> = (1..=6).map(spec).collect();
        let warm: Vec<CellSpec> = specs.iter().step_by(2).cloned().collect();
        let dir = warm_cache_dir("admission-mixed", &warm);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (runner, gate, _started) = gated_runner(Arc::clone(&order));
        let sched = Scheduler::new(1, 64, Cache::open(dir.clone()), runner);

        let (tx, rx) = mpsc::channel();
        sched.submit(specs.clone(), None, None, tx).unwrap();
        // The worker is held at the gate: what waits is the hits alone.
        let answered: Vec<CellEvent> = rx
            .try_iter()
            .map(|e| match e {
                Event::Cell(c) => c,
                Event::Done(_) => panic!("Done before the misses ran"),
            })
            .collect();
        let hits: Vec<(usize, CellStatus)> = [0, 2, 4].map(|i| (i, cached(i + 1))).into();
        let got: Vec<(usize, CellStatus)> =
            answered.into_iter().map(|c| (c.index, c.status)).collect();
        assert_eq!(got, hits);
        let snap = sched.snapshot();
        assert_eq!(snap.queued + snap.inflight, 3, "only the misses are queued");

        for _ in 0..3 {
            gate.send(()).expect("release");
        }
        let (cells, sum) = drain(&rx);
        let ran: Vec<usize> = cells.iter().map(|c| c.index).collect();
        assert_eq!(ran, [1, 3, 5], "each index once");
        let fresh = |c: &CellEvent| matches!(c.status, CellStatus::Done { cached: false, .. });
        assert!(cells.iter().all(fresh), "{cells:?}");
        assert_eq!((sum.cells, sum.ok, sum.cached), (6, 6, 3));
        let ran_specs: Vec<String> = [1, 3, 5].map(|i| specs[i].canonical()).into();
        assert_eq!(*order.lock().unwrap(), ran_specs);
        sched.shutdown_and_join();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn the_admission_bound_counts_only_the_cells_that_must_run() {
        let specs: Vec<CellSpec> = (1..=4).map(spec).collect();
        let dir = warm_cache_dir("admission-bound", &specs);
        let calls = Arc::new(Mutex::new(0usize));
        let sched = Scheduler::new(
            1,
            2,
            Cache::open(dir.clone()),
            counting_runner(Arc::clone(&calls)),
        );

        let (tx, rx) = mpsc::channel();
        sched
            .submit(specs, None, None, tx)
            .expect("four hits fit a bound of two");
        let (_, sum) = drain(&rx);
        assert_eq!((sum.ok, sum.cached), (4, 4));

        let (tx, _rx) = mpsc::channel();
        let err = sched
            .submit((11..=14).map(spec).collect(), None, None, tx)
            .expect_err("four misses do not");
        assert_eq!(
            err,
            "queue full: 0 queued + 4 submitted exceeds the admission bound of 2"
        );

        // Two hits and two misses: the misses fill the bound exactly.
        let (tx, rx) = mpsc::channel();
        sched
            .submit(vec![spec(1), spec(11), spec(2), spec(12)], None, None, tx)
            .expect("two misses fit");
        let (_, sum) = drain(&rx);
        assert_eq!((sum.ok, sum.cached), (4, 2));
        assert_eq!(*calls.lock().unwrap(), 2, "only the misses ran");
        sched.shutdown_and_join();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn list_reports_suite_names_and_cache_status() {
        let dir =
            std::env::temp_dir().join(format!("archgraphd-queue-test-{}-list", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner: Runner = Arc::new(|_s| Ok(vec![("cycles".to_string(), 7)]));
        let sched = Scheduler::new(1, 64, Cache::open(dir.clone()), runner);

        let cold = sched.list();
        assert_eq!(cold.len(), bench_suite().len());
        assert!(cold.iter().all(|e| !e.cached), "cold cache: nothing cached");
        assert!(cold.iter().any(|e| e.name == "fig2/mta/p8"));

        // Run one suite cell; only its entry flips (and, per the
        // determinism contract, its engine-pinned siblings that share
        // the content address).
        let (tx, rx) = mpsc::channel();
        sched
            .submit(
                vec![archgraph_bench::cells::find("fig2/mta/p8").unwrap()],
                None,
                None,
                tx,
            )
            .unwrap();
        let (_, sum) = drain(&rx);
        assert_eq!(sum.ok, 1);
        let warm = sched.list();
        let fig2: Vec<_> = warm
            .iter()
            .filter(|e| e.name.starts_with("fig2/mta"))
            .collect();
        assert!(
            fig2.iter().all(|e| e.cached),
            "all fig2 MTA engine pins share one cache entry"
        );
        assert!(
            warm.iter()
                .filter(|e| e.cached)
                .all(|e| e.key == fig2[0].key),
            "only the one content address is warm"
        );
        sched.shutdown_and_join();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failures_are_streamed_not_fatal_and_never_cached() {
        let dir =
            std::env::temp_dir().join(format!("archgraphd-queue-test-{}-fail", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let calls = Arc::new(Mutex::new(0usize));
        let runner: Runner = Arc::new({
            let calls = Arc::clone(&calls);
            move |s: &CellSpec| {
                *calls.lock().unwrap() += 1;
                if s.p == 13 {
                    Err("deliberate poisoned cell".into())
                } else {
                    Ok(vec![("cycles".to_string(), s.p as u64)])
                }
            }
        });
        let sched = Scheduler::new(1, 64, Cache::open(dir.clone()), runner);

        let (tx, rx) = mpsc::channel();
        sched
            .submit(vec![spec(1), spec(13), spec(2)], None, None, tx)
            .unwrap();
        let (cells, sum) = drain(&rx);
        assert_eq!(
            cells[1].status,
            CellStatus::Failed {
                error: "deliberate poisoned cell".into()
            }
        );
        assert!(
            matches!(cells[2].status, CellStatus::Done { .. }),
            "the grid finishes around the poisoned cell"
        );
        assert_eq!((sum.ok, sum.failed), (2, 1));

        // Re-submitting the poisoned cell re-runs it: failures don't cache.
        let (tx, rx) = mpsc::channel();
        sched.submit(vec![spec(13)], None, None, tx).unwrap();
        let (_, sum) = drain(&rx);
        assert_eq!((sum.failed, sum.cached), (1, 0));
        assert_eq!(*calls.lock().unwrap(), 4, "poisoned cell ran twice");
        sched.shutdown_and_join();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn shutdown_flushes_queued_cells_and_rejects_new_jobs() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let (runner, gate, started) = gated_runner(Arc::clone(&order));
        let sched = Scheduler::new(1, 64, Cache::disabled(), runner);

        let (tx, rx) = mpsc::channel();
        sched
            .submit(vec![spec(1), spec(2)], None, None, tx)
            .unwrap();
        started.recv().expect("cell 0 in flight");
        // Release both gates so the drain can never deadlock regardless
        // of whether cell 1 starts before the shutdown flag lands.
        gate.send(()).unwrap();
        gate.send(()).unwrap();
        sched.shutdown_and_join();

        let (cells, sum) = drain(&rx);
        assert_eq!(cells.len(), 2, "drain flushes every cell to the client");
        assert_eq!(sum.failed, 0);
        assert!(sum.ok >= 1, "the in-flight cell completed");
        assert_eq!(sum.ok + sum.cancelled, 2);

        let (tx, _rx) = mpsc::channel();
        let err = sched
            .submit(vec![spec(3)], None, None, tx)
            .expect_err("post-shutdown");
        assert!(err.contains("shutting down"), "{err}");
        sched.shutdown_and_join(); // idempotent
    }

    // ---- The four transitions against a reference model: a bare
    // `Sched`, no thread, no cache, no clock.

    use proptest::prelude::*;

    const MAX_QUEUE: usize = 8;

    /// How a generated `Settle` ends an in-flight cell.
    #[derive(Debug, Clone, Copy)]
    enum Outcome {
        /// A fresh run.
        Ran,
        /// A failure of the cell's own.
        Failed,
        /// A late cache hit: recorded by another job since admission.
        Cached,
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Bit `i` of `hits` set: cell `i` is a cache hit at admission.
        Admit {
            cells: usize,
            hits: u8,
        },
        /// Pull as a worker would.
        Pull,
        /// Settle the `pick`-th in-flight cell, if any.
        Settle {
            pick: usize,
            outcome: Outcome,
        },
        /// Cancel the `pick`-th id ever admitted, live or finished; one
        /// past the last is an id never admitted.
        Cancel {
            pick: usize,
        },
        Drain,
    }

    fn op() -> impl Strategy<Value = Op> {
        let ops = (0u8..24, 0usize..64, 0u8..3, 0u8..128);
        ops.prop_map(|(kind, pick, outcome, mask)| match kind {
            0 => Op::Drain,
            1..=6 => Op::Admit {
                cells: pick % 6,
                // Half the jobs all cold, the rest a random mix.
                hits: if mask < 64 { mask } else { 0 },
            },
            7..=13 => Op::Pull,
            14..=20 => Op::Settle {
                pick,
                outcome: match outcome {
                    0 => Outcome::Ran,
                    1 => Outcome::Failed,
                    _ => Outcome::Cached,
                },
            },
            _ => Op::Cancel { pick },
        })
    }

    /// One job as the reference sees it. `tally` is what its `Done` must
    /// say; the job is live while `tally` counts fewer than `cells`.
    struct ModelJob {
        id: String,
        /// Indices of the misses not yet pulled, in submit order.
        pending: VecDeque<usize>,
        tally: JobSummary,
        rx: Receiver<Event>,
        seen: Vec<usize>,
        done: bool,
    }

    impl ModelJob {
        fn settled(&self) -> usize {
            self.tally.ok + self.tally.failed + self.tally.cancelled
        }
    }

    /// The reference: pending counts in ring order. Whoever is first goes
    /// and then moves to the back, so between two pulls of one job every
    /// other job with pending cells is pulled exactly once.
    #[derive(Default)]
    struct Model {
        jobs: Vec<ModelJob>,
        /// Indices into `jobs` with pending cells, in ring order.
        ring: VecDeque<usize>,
        draining: bool,
        stats: Stats,
    }

    impl Model {
        fn queued(&self) -> usize {
            self.jobs.iter().map(|j| j.pending.len()).sum()
        }

        /// `(job, cell index)` of the next pull.
        fn pull(&mut self) -> Option<(usize, usize)> {
            let j = self.ring.pop_front()?;
            let job = &mut self.jobs[j];
            let index = job
                .pending
                .pop_front()
                .expect("a ring job has a pending cell");
            if !job.pending.is_empty() {
                self.ring.push_back(j);
            }
            Some((j, index))
        }

        /// Count one settled cell the way `JobSummary` and `Stats` define.
        fn settle(&mut self, j: usize, status: &CellStatus) {
            let (job, stats) = (&mut self.jobs[j], &mut self.stats);
            match status {
                CellStatus::Done { cached, .. } => {
                    job.tally.ok += 1;
                    job.tally.cached += usize::from(*cached);
                    stats.cache_hits += u64::from(*cached);
                    stats.cells_run += u64::from(!*cached);
                }
                CellStatus::Failed { .. } => {
                    job.tally.failed += 1;
                    stats.failures += 1;
                    stats.cells_run += 1;
                }
                CellStatus::Cancelled => job.tally.cancelled += 1,
            }
        }
    }

    /// A cell pulled to run and not yet settled.
    struct Flight {
        job: usize,
        index: usize,
    }

    fn event(index: usize, status: CellStatus) -> CellEvent {
        CellEvent {
            index,
            name: String::new(),
            key: String::new(),
            status,
        }
    }

    /// Every invariant that must hold between any two transitions.
    fn check(s: &Sched, m: &mut Model, flights: &[Flight], at: &str) {
        assert_eq!(s.queued, m.queued(), "{at}: queued is the pending sum");
        assert!(s.queued <= MAX_QUEUE, "{at}: backlog within the bound");
        assert_eq!(s.inflight, flights.len(), "{at}: inflight");
        assert_eq!(s.next_job as usize, m.jobs.len(), "{at}: ids issued");
        let (got, want) = (&s.stats, &m.stats);
        assert_eq!(
            (got.jobs, got.cells_run, got.cache_hits, got.failures),
            (want.jobs, want.cells_run, want.cache_hits, want.failures),
            "{at}: lifetime stats"
        );
        let live = m.jobs.iter().filter(|j| j.settled() < j.tally.cells);
        assert_eq!(s.jobs.len(), live.count(), "{at}: live jobs");
        for job in &mut m.jobs {
            for ev in job.rx.try_iter() {
                assert!(!job.done, "{at}: {} streamed after its Done", job.id);
                match ev {
                    Event::Cell(c) => {
                        assert!(!job.seen.contains(&c.index), "{at}: index twice");
                        job.seen.push(c.index);
                    }
                    Event::Done(sum) => {
                        assert_eq!(sum, job.tally, "{at}: {} summary", job.id);
                        assert!(sum.cached <= sum.ok);
                        job.done = true;
                    }
                }
            }
            assert_eq!(job.seen.len(), job.settled(), "{at}: one line per cell");
            assert_eq!(job.done, job.settled() == job.tally.cells, "{at}: Done");
        }
    }

    fn run_ops(ops: &[Op]) {
        let t0 = Instant::now();
        let (mut s, mut m) = (Sched::default(), Model::default());
        let mut flights: Vec<Flight> = Vec::new();
        // Closing sequence: drain, be refused, flush the backlog, settle
        // what flies.
        let refused = Op::Admit { cells: 1, hits: 1 };
        let closing = [Op::Drain, refused]
            .into_iter()
            .chain((0..=MAX_QUEUE).map(|_| Op::Pull))
            .chain((0..ops.len()).map(|_| Op::Settle {
                pick: 0,
                outcome: Outcome::Ran,
            }));
        for (step, op) in ops.iter().cloned().chain(closing).enumerate() {
            let at = format!("step {step} {op:?}");
            match op {
                Op::Admit { cells, hits } => {
                    let hit = |i: &usize| hits >> i & 1 == 1;
                    let misses: VecDeque<usize> = (0..cells).filter(|i| !hit(i)).collect();
                    let queued = m.queued();
                    let want = if cells == 0 {
                        Err("empty job: no cells".to_string())
                    } else if m.draining {
                        Err("daemon is shutting down".to_string())
                    } else if queued + misses.len() > MAX_QUEUE {
                        Err(format!(
                            "queue full: {queued} queued + {} submitted exceeds \
                             the admission bound of {MAX_QUEUE}",
                            misses.len()
                        ))
                    } else {
                        Ok((format!("j{}", m.jobs.len() + 1), cells))
                    };
                    let cached = || CellStatus::Done {
                        sim: vec![("cycles".to_string(), 7)],
                        cached: true,
                    };
                    let hit_events = (0..cells).filter(hit).map(|i| event(i, cached()));
                    let tasks = misses.iter().map(|&index| Task {
                        index,
                        spec: spec(1),
                        key: None,
                        admitted: t0,
                    });
                    let (tx, rx) = mpsc::channel();
                    let ring_before = s.ring.clone();
                    let got = s.admit(hit_events.collect(), tasks.collect(), tx, MAX_QUEUE);
                    assert_eq!(got, want, "{at}");
                    match got {
                        // `check` compares the rest with the untouched model.
                        Err(_) => assert_eq!(s.ring, ring_before, "{at}: ring"),
                        Ok((id, _)) => {
                            let j = m.jobs.len();
                            assert_eq!(
                                s.ring.contains(&id),
                                !misses.is_empty(),
                                "{at}: only a job with misses joins the ring"
                            );
                            m.stats.jobs += 1;
                            if !misses.is_empty() {
                                m.ring.push_back(j);
                            }
                            m.jobs.push(ModelJob {
                                id,
                                pending: misses,
                                tally: JobSummary {
                                    cells,
                                    ..JobSummary::default()
                                },
                                rx,
                                seen: Vec::new(),
                                done: false,
                            });
                            // The hits end at admission, in index order;
                            // `check` finds their lines already sent.
                            for _ in (0..cells).filter(hit) {
                                m.settle(j, &cached());
                            }
                        }
                    }
                }
                Op::Pull => {
                    let want = m.pull();
                    let got = s.pull();
                    let got_cell = got.as_ref().map(|(id, task, _)| (id.as_str(), task.index));
                    let want_cell = want.map(|(j, index)| (m.jobs[j].id.as_str(), index));
                    assert_eq!(got_cell, want_cell, "{at}: the model's rotation");
                    if let (Some((id, task, run)), Some((job, index))) = (got, want) {
                        assert_eq!(run, !m.draining, "{at}: run unless draining");
                        if run {
                            flights.push(Flight { job, index });
                        } else {
                            s.settle(&id, event(task.index, CellStatus::Cancelled), Via::Backlog);
                            m.settle(job, &CellStatus::Cancelled);
                        }
                    }
                }
                Op::Settle { pick, outcome } => {
                    if flights.is_empty() {
                        continue;
                    }
                    let flight = flights.swap_remove(pick % flights.len());
                    let sim = vec![("cycles".to_string(), 7)];
                    let status = match outcome {
                        Outcome::Ran => CellStatus::Done { sim, cached: false },
                        Outcome::Cached => CellStatus::Done { sim, cached: true },
                        Outcome::Failed => CellStatus::Failed {
                            error: "boom".to_string(),
                        },
                    };
                    m.settle(flight.job, &status);
                    let id = m.jobs[flight.job].id.clone();
                    s.settle(&id, event(flight.index, status), Via::Worker);
                }
                Op::Cancel { pick } => {
                    let j = pick % (m.jobs.len() + 1);
                    let id = format!("j{}", j + 1);
                    let live = m.jobs.get(j).is_some_and(|j| j.settled() < j.tally.cells);
                    let drained = s.cancel(&id);
                    assert_eq!(drained.is_some(), live, "{at}: only a live job cancels");
                    let Some(drained) = drained else {
                        check(&s, &mut m, &flights, &at);
                        continue;
                    };
                    let job = &mut m.jobs[j];
                    let indices: Vec<usize> = drained.iter().map(|t| t.index).collect();
                    assert!(indices.iter().eq(&job.pending), "{at}: {indices:?}");
                    job.pending.clear();
                    m.ring.retain(|&r| r != j);
                    // The backlog is gone at once, before any cell settles.
                    check(&s, &mut m, &flights, &at);
                    for task in drained {
                        s.settle(&id, event(task.index, CellStatus::Cancelled), Via::Backlog);
                        m.settle(j, &CellStatus::Cancelled);
                    }
                }
                Op::Drain => {
                    s.draining = true;
                    m.draining = true;
                }
            }
            check(&s, &mut m, &flights, &at);
        }
        assert!(s.jobs.is_empty() && flights.is_empty(), "closed out");
        assert!(m.jobs.iter().all(|j| j.done), "every job got its Done");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On failure the shim prints the whole op list: it cannot shrink.
        #[test]
        fn transitions_match_the_model(ops in proptest::collection::vec(op(), 1..61)) {
            run_ops(&ops);
        }
    }
}
