//! Panic-isolated, checkpointable sweep cells, and the one sweep over them.
//!
//! Every figure/table sweep is a grid of independent cells, declared as a
//! `Vec<`[`PanelCell`]`>` and run by [`run_cells`] (Fig. 1 and Fig. 2 through
//! [`run_panel`], which adds the checkpoint store and the series assembly).
//! Before this module, one panicking cell (a simulator bug, a guardrail firing, a
//! poisoned input) unwound through rayon and took the whole grid — and
//! hours of `--full` sweep progress — with it. Now each cell runs under
//! [`isolate`]:
//!
//! * a panic becomes a [`CellFailure`] carrying the cell name and the
//!   panic message; the rest of the grid completes; the driver prints a
//!   failure summary and exits nonzero (see [`exit_if_failed`]);
//! * completed cells can be checkpointed ([`Checkpoint`]) as one small
//!   file per cell, so an interrupted `--full` sweep resumes from the
//!   cells that already finished instead of re-simulating them.
//!
//! Checkpointing is on by default at `--full` scale (under
//! `.archgraph-checkpoints/` in the working directory) and opt-in
//! elsewhere via `ARCHGRAPH_CHECKPOINT_DIR=<dir>` (`off` or the empty
//! string disables it). A sweep that completes with no failures removes
//! its checkpoint directory — stale checkpoints only survive failed or
//! interrupted runs, where they are exactly what makes the re-run cheap.
//!
//! `ARCHGRAPH_BENCH_PANIC_CELL=<cell-name>` makes the named cell panic
//! deliberately — the end-to-end hook the isolation tests and the CI
//! fault leg use to prove a poisoned cell cannot take down a sweep.
//!
//! Reached by: `--bin fig1`, `fig2` and `table1` (`scripts/reproduce_all.sh`) and `archgraphd`'s `submit` op.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use archgraph_core::experiment::Series;
use archgraph_core::RunConfig;

use crate::cells::{CellRun, CellSpec};
use crate::grid::par_map;
use crate::scale::Scale;

/// Environment variable selecting the checkpoint directory (`off` or
/// empty disables checkpointing even at `--full` scale).
pub const CHECKPOINT_ENV: &str = "ARCHGRAPH_CHECKPOINT_DIR";

/// Default checkpoint root used at `--full` scale when the env var is
/// unset.
pub const DEFAULT_CHECKPOINT_DIR: &str = ".archgraph-checkpoints";

/// Environment variable naming one cell that must panic deliberately.
pub const PANIC_CELL_ENV: &str = "ARCHGRAPH_BENCH_PANIC_CELL";

/// Name of the per-directory spec sentinel file. Cell checkpoint files
/// can never collide with it: every real cell name contains a `/`, which
/// [`Checkpoint::path`] sanitizes to `_`.
const SPEC_FILE: &str = ".spec";

/// Suffix of the per-entry recency sidecar (`<file>.stamp`, holding one
/// decimal logical tick).
const STAMP_SUFFIX: &str = ".stamp";

/// One sweep cell that panicked instead of completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Stable cell name (e.g. `fig1/mta/Random/p8/n1048576`).
    pub cell: String,
    /// The panic message.
    pub message: String,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell {} failed: {}", self.cell, self.message)
    }
}

/// Outcome of one isolated cell.
pub type CellOutcome<R> = Result<R, CellFailure>;

/// What a figure sweep keeps from one completed cell: the plotted point
/// plus the verbose log suffix. Small enough to checkpoint as one line.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPoint {
    /// The x-axis value (problem size).
    pub x: usize,
    /// Processor count.
    pub p: usize,
    /// The plotted quantity (simulated seconds, or utilization for
    /// Table 1 cells).
    pub seconds: f64,
    /// Extra verbose-log detail ("util 93%", "12 iters", ...).
    pub log: String,
}

impl CellPoint {
    /// One-line checkpoint payload. Float `Display` is shortest-exact in
    /// Rust, so the round trip through [`Self::decode`] is lossless.
    fn encode(&self) -> String {
        format!("{} {} {}|{}", self.x, self.p, self.seconds, self.log)
    }

    fn decode(s: &str) -> Option<CellPoint> {
        let (nums, log) = s.split_once('|')?;
        let mut it = nums.split_whitespace();
        let x = it.next()?.parse().ok()?;
        let p = it.next()?.parse().ok()?;
        let seconds = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(CellPoint {
            x,
            p,
            seconds,
            log: log.to_string(),
        })
    }
}

/// Per-sweep checkpoint store: one file per completed cell under
/// `<root>/<tag>-<scale>/`.
///
/// Each payload file carries a `<file>.stamp` sidecar holding a
/// monotonic logical recency tick. Recency consumers (the daemon
/// cache's LRU sweep) order by that tick rather than by file mtime:
/// mtimes are coarse on many filesystems, so a burst of touches within
/// one clock tick used to collapse into name order instead of true
/// recency. The tick counter restarts from `max(stamps) + 1` on reopen,
/// so recency survives a daemon restart without consulting the clock.
#[derive(Debug)]
pub struct Checkpoint {
    dir: Option<PathBuf>,
    /// Next logical recency tick (see the struct docs).
    clock: std::sync::atomic::AtomicU64,
}

impl Checkpoint {
    /// The checkpoint store for a named sweep at a given scale: the env
    /// var's directory if set, the default directory at `--full` scale,
    /// disabled otherwise.
    pub fn for_sweep(tag: &str, scale: Scale) -> Checkpoint {
        let root = match std::env::var(CHECKPOINT_ENV) {
            Ok(v) if v.is_empty() || v == "off" => None,
            Ok(v) => Some(PathBuf::from(v)),
            Err(_) if scale == Scale::Full => Some(PathBuf::from(DEFAULT_CHECKPOINT_DIR)),
            Err(_) => None,
        };
        match root {
            Some(root) => Checkpoint::at(root.join(format!("{tag}-{scale:?}").to_lowercase())),
            None => Checkpoint::disabled(),
        }
    }

    /// A store rooted at an explicit directory (tests; resume tooling),
    /// stamped with the run scope in force ([`RunConfig::current`]).
    /// Checkpoints are only resumable under the configuration that
    /// produced them: a sweep re-run under a different fault plan or cycle
    /// budget would silently splice incompatible cells into one panel if
    /// stale checkpoints were honoured. Scale is not in the stamp — it is
    /// already part of the directory name.
    pub fn at(dir: PathBuf) -> Checkpoint {
        Checkpoint::at_spec(dir, &format!("v3 {}", RunConfig::current()))
    }

    /// [`Checkpoint::at`] with an explicit spec fingerprint. Opening a
    /// directory whose recorded spec differs discards every checkpoint in
    /// it — resuming cells simulated under another configuration would
    /// corrupt the sweep — and re-stamps it with the current spec.
    pub fn at_spec(dir: PathBuf, spec: &str) -> Checkpoint {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!(
                "warning: cannot create checkpoint dir {}: {e}; checkpointing disabled",
                dir.display()
            );
            return Checkpoint::disabled();
        }
        let spec_path = dir.join(SPEC_FILE);
        match std::fs::read_to_string(&spec_path) {
            Ok(recorded) if recorded == spec => {}
            Ok(recorded) => {
                eprintln!(
                    "note: checkpoints in {} were recorded under a different \
                     configuration ({recorded:?} vs {spec:?}); discarding them",
                    dir.display()
                );
                let _ = std::fs::remove_dir_all(&dir);
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!(
                        "warning: cannot recreate checkpoint dir {}: {e}; \
                         checkpointing disabled",
                        dir.display()
                    );
                    return Checkpoint::disabled();
                }
            }
            Err(_) => {
                // Fresh (or pre-spec) directory. A pre-spec directory with
                // existing cells cannot be trusted either: without a stamp
                // there is no way to tell what produced them.
                let stale = std::fs::read_dir(&dir)
                    .map(|mut d| d.next().is_some())
                    .unwrap_or(false);
                if stale {
                    eprintln!(
                        "note: checkpoints in {} carry no configuration stamp; \
                         discarding them",
                        dir.display()
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                    if std::fs::create_dir_all(&dir).is_err() {
                        return Checkpoint::disabled();
                    }
                }
            }
        }
        if let Err(e) = std::fs::write(&spec_path, spec) {
            eprintln!(
                "warning: cannot stamp checkpoint dir {}: {e}; checkpointing disabled",
                dir.display()
            );
            return Checkpoint::disabled();
        }
        // Resume the logical recency clock past every stamp already on
        // disk, so entries recorded after a reopen are newer than every
        // survivor — without this, a restarted daemon's first records
        // would tie at zero and evict by name.
        let mut next = 0u64;
        if let Ok(rd) = std::fs::read_dir(&dir) {
            for entry in rd.flatten() {
                let name = entry.file_name();
                if name.to_string_lossy().ends_with(STAMP_SUFFIX) {
                    if let Some(t) = std::fs::read_to_string(entry.path())
                        .ok()
                        .and_then(|s| s.trim().parse::<u64>().ok())
                    {
                        next = next.max(t);
                    }
                }
            }
        }
        Checkpoint {
            dir: Some(dir),
            clock: std::sync::atomic::AtomicU64::new(next.saturating_add(1)),
        }
    }

    /// A store that never records anything.
    pub fn disabled() -> Checkpoint {
        Checkpoint {
            dir: None,
            clock: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Is this store actually writing checkpoints?
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    fn path(&self, cell: &str) -> Option<PathBuf> {
        let file: String = cell
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.dir.as_ref().map(|d| d.join(file))
    }

    /// The recorded payload for `cell`, if a prior run completed it.
    pub fn lookup(&self, cell: &str) -> Option<String> {
        std::fs::read_to_string(self.path(cell)?).ok()
    }

    /// Record `cell` as completed. Best-effort: a full disk degrades to a
    /// non-resumable sweep, it must not fail the run.
    ///
    /// The write is atomic (temp file in the same directory, then
    /// rename): a signal or crash landing mid-write can therefore never
    /// leave a torn checkpoint that a resume would silently discard —
    /// either the old state or the complete new cell is on disk.
    pub fn record(&self, cell: &str, payload: &str) {
        let Some(p) = self.path(cell) else { return };
        let mut tmp_name = p.as_os_str().to_os_string();
        tmp_name.push(".inflight");
        let tmp = PathBuf::from(tmp_name);
        let write_and_rename =
            std::fs::write(&tmp, payload).and_then(|()| std::fs::rename(&tmp, &p));
        match write_and_rename {
            Ok(()) => self.write_stamp(&p),
            Err(e) => {
                eprintln!("warning: cannot write checkpoint {}: {e}", p.display());
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    /// Refresh the recency stamp of an existing entry without rewriting
    /// its payload — the "recently used" half of an LRU bound. Returns
    /// whether the entry exists.
    pub fn touch(&self, cell: &str) -> bool {
        let Some(p) = self.path(cell) else {
            return false;
        };
        if !p.is_file() {
            return false;
        }
        self.write_stamp(&p);
        true
    }

    /// Write a fresh logical tick into `<payload>.stamp`. Best-effort,
    /// like payload writes; atomic for the same reason (a torn stamp
    /// would silently demote the entry to eviction candidate #1 — see
    /// [`Checkpoint::entries`], which skips stampless entries instead).
    fn write_stamp(&self, payload_path: &std::path::Path) {
        let tick = self
            .clock
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut name = payload_path.as_os_str().to_os_string();
        name.push(STAMP_SUFFIX);
        let stamp = PathBuf::from(name);
        let mut tmp_name = stamp.as_os_str().to_os_string();
        tmp_name.push(".inflight");
        let tmp = PathBuf::from(tmp_name);
        let write_and_rename =
            std::fs::write(&tmp, tick.to_string()).and_then(|()| std::fs::rename(&tmp, &stamp));
        if let Err(e) = write_and_rename {
            eprintln!(
                "warning: cannot write recency stamp {}: {e}",
                stamp.display()
            );
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Remove the sweep's checkpoint directory (call after a fully clean
    /// completion — a finished sweep has nothing to resume).
    pub fn clear(&self) {
        if let Some(d) = &self.dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// Enumerate the stored entries: sanitized name, payload size, and
    /// recency stamp. The `.spec` sentinel, stamp sidecars, and in-flight
    /// temp files are not entries. Consumers that bound the store (the
    /// daemon's `--cache-max-bytes` LRU sweep) sort by stamp. An entry
    /// whose metadata or stamp cannot be read is skipped **with a
    /// warning** rather than listed with a zero stamp: a zero would
    /// silently make it eviction candidate #1, while skipping merely
    /// defers it until the next touch re-stamps it.
    pub fn entries(&self) -> Vec<CheckpointEntry> {
        let Some(dir) = &self.dir else {
            return Vec::new();
        };
        let Ok(rd) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in rd.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == SPEC_FILE || name.ends_with(".inflight") || name.ends_with(STAMP_SUFFIX) {
                continue;
            }
            let Ok(meta) = entry.metadata() else {
                eprintln!("warning: checkpoint entry {name} has unreadable metadata; skipping");
                continue;
            };
            if !meta.is_file() {
                continue;
            }
            let mut stamp_name = entry.path().into_os_string();
            stamp_name.push(STAMP_SUFFIX);
            let Some(stamp) = std::fs::read_to_string(PathBuf::from(stamp_name))
                .ok()
                .and_then(|s| s.trim().parse::<u64>().ok())
            else {
                eprintln!(
                    "warning: checkpoint entry {name} has no readable recency stamp; \
                     skipping until it is touched or re-recorded"
                );
                continue;
            };
            out.push(CheckpointEntry {
                name,
                bytes: meta.len(),
                stamp,
            });
        }
        out
    }

    /// Remove one recorded entry by its (possibly unsanitized) cell name.
    /// Returns whether a file was actually removed — concurrent sweepers
    /// may race for the same entry, and only one of them wins.
    pub fn remove(&self, cell: &str) -> bool {
        match self.path(cell) {
            Some(p) => {
                let removed = std::fs::remove_file(&p).is_ok();
                let mut stamp_name = p.into_os_string();
                stamp_name.push(STAMP_SUFFIX);
                let _ = std::fs::remove_file(PathBuf::from(stamp_name));
                removed
            }
            None => false,
        }
    }
}

/// One stored checkpoint entry, as listed by [`Checkpoint::entries`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// Sanitized file name — for content-addressed consumers (the daemon
    /// cache) this is the cache key itself, which `Checkpoint::path`
    /// sanitizes to itself.
    pub name: String,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Logical recency tick from the entry's sidecar. Recording,
    /// re-recording, or touching an entry refreshes it, which is what
    /// makes a stamp sweep LRU rather than insertion-order FIFO — and
    /// unlike a file mtime it advances on every touch even within one
    /// filesystem clock tick.
    pub stamp: u64,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Run one cell with panic isolation: a panic inside `f` (or the
/// deliberate one injected via [`PANIC_CELL_ENV`]) becomes a
/// [`CellFailure`] instead of unwinding through the grid.
pub fn isolate<R>(cell: &str, f: impl FnOnce() -> R) -> CellOutcome<R> {
    catch_unwind(AssertUnwindSafe(|| {
        if std::env::var(PANIC_CELL_ENV).as_deref() == Ok(cell) {
            panic!("deliberate panic injected via {PANIC_CELL_ENV}");
        }
        f()
    }))
    .map_err(|payload| CellFailure {
        cell: cell.to_string(),
        message: panic_message(payload.as_ref()),
    })
}

/// [`isolate`] plus checkpointing for point-shaped cells: a cell already
/// recorded by an interrupted run is restored without re-simulating.
///
/// This is also the drivers' graceful-shutdown flush point: when a
/// SIGTERM/SIGINT arrived (and the driver installed the
/// [`crate::signals`] handlers), the in-progress cell completes, its
/// checkpoint is recorded, and the process exits — so a killed `--full`
/// sweep resumes from every cell that finished, losing none.
fn point_cell(
    ck: &Checkpoint,
    cell: &str,
    f: impl FnOnce() -> CellPoint,
) -> CellOutcome<CellPoint> {
    if let Some(payload) = ck.lookup(cell) {
        if let Some(pt) = CellPoint::decode(&payload) {
            crate::signals::exit_if_pending();
            return Ok(pt);
        }
    }
    crate::signals::exit_if_pending();
    let pt = isolate(cell, f)?;
    ck.record(cell, &pt.encode());
    crate::signals::exit_if_pending();
    Ok(pt)
}

/// One cell of a figure panel or table: what to run and where its point
/// lands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanelCell {
    /// Series (Table 1: row) label the point belongs to.
    pub label: String,
    /// Stable cell name (e.g. `fig1/mta/Random/p8/n1048576`): the
    /// checkpoint file, the failure report and what [`PANIC_CELL_ENV`]
    /// addresses.
    pub name: String,
    /// The x-axis value (Table 1: the row index).
    pub x: usize,
    /// What to run.
    pub spec: CellSpec,
}

/// Run every cell across host cores, in cell order, each panic-isolated
/// and checkpointed (`point_cell`) — the one loop every sweep goes through.
/// `y` picks what is plotted, and the log detail that goes with it, out of
/// the cell's [`CellRun`]: seconds for the figures, utilization for Table 1.
pub fn run_cells(
    ck: &Checkpoint,
    cells: &[PanelCell],
    y: impl Fn(CellRun) -> (f64, String) + Sync,
) -> Vec<CellOutcome<CellPoint>> {
    par_map(cells, |cell| {
        point_cell(ck, &cell.name, || {
            let (seconds, log) = y(cell.spec.run_full());
            CellPoint {
                x: cell.x,
                p: cell.spec.p,
                seconds,
                log,
            }
        })
    })
}

/// One figure panel's isolated sweep: the assembled series plus any cell
/// failures (empty on a clean run).
#[derive(Debug)]
pub struct PanelSweep {
    /// Series assembled from the cells that completed, in cell order.
    pub series: Vec<Series>,
    /// Cells that panicked, in cell order.
    pub failures: Vec<CellFailure>,
}

impl PanelSweep {
    /// The series of a sweep that must have been clean. Panics if any cell
    /// failed; drivers that want to keep going read `failures` instead.
    pub fn into_series(self) -> Vec<Series> {
        if let Some(f) = self.failures.first() {
            panic!("{f}");
        }
        self.series
    }
}

/// Sweep one figure panel for simulated seconds: every cell panic-isolated
/// and checkpointed for resume under `<tag>-<scale>` (on at `--full`
/// scale), series assembled from the cells that completed.
pub fn run_panel(tag: &str, scale: Scale, cells: Vec<PanelCell>, verbose: bool) -> PanelSweep {
    let ck = Checkpoint::for_sweep(tag, scale);
    let outs = run_cells(&ck, &cells, |run| (run.seconds, run.log));
    assemble_panel(cells, outs, verbose, &ck)
}

/// Assemble per-cell outcomes into series. Consecutive cells sharing a
/// label land in the same series (cell grids are label-major), and failed
/// cells are skipped with a log line. A fully clean sweep clears its
/// checkpoints.
fn assemble_panel(
    cells: Vec<PanelCell>,
    outs: Vec<CellOutcome<CellPoint>>,
    verbose: bool,
    ck: &Checkpoint,
) -> PanelSweep {
    assert_eq!(cells.len(), outs.len(), "one outcome per cell");
    let mut series: Vec<Series> = Vec::new();
    let mut failures = Vec::new();
    for (PanelCell { label, name, .. }, out) in cells.into_iter().zip(outs) {
        if series.last().map(|s| s.label.as_str()) != Some(label.as_str()) {
            series.push(Series::new(label));
        }
        match out {
            Ok(pt) => {
                if verbose {
                    eprintln!("  {name}: {:.4} s ({})", pt.seconds, pt.log);
                }
                series
                    .last_mut()
                    .expect("a series was pushed above")
                    .push(pt.x, pt.p, pt.seconds);
            }
            Err(f) => {
                eprintln!("  {f}");
                failures.push(f);
            }
        }
    }
    if failures.is_empty() {
        ck.clear();
    }
    PanelSweep { series, failures }
}

/// Print a failure summary and exit 1 if any cell failed. Exit code 1 is
/// a runtime failure, distinct from the CLI's usage errors (2).
pub fn exit_if_failed(what: &str, failures: &[CellFailure]) {
    if failures.is_empty() {
        return;
    }
    eprintln!("{what}: {} cell(s) failed:", failures.len());
    for f in failures {
        eprintln!("  {f}");
    }
    eprintln!("{what}: completed cells are checkpointed where enabled; rerun to resume");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_store(name: &str) -> Checkpoint {
        let dir = std::env::temp_dir().join(format!(
            "archgraph-sweep-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Checkpoint::at(dir)
    }

    #[test]
    fn point_roundtrip_is_exact() {
        let pt = CellPoint {
            x: 1 << 20,
            p: 8,
            seconds: 0.12345678901234568,
            log: "util 93%, 12 iters".to_string(),
        };
        assert_eq!(CellPoint::decode(&pt.encode()), Some(pt));
        let empty_log = CellPoint {
            x: 3,
            p: 1,
            seconds: 2.5e-9,
            log: String::new(),
        };
        assert_eq!(CellPoint::decode(&empty_log.encode()), Some(empty_log));
        assert_eq!(CellPoint::decode("garbage"), None);
        assert_eq!(CellPoint::decode("1 2|x"), None);
        assert_eq!(CellPoint::decode("1 2 3 4|x"), None);
    }

    #[test]
    fn isolate_converts_panics_to_failures() {
        let ok = isolate("cell/ok", || 7);
        assert_eq!(ok, Ok(7));
        let err = isolate("cell/bad", || -> i32 { panic!("boom {}", 42) })
            .expect_err("panicking cell must fail");
        assert_eq!(err.cell, "cell/bad");
        assert_eq!(err.message, "boom 42");
    }

    #[test]
    fn checkpoint_restores_without_rerunning() {
        let ck = temp_store("restore");
        let runs = AtomicUsize::new(0);
        let cell = || {
            runs.fetch_add(1, Ordering::SeqCst);
            CellPoint {
                x: 10,
                p: 2,
                seconds: 1.5,
                log: "hi".into(),
            }
        };
        let first = point_cell(&ck, "a/b", cell).expect("cell completes");
        let second = point_cell(&ck, "a/b", cell).expect("cell restores");
        assert_eq!(first, second);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "second call restored");
        ck.clear();
        let third = point_cell(&ck, "a/b", cell).expect("cell reruns");
        assert_eq!(third, first);
        assert_eq!(runs.load(Ordering::SeqCst), 2, "clear() forgot the cell");
        ck.clear();
    }

    #[test]
    fn record_is_atomic_and_leaves_no_temp_files() {
        let ck = temp_store("atomic");
        ck.record("a/b", "1 2 3|ok");
        let dir = ck.dir.as_ref().expect("store enabled");
        let names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !n.ends_with(".inflight")),
            "temp file left behind: {names:?}"
        );
        // Overwrite through the same rename path; payload fully replaced.
        ck.record("a/b", "4 5 6|new");
        assert_eq!(ck.lookup("a/b"), Some("4 5 6|new".to_string()));
        ck.clear();
    }

    #[test]
    fn failed_cells_are_not_checkpointed() {
        let ck = temp_store("failed");
        let out = point_cell(&ck, "bad", || panic!("nope"));
        assert!(out.is_err());
        assert!(ck.lookup("bad").is_none(), "failures must rerun on resume");
        ck.clear();
    }

    #[test]
    fn matching_spec_resumes_and_mismatched_spec_discards() {
        let dir =
            std::env::temp_dir().join(format!("archgraph-sweep-test-{}-spec", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let ck = Checkpoint::at_spec(dir.clone(), "v2 faults=");
        ck.record("fig/x/p1", "1 2 3|ok");
        drop(ck);

        // Same spec: the checkpoint survives a reopen.
        let same = Checkpoint::at_spec(dir.clone(), "v2 faults=");
        assert_eq!(same.lookup("fig/x/p1"), Some("1 2 3|ok".to_string()));
        drop(same);

        // Different spec: reopening discards every recorded cell and
        // re-stamps the directory for the new configuration.
        let other = Checkpoint::at_spec(dir.clone(), "v2 faults=stall=30:7");
        assert_eq!(
            other.lookup("fig/x/p1"),
            None,
            "cells from another configuration must not resume"
        );
        other.record("fig/x/p1", "4 5 6|new");
        drop(other);

        // And the new stamp holds: the re-recorded cell resumes under the
        // new spec but not under the old one.
        let reopened = Checkpoint::at_spec(dir.clone(), "v2 faults=stall=30:7");
        assert_eq!(reopened.lookup("fig/x/p1"), Some("4 5 6|new".to_string()));
        drop(reopened);
        let old_again = Checkpoint::at_spec(dir.clone(), "v2 faults=");
        assert_eq!(old_again.lookup("fig/x/p1"), None);
        old_again.clear();
    }

    /// `Checkpoint::at` stamps the run scope, not the environment: cells
    /// recorded under a scoped plan do not resume in a clean run.
    #[test]
    fn checkpoint_stamp_follows_the_run_scope() {
        let dir =
            std::env::temp_dir().join(format!("archgraph-sweep-test-{}-scope", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = archgraph_core::FaultPlan::parse("stall=30:7").unwrap();
        archgraph_core::with_fault_plan(Some(plan.clone()), || {
            Checkpoint::at(dir.clone()).record("fig/x/p1", "1 2 3|stalled");
        });
        let resumed = archgraph_core::with_fault_plan(Some(plan), || {
            Checkpoint::at(dir.clone()).lookup("fig/x/p1")
        });
        assert_eq!(
            resumed.as_deref(),
            Some("1 2 3|stalled"),
            "same scope resumes"
        );
        let clean = Checkpoint::at(dir);
        assert_eq!(clean.lookup("fig/x/p1"), None, "a clean run re-simulates");
        clean.clear();
    }

    #[test]
    fn unstamped_directories_are_not_trusted() {
        // Pre-spec checkpoint dirs have cells but no stamp; they must be
        // discarded, not resumed blind.
        let dir = std::env::temp_dir().join(format!(
            "archgraph-sweep-test-{}-unstamped",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("fig_x_p1"), "1 2 3|legacy").unwrap();

        let ck = Checkpoint::at_spec(dir, "v2 faults=");
        assert_eq!(ck.lookup("fig/x/p1"), None, "unstamped cells discarded");
        ck.clear();
    }

    #[test]
    fn point_cell_ignores_checkpoints_from_other_specs() {
        let dir = std::env::temp_dir().join(format!(
            "archgraph-sweep-test-{}-pointspec",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let make_pt = |s: f64| CellPoint {
            x: 1,
            p: 1,
            seconds: s,
            log: String::new(),
        };

        let ck = Checkpoint::at_spec(dir.clone(), "spec-a");
        let first = point_cell(&ck, "cell", || make_pt(1.0)).unwrap();
        assert_eq!(first.seconds, 1.0);
        drop(ck);

        let ck = Checkpoint::at_spec(dir, "spec-b");
        let second = point_cell(&ck, "cell", || make_pt(2.0)).unwrap();
        assert_eq!(
            second.seconds, 2.0,
            "must re-run, not restore spec-a's point"
        );
        ck.clear();
    }

    #[test]
    fn disabled_store_records_nothing() {
        let ck = Checkpoint::disabled();
        assert!(!ck.enabled());
        ck.record("x", "1 2 3|");
        assert_eq!(ck.lookup("x"), None);
        assert!(ck.entries().is_empty());
        assert!(!ck.remove("x"));
    }

    #[test]
    fn entries_enumerate_payload_files_only() {
        let ck = temp_store("entries");
        assert!(ck.entries().is_empty(), "fresh store has no entries");
        ck.record("fig/a/p1", "1 2 3|one");
        ck.record("deadbeef00000000", "v1 ok cycles=9");
        let mut entries = ck.entries();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(entries.len(), 2, "the .spec sentinel is not an entry");
        assert_eq!(entries[0].name, "deadbeef00000000");
        assert_eq!(entries[0].bytes, "v1 ok cycles=9".len() as u64);
        assert_eq!(entries[1].name, "fig_a_p1", "names come back sanitized");
        assert_eq!(entries[1].bytes, "1 2 3|one".len() as u64);
        ck.clear();
    }

    #[test]
    fn remove_deletes_exactly_one_entry() {
        let ck = temp_store("remove");
        ck.record("a/b", "1 1 1|x");
        ck.record("c/d", "2 2 2|y");
        assert!(ck.remove("a/b"), "present entry removes");
        assert!(!ck.remove("a/b"), "second removal finds nothing");
        assert_eq!(ck.lookup("a/b"), None);
        assert_eq!(ck.lookup("c/d"), Some("2 2 2|y".to_string()));
        // Sanitized and unsanitized spellings address the same file.
        assert!(ck.remove("c_d"));
        assert_eq!(ck.entries().len(), 0);
        ck.clear();
    }

    /// No sleeps, no clock: the logical stamp strictly advances on every
    /// record and touch, even when all of them land within one filesystem
    /// mtime tick (the failure mode of the old mtime-ordered LRU).
    #[test]
    fn rerecording_and_touching_refresh_the_entry_stamp() {
        let ck = temp_store("touch");
        ck.record("old", "1 1 1|");
        let first = ck.entries().remove(0).stamp;
        ck.record("old", "1 1 1|");
        let second = ck.entries().remove(0).stamp;
        assert!(second > first, "re-record must advance the stamp");
        assert!(ck.touch("old"), "touch finds the entry");
        let third = ck.entries().remove(0).stamp;
        assert!(third > second, "touch must advance the stamp");
        assert_eq!(
            ck.lookup("old"),
            Some("1 1 1|".to_string()),
            "touch leaves the payload alone"
        );
        assert!(!ck.touch("absent"), "touch refuses to invent entries");
        ck.clear();
    }

    /// The recency clock survives a reopen: entries recorded by the new
    /// handle stamp strictly newer than every survivor on disk.
    #[test]
    fn recency_clock_resumes_past_surviving_stamps() {
        let dir = std::env::temp_dir().join(format!(
            "archgraph-sweep-test-{}-clock-resume",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = Checkpoint::at(dir.clone());
        ck.record("a", "1 1 1|");
        ck.record("b", "2 2 2|");
        let old_max = ck.entries().iter().map(|e| e.stamp).max().unwrap();
        drop(ck);
        let reopened = Checkpoint::at(dir.clone());
        reopened.record("c", "3 3 3|");
        let c = reopened
            .entries()
            .into_iter()
            .find(|e| e.name == "c")
            .unwrap();
        assert!(
            c.stamp > old_max,
            "post-reopen records must be newer than every survivor \
             ({} <= {old_max})",
            c.stamp
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// An entry whose recency stamp is missing (torn write, manual
    /// tampering) is skipped by `entries` — listing it with stamp 0 would
    /// silently make it the first eviction victim. It comes back once
    /// re-recorded.
    #[test]
    fn stampless_entries_are_skipped_not_first_victims() {
        let ck = temp_store("stampless");
        ck.record("keep", "1 1 1|");
        ck.record("bare", "2 2 2|");
        assert_eq!(ck.entries().len(), 2);
        // Sever `bare`'s sidecar, as a crash between the two renames would.
        let dir = std::env::temp_dir().join(format!(
            "archgraph-sweep-test-{}-stampless",
            std::process::id()
        ));
        std::fs::remove_file(dir.join("bare.stamp")).expect("stamp sidecar exists");
        let listed = ck.entries();
        assert_eq!(listed.len(), 1, "the stampless entry is not listed");
        assert_eq!(listed[0].name, "keep");
        assert_eq!(
            ck.lookup("bare"),
            Some("2 2 2|".to_string()),
            "the payload itself is still served"
        );
        ck.record("bare", "2 2 2|");
        assert_eq!(ck.entries().len(), 2, "re-recording restores the entry");
        ck.clear();
    }

    #[test]
    fn assemble_groups_by_label_and_collects_failures() {
        let ck = Checkpoint::disabled();
        let cell = |label: &str, name: &str| PanelCell {
            label: label.to_string(),
            name: name.to_string(),
            x: 1,
            spec: CellSpec::new(crate::Kernel::Fig2, crate::MachineKind::Mta, 1),
        };
        let cells = vec![
            cell("A p=1", "fig/a/p1/n1"),
            cell("A p=1", "fig/a/p1/n2"),
            cell("A p=2", "fig/a/p2/n1"),
        ];
        let outs = vec![
            Ok(CellPoint {
                x: 1,
                p: 1,
                seconds: 0.1,
                log: String::new(),
            }),
            Err(CellFailure {
                cell: "fig/a/p1/n2".into(),
                message: "boom".into(),
            }),
            Ok(CellPoint {
                x: 1,
                p: 2,
                seconds: 0.2,
                log: String::new(),
            }),
        ];
        let sw = assemble_panel(cells, outs, false, &ck);
        assert_eq!(sw.series.len(), 2);
        assert_eq!(sw.series[0].points.len(), 1, "failed point skipped");
        assert_eq!(sw.series[1].points.len(), 1);
        assert_eq!(sw.failures.len(), 1);
        assert_eq!(sw.failures[0].cell, "fig/a/p1/n2");
    }
}
