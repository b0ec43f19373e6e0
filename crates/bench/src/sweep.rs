//! Panic-isolated, checkpointable sweep cells, and the one sweep over them.
//!
//! Every figure/table sweep is a grid of independent cells, declared as a
//! `Vec<`[`PanelCell`]`>` and run by [`run_cells`] (Fig. 1, Fig. 2 and
//! Table 1 through [`run_panel`], which adds the checkpoint store and the
//! series assembly). Every cell, `--bin calibrate`'s eight runs included,
//! runs and is recorded through [`point_cell`] as one [`CellPoint`].
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
//! its checkpoint directory under the default root — stale checkpoints
//! only survive failed or interrupted runs, where they are exactly what
//! makes the re-run cheap. A root named through the variable is its
//! namer's to remove: a clean sweep leaves its cells there, so a later
//! binary of the same run that sweeps the same cells resumes them
//! (`scripts/reproduce_all.sh` runs `fig1`, `fig2`, `table1` and then
//! `all` over one run-scoped root, and removes it).
//!
//! `ARCHGRAPH_BENCH_PANIC_CELL=<cell-name>` makes the named cell panic
//! deliberately — the end-to-end hook the isolation tests and the CI
//! fault leg use to prove a poisoned cell cannot take down a sweep.
//!
//! Reached by: `--bin fig1`, `fig2`, `table1`, `all` and `calibrate` (`scripts/reproduce_all.sh`) and `archgraphd`'s `submit` op.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use archgraph_core::experiment::Series;
use archgraph_core::RunConfig;

use crate::cells::CellSpec;
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

/// What a sweep keeps from one completed cell: both of its readings plus
/// the per-cell log suffix. Small enough to checkpoint as one line.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPoint {
    /// The x-axis value (problem size).
    pub x: usize,
    /// Processor count.
    pub p: usize,
    /// Simulated seconds.
    pub seconds: f64,
    /// MTA processor utilization in `0..=1` (0 off the MTA).
    pub utilization: f64,
    /// Extra per-cell log detail ("util 93%", "12 iters", ...).
    pub log: String,
}

impl CellPoint {
    /// One-line checkpoint payload. Float `Display` is shortest-exact in
    /// Rust, so the round trip through [`Self::decode`] is lossless.
    fn encode(&self) -> String {
        let CellPoint {
            x,
            p,
            seconds,
            utilization,
            log,
        } = self;
        format!("{x} {p} {seconds} {utilization}|{log}")
    }

    fn decode(s: &str) -> Option<CellPoint> {
        let (nums, log) = s.split_once('|')?;
        let mut it = nums.split_whitespace();
        let x = it.next()?.parse().ok()?;
        let p = it.next()?.parse().ok()?;
        let seconds = it.next()?.parse().ok()?;
        let utilization = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(CellPoint {
            x,
            p,
            seconds,
            utilization,
            log: log.to_string(),
        })
    }
}

/// Per-sweep checkpoint store: one file per completed cell under
/// `<root>/<tag>-<scale>/`, and a `.spec` sentinel naming the
/// configuration the cells were recorded under. `archgraphd`'s result
/// cache is the same store, keyed by content address.
#[derive(Debug)]
pub struct Checkpoint {
    dir: Option<PathBuf>,
    /// Under a root named by [`CHECKPOINT_ENV`], which [`Checkpoint::finish`]
    /// leaves to its namer.
    named: bool,
}

impl Checkpoint {
    /// The checkpoint store for a named sweep at a given scale: the env
    /// var's directory if set, the default directory at `--full` scale,
    /// disabled otherwise.
    pub fn for_sweep(tag: &str, scale: Scale) -> Checkpoint {
        let (root, named) = match std::env::var(CHECKPOINT_ENV) {
            Ok(v) if v.is_empty() || v == "off" => (None, false),
            Ok(v) => (Some(PathBuf::from(v)), true),
            Err(_) if scale == Scale::Full => (Some(PathBuf::from(DEFAULT_CHECKPOINT_DIR)), false),
            Err(_) => (None, false),
        };
        match root {
            Some(root) => Checkpoint {
                named,
                ..Checkpoint::at(root.join(format!("{tag}-{scale:?}").to_lowercase()))
            },
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
        Checkpoint::at_spec(dir, &format!("v4 {}", RunConfig::current()))
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
        Checkpoint {
            dir: Some(dir),
            named: false,
        }
    }

    /// A store that never records anything.
    pub fn disabled() -> Checkpoint {
        Checkpoint {
            dir: None,
            named: false,
        }
    }

    /// Is this store actually writing checkpoints?
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// `cell`'s file: the name with every character outside
    /// `[A-Za-z0-9.-]` replaced by `_`, under the store's directory. A name
    /// with none to replace (every cache key) is copied as it is.
    fn path(&self, cell: &str) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let keep = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '.';
        let mut path = PathBuf::with_capacity(dir.as_os_str().len() + 1 + cell.len());
        path.push(dir);
        if cell.chars().all(keep) {
            path.push(cell);
        } else {
            let file: String = cell
                .chars()
                .map(|c| if keep(c) { c } else { '_' })
                .collect();
            path.push(file);
        }
        Some(path)
    }

    /// The recorded payload for `cell`, if a prior run completed it.
    pub fn lookup(&self, cell: &str) -> Option<String> {
        self.lookup_with(cell, |payload| Some(payload.to_string()))
    }

    /// [`Checkpoint::lookup`] handed to `decode` without an owned copy: a
    /// payload of up to 1 KiB is read into a stack buffer, with no size
    /// query first and no heap buffer. A hit is an open, a read, the read
    /// that finds the end (a short read alone does not prove it), and a
    /// close.
    pub fn lookup_with<R>(&self, cell: &str, decode: impl FnOnce(&str) -> Option<R>) -> Option<R> {
        use std::io::Read;
        let mut file = std::fs::File::open(self.path(cell)?).ok()?;
        let mut buf = [0u8; 1024];
        let mut len = 0;
        while len < buf.len() {
            match file.read(&mut buf[len..]) {
                Ok(0) => return decode(std::str::from_utf8(&buf[..len]).ok()?),
                Ok(n) => len += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        let mut all = buf.to_vec();
        file.read_to_end(&mut all).ok()?;
        decode(std::str::from_utf8(&all).ok()?)
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
        if let Err(e) = write_and_rename {
            eprintln!("warning: cannot write checkpoint {}: {e}", p.display());
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// A sweep whose every cell completed is done with its store: remove
    /// it, unless its root was named through [`CHECKPOINT_ENV`] — then the
    /// namer removes it, and may first resume these cells in another
    /// binary of the same run.
    pub fn finish(&self) {
        if !self.named {
            self.clear();
        }
    }

    /// Remove the sweep's checkpoint directory.
    pub fn clear(&self) {
        if let Some(d) = &self.dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// How many cells the store holds, and their total payload bytes,
    /// from one directory listing. The `.spec` sentinel and in-flight
    /// temp files are not cells.
    pub fn entries(&self) -> (usize, u64) {
        let Some(Ok(rd)) = self.dir.as_ref().map(std::fs::read_dir) else {
            return (0, 0);
        };
        let (mut count, mut bytes) = (0, 0);
        for entry in rd.flatten() {
            let name = entry.file_name();
            if name == SPEC_FILE || name.to_string_lossy().ends_with(".inflight") {
                continue;
            }
            if let Some(meta) = entry.metadata().ok().filter(|m| m.is_file()) {
                count += 1;
                bytes += meta.len();
            }
        }
        (count, bytes)
    }
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

/// [`isolate`] plus checkpointing: the one way a sweep cell runs and is
/// recorded. A cell already recorded by an interrupted run is restored
/// without re-simulating. [`run_cells`] calls it for every declared cell;
/// `--bin calibrate` calls it for each of its own eight runs.
///
/// This is also the drivers' graceful-shutdown flush point: when a
/// SIGTERM/SIGINT arrived (and the driver installed the
/// [`crate::signals`] handlers), the in-progress cell completes, its
/// checkpoint is recorded, and the process exits — so a killed `--full`
/// sweep resumes from every cell that finished, losing none.
pub fn point_cell(
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
    /// The x-axis value (problem size).
    pub x: usize,
    /// What to run.
    pub spec: CellSpec,
}

/// Run every cell across host cores, in cell order, each through
/// [`point_cell`] — the one loop every sweep goes through. Each point keeps
/// both readings of its [`CellSpec::run_full`]; the caller reads the one it
/// plots.
pub fn run_cells(ck: &Checkpoint, cells: &[PanelCell]) -> Vec<CellOutcome<CellPoint>> {
    par_map(cells, |cell| {
        point_cell(ck, &cell.name, || {
            let run = cell.spec.run_full();
            CellPoint {
                x: cell.x,
                p: cell.spec.p,
                seconds: run.seconds,
                utilization: run.utilization,
                log: run.log,
            }
        })
    })
}

/// One panel's isolated sweep: the assembled series plus any cell
/// failures (empty on a clean run).
#[derive(Debug)]
pub struct PanelSweep {
    /// Series assembled from the cells that completed, in cell order.
    pub series: Vec<Series>,
    /// Cells that panicked, in cell order.
    pub failures: Vec<CellFailure>,
}

/// Sweep one panel (a figure's machine, or Table 1): every cell
/// panic-isolated and checkpointed for resume under `<tag>-<scale>` (on at
/// `--full` scale), series of `value` (seconds for the figures, utilization
/// for Table 1) assembled from the cells that completed.
pub fn run_panel(
    tag: &str,
    scale: Scale,
    cells: Vec<PanelCell>,
    value: fn(&CellPoint) -> f64,
) -> PanelSweep {
    let ck = Checkpoint::for_sweep(tag, scale);
    let outs = run_cells(&ck, &cells);
    assemble_panel(cells, outs, value, &ck)
}

/// Assemble per-cell outcomes into series of `value`. Consecutive cells
/// sharing a label land in the same series (cell grids are label-major),
/// and failed cells are skipped with a log line. A fully clean sweep is
/// done with its checkpoints ([`Checkpoint::finish`]).
fn assemble_panel(
    cells: Vec<PanelCell>,
    outs: Vec<CellOutcome<CellPoint>>,
    value: fn(&CellPoint) -> f64,
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
                eprintln!("  {name}: {:.4} s ({})", pt.seconds, pt.log);
                series
                    .last_mut()
                    .expect("a series was pushed above")
                    .push(pt.x, pt.p, value(&pt));
            }
            Err(f) => {
                eprintln!("  {f}");
                failures.push(f);
            }
        }
    }
    if failures.is_empty() {
        ck.finish();
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
            utilization: 0.9312345678901234,
            log: "util 93%, 12 iters".to_string(),
        };
        assert_eq!(CellPoint::decode(&pt.encode()), Some(pt));
        let empty_log = CellPoint {
            x: 3,
            p: 1,
            seconds: 2.5e-9,
            utilization: 0.0,
            log: String::new(),
        };
        assert_eq!(CellPoint::decode(&empty_log.encode()), Some(empty_log));
        assert_eq!(CellPoint::decode("garbage"), None);
        assert_eq!(CellPoint::decode("1 2 3|x"), None, "the old payload");
        assert_eq!(CellPoint::decode("1 2 3 4 5|x"), None);
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
                utilization: 0.5,
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
    fn a_finished_store_is_removed_unless_its_root_was_named() {
        for named in [false, true] {
            let ck = Checkpoint {
                named,
                ..temp_store(&format!("finish-{named}"))
            };
            ck.record("a/b", "1 2 3|ok");
            ck.finish();
            assert_eq!(ck.lookup("a/b").is_some(), named, "named: {named}");
            ck.clear();
        }
    }

    #[test]
    fn lookup_reads_every_payload_size_whole() {
        let ck = temp_store("sizes");
        // Below, at and past the 1 KiB stack buffer; non-ASCII names map
        // one character to one `_`, as they always have.
        for (cell, len) in [("a/b", 0), ("é/x", 1023), ("k-1.2", 1024), ("c/d", 5000)] {
            let payload: String = (0..len)
                .map(|i| char::from(b'a' + (i % 26) as u8))
                .collect();
            ck.record(cell, &payload);
            assert_eq!(ck.lookup(cell), Some(payload.clone()), "{cell}");
            assert_eq!(ck.lookup_with(cell, |p| Some(p.len())), Some(len), "{cell}");
        }
        assert!(ck.dir.as_ref().expect("enabled").join("__x").is_file());
        assert_eq!(ck.lookup("never/recorded"), None);
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
            utilization: 0.0,
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
        assert_eq!(ck.entries(), (0, 0));
    }

    #[test]
    fn entries_enumerate_payload_files_only() {
        let ck = temp_store("entries");
        assert_eq!(ck.entries(), (0, 0), "fresh store has no entries");
        ck.record("fig/a/p1", "1 2 3|one");
        ck.record("deadbeef00000000", "v1 ok cycles=9");
        let bytes = "1 2 3|one".len() + "v1 ok cycles=9".len();
        assert_eq!(
            ck.entries(),
            (2, bytes as u64),
            "the .spec sentinel is not an entry"
        );
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
                utilization: 0.9,
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
                utilization: 0.8,
                log: String::new(),
            }),
        ];
        let sw = assemble_panel(cells, outs, |pt| pt.utilization, &ck);
        assert_eq!(sw.series.len(), 2);
        assert_eq!(sw.series[0].points.len(), 1, "failed point skipped");
        assert_eq!(sw.series[1].points.len(), 1);
        assert_eq!(sw.series[1].at(1, 2), Some(0.8), "the value picked");
        assert_eq!(sw.failures.len(), 1);
        assert_eq!(sw.failures[0].cell, "fig/a/p1/n2");
    }
}
