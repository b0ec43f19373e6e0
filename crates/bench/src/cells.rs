//! Cells as data: a [`CellSpec`] says what to run, and
//! [`run_full`](CellSpec::run_full) is the one way to run it — from the
//! `--bin bench` regression driver, the `archgraphd` sweep daemon, the
//! Fig. 1 / Fig. 2 / Table 1 sweeps (`sweep::run_cells`) or a test. A
//! [`CellRun`] carries every reading of that one execution: the exact `sim`
//! fingerprint the suite and the daemon pin, and the seconds, utilization
//! and log detail the figures and Table 1 plot.
//!
//! [`bench_suite`] *is* the suite's cell list: the bench binary iterates
//! it, the daemon executes the same specs through the same entry point,
//! and both render `sim` with [`render_sim`] (`archgraphd`'s e2e tests
//! diff them).
//!
//! # Content-addressed cache keys
//!
//! [`CellSpec::cache_key`] hashes the *result-determining* fields only:
//! kernel, machine, processor count, and problem size (plus the fault
//! plan, which perturbs simulated quantities by design). The engine pin
//! is **excluded**: it is a label that selects nothing (`mta-sim` has one
//! issue loop), so `fig1/mta/random/p8` is the same cached result
//! whichever engine a request names. The cycle budget is also excluded — it
//! only decides whether a run *fails*, and failures are never cached.
//!
//! Reached by: every suite cell (`--bin bench`) and `archgraphd`'s `submit` op.

use std::fmt::Write as _;
use std::sync::OnceLock;

use archgraph_core::{FaultPlan, RunConfig};
use archgraph_mta_sim::machine::MtaEngine;
use archgraph_mta_sim::report::RunReport;
use archgraph_smp_sim::stats::RunStats;

use crate::workloads::ListKind;
use crate::{fig1, fig2, kernels};

/// Exact simulated-quantity fingerprint: `(label, value)` pairs in a
/// stable order (the order they render into bench JSON).
pub type Fingerprint = Vec<(&'static str, u64)>;

/// Every reading of one cell execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellRun {
    /// What the suite and the daemon pin — MTA: `cycles`, `issued`; SMP:
    /// `instructions`, `accesses`; then the kernel's own counts.
    pub sim: Fingerprint,
    /// Simulated seconds (0 for native cells, which simulate nothing).
    pub seconds: f64,
    /// MTA processor utilization in `0..=1` (0 off the MTA).
    pub utilization: f64,
    /// The figure drivers' per-cell log detail ("util 93%", "3 iters").
    pub log: String,
}

impl CellRun {
    fn mta(report: &RunReport, seconds: f64) -> CellRun {
        CellRun {
            sim: vec![("cycles", report.cycles), ("issued", report.issued)],
            seconds,
            utilization: report.utilization,
            log: format!("util {:.0}%", report.utilization * 100.0),
        }
    }

    fn smp(stats: &RunStats, seconds: f64) -> CellRun {
        let (l1, mem) = (stats.l1_hit_rate(), stats.mem_access_rate());
        CellRun {
            sim: vec![
                ("instructions", stats.instructions),
                ("accesses", stats.accesses()),
            ],
            seconds,
            log: format!("L1 {:.0}%, mem {:.0}%", l1 * 100.0, mem * 100.0),
            ..CellRun::default()
        }
    }

    /// One more exact count at the end of the fingerprint.
    fn with(mut self, key: &'static str, value: u64) -> CellRun {
        self.sim.push((key, value));
        self
    }
}

/// Which workload a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Fig. 1 list ranking over the given list layout.
    Fig1(ListKind),
    /// Fig. 2 connected components (Shiloach–Vishkin / spanning walks).
    Fig2,
    /// Table 1 utilization, list-ranking workload.
    Table1List(ListKind),
    /// Table 1 utilization, connected-components workload.
    Table1Cc,
    /// Speculative (speculate-then-fix) graph coloring.
    Color,
    /// Load-balanced frontier BFS.
    Bfs,
    /// readfe/writeef-contended per-vertex accumulation (MTA-only: the
    /// cell exists to exercise full/empty tag contention).
    Sync,
    /// Euler-tour list ranking on a random tree.
    Euler,
    /// Minimum spanning forest (Borůvka-over-SV), native execution.
    Msf,
    /// Tarjan–Vishkin biconnected components, native execution.
    Biconn,
}

impl Kernel {
    /// Stable lowercase name used in specs and canonical strings.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Fig1(ListKind::Random) => "fig1-random",
            Kernel::Fig1(ListKind::Ordered) => "fig1-ordered",
            Kernel::Fig2 => "fig2",
            Kernel::Table1List(ListKind::Random) => "table1-random",
            Kernel::Table1List(ListKind::Ordered) => "table1-ordered",
            Kernel::Table1Cc => "table1-cc",
            Kernel::Color => "color",
            Kernel::Bfs => "bfs",
            Kernel::Sync => "sync",
            Kernel::Euler => "euler",
            Kernel::Msf => "msf",
            Kernel::Biconn => "biconn",
        }
    }

    /// Parse a spec-facing kernel name (the inverse of [`Kernel::name`]).
    pub fn parse(s: &str) -> Option<Kernel> {
        Some(match s {
            "fig1-random" => Kernel::Fig1(ListKind::Random),
            "fig1-ordered" => Kernel::Fig1(ListKind::Ordered),
            "fig2" => Kernel::Fig2,
            "table1-random" => Kernel::Table1List(ListKind::Random),
            "table1-ordered" => Kernel::Table1List(ListKind::Ordered),
            "table1-cc" => Kernel::Table1Cc,
            "color" => Kernel::Color,
            "bfs" => Kernel::Bfs,
            "sync" => Kernel::Sync,
            "euler" => Kernel::Euler,
            "msf" => Kernel::Msf,
            "biconn" => Kernel::Biconn,
            _ => return None,
        })
    }
}

/// Which execution substrate a cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    /// The simulated Cray MTA-2.
    Mta,
    /// The simulated Sun E4500 SMP.
    Smp,
    /// Native host execution (deterministic integer fingerprints).
    Native,
}

impl MachineKind {
    /// Stable lowercase name used in specs and canonical strings.
    pub fn name(self) -> &'static str {
        match self {
            MachineKind::Mta => "mta",
            MachineKind::Smp => "smp",
            MachineKind::Native => "native",
        }
    }

    /// Parse a spec-facing machine name.
    pub fn parse(s: &str) -> Option<MachineKind> {
        Some(match s {
            "mta" => MachineKind::Mta,
            "smp" => MachineKind::Smp,
            "native" => MachineKind::Native,
            _ => return None,
        })
    }
}

/// One executable bench cell. `max_cycles`/`faults` outrank the enclosing
/// run scope when `Some`; `None` leaves the scope's value in charge (see
/// [`CellSpec::run_config`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// The workload.
    pub kernel: Kernel,
    /// The substrate it runs on.
    pub machine: MachineKind,
    /// A label that selects nothing (see [`MtaEngine`]): the run ignores
    /// it, [`Self::display_name`] compares it. Kept, with the wire
    /// `"engine"` key, until a `benchmark` PR thaws the frozen tree
    /// (ROADMAP 11(b)).
    pub engine: Option<MtaEngine>,
    /// Simulated processor count (0 for native cells).
    pub p: usize,
    /// Problem size: list/tree vertices, or graph vertices.
    pub n: usize,
    /// Edge count for graph kernels (0 where meaningless).
    pub m: usize,
    /// Cycle-watchdog budget override for this cell, if any.
    pub max_cycles: Option<u64>,
    /// Fault plan spec (`<spec>:<seed>`, see `archgraph_core::fault`), if the
    /// cell should run on a perturbed memory system. Validated before
    /// running; part of the cache key.
    pub faults: Option<String>,
}

pub mod sizes {
    //! Default problem sizes, shared with the committed bench baseline.
    //! The whole suite must run in tens of seconds in a release build.
    //!
    //! Reached by: every suite cell (`bench_suite`) and the `--bin bench`
    //! baseline it pins.

    /// List length for fig1/table1 list-ranking cells.
    pub const N_LIST: usize = 1 << 15;
    /// Graph vertices for fig2/table1-cc/color/bfs/msf/biconn cells.
    pub const N_GRAPH: usize = 1 << 11;
    /// Graph edges for the same cells.
    pub const M_GRAPH: usize = 5 << 11;
    /// Tree vertices for the Euler cells.
    pub const N_TREE: usize = 1 << 13;
}

impl CellSpec {
    /// A spec that pins nothing: the kernel's default bench size,
    /// no engine pin, no overrides.
    pub fn new(kernel: Kernel, machine: MachineKind, p: usize) -> CellSpec {
        let (n, m) = default_size(kernel);
        CellSpec {
            kernel,
            machine,
            engine: None,
            p,
            n,
            m,
            max_cycles: None,
            faults: None,
        }
    }

    /// Validate the spec: combination, sizes, bounds, fault grammar.
    /// Returns a human-readable reason on rejection — the daemon turns
    /// this into a structured protocol error.
    pub fn validate(&self) -> Result<(), String> {
        let native_ok = matches!(self.kernel, Kernel::Msf | Kernel::Biconn);
        match self.machine {
            MachineKind::Native if !native_ok => {
                return Err(format!("kernel {} has no native cell", self.kernel.name()));
            }
            MachineKind::Mta | MachineKind::Smp if native_ok => {
                return Err(format!(
                    "kernel {} only has a native cell",
                    self.kernel.name()
                ));
            }
            _ => {}
        }
        if matches!(self.kernel, Kernel::Table1List(_) | Kernel::Table1Cc)
            && self.machine != MachineKind::Mta
        {
            return Err("table1 cells are MTA-only (the table is MTA utilization)".into());
        }
        if self.kernel == Kernel::Sync && self.machine != MachineKind::Mta {
            return Err("sync is MTA-only (it exercises full/empty tag contention)".into());
        }
        if self.machine != MachineKind::Native && (self.p == 0 || self.p > 64) {
            return Err(format!("p={} out of range (1..=64)", self.p));
        }
        if self.n < 2 || self.n > (1 << 24) {
            return Err(format!("n={} out of range (2..=2^24)", self.n));
        }
        let graphish = matches!(
            self.kernel,
            Kernel::Fig2
                | Kernel::Table1Cc
                | Kernel::Color
                | Kernel::Bfs
                | Kernel::Sync
                | Kernel::Msf
                | Kernel::Biconn
        );
        if graphish && (self.m == 0 || self.m > (1 << 26)) {
            return Err(format!("m={} out of range (1..=2^26)", self.m));
        }
        if self.max_cycles == Some(0) {
            return Err("max_cycles=0 can never be satisfied".into());
        }
        if let Some(f) = &self.faults {
            FaultPlan::parse(f).map_err(|e| format!("faults: {e}"))?;
        }
        Ok(())
    }

    /// Canonical result-determining string: the content address the
    /// daemon's cache is keyed by. Excludes engine and cycle budget — see
    /// the module docs for why that is sound.
    pub fn canonical(&self) -> String {
        format!(
            "v1 kernel={} machine={} p={} n={} m={} faults={}",
            self.kernel.name(),
            self.machine.name(),
            self.p,
            self.n,
            self.m,
            self.faults.as_deref().unwrap_or("-"),
        )
    }

    /// FNV-1a hash of [`CellSpec::canonical`], as fixed-width hex: the
    /// cache filename and the `key` field of daemon result lines.
    pub fn cache_key(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.canonical().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Display name: the bench-suite name if this spec is one of the
    /// suite's cells, else the canonical string.
    pub fn display_name(&self) -> String {
        suite()
            .iter()
            .find(|(_, spec)| spec == self)
            .map_or_else(|| self.canonical(), |(name, _)| name.to_string())
    }

    /// The run configuration this cell executes under: its own fault plan
    /// and cycle budget where it names them, else the enclosing scope's
    /// ([`RunConfig::current`]). So a spec carrying `faults` runs under
    /// exactly that plan wherever it executes — `--bin bench`, the daemon,
    /// a figure sweep or a test — and degradation cells fingerprint
    /// identically everywhere, while a plain spec moves with the plan its
    /// caller scoped.
    pub fn run_config(&self) -> RunConfig {
        let outer = RunConfig::current();
        RunConfig {
            faults: match &self.faults {
                Some(spec) => {
                    Some(FaultPlan::parse(spec).expect("validate() accepted this fault spec"))
                }
                None => outer.faults,
            },
            max_cycles: self.max_cycles.unwrap_or(outer.max_cycles),
        }
    }

    /// Execute the cell under [`run_config`](CellSpec::run_config). Does
    /// **not** call [`validate`](CellSpec::validate): that is the daemon's
    /// admission bound (`n ≤ 2^24`), and `--full` Fig. 1 and Table 1 run
    /// 20·2^20 nodes. Panics on simulator failure (watchdog, deadlock); run
    /// under `sweep::isolate`.
    pub fn run_full(&self) -> CellRun {
        self.run_config().scope(|| self.dispatch())
    }

    /// [`run_full`](CellSpec::run_full), keeping only the `sim`
    /// fingerprint: what the suite and the daemon compare and cache.
    pub fn run(&self) -> Fingerprint {
        self.run_full().sim
    }

    /// The crate's one kernel × machine dispatch. Table 1's rows are the
    /// Fig. 1 and Fig. 2 MTA cells read for utilization, so they share
    /// those arms.
    fn dispatch(&self) -> CellRun {
        let (p, n, m) = (self.p, self.n, self.m);
        let mut run = match (self.kernel, self.machine) {
            // Validation already rejected non-MTA machines for table1.
            (Kernel::Fig1(kind), MachineKind::Mta) | (Kernel::Table1List(kind), _) => {
                let r = fig1::mta_cell(kind, p, n);
                CellRun::mta(&r.report, r.seconds)
            }
            // `_` machine arms: validation already rejected native for
            // the simulated-only kernels, so `_` here means SMP.
            (Kernel::Fig1(kind), _) => {
                let r = fig1::smp_cell(kind, p, n);
                CellRun::smp(&r.stats, r.seconds)
            }
            (Kernel::Fig2, MachineKind::Mta) | (Kernel::Table1Cc, _) => {
                let r = fig2::mta_cell(p, n, m);
                let run = CellRun::mta(&r.report, r.seconds);
                CellRun {
                    log: format!("{} iters, {}", r.iterations, run.log),
                    ..run
                }
            }
            (Kernel::Fig2, _) => {
                let r = fig2::smp_cell(p, n, m);
                CellRun {
                    log: format!("{} iters", r.iterations),
                    ..CellRun::smp(&r.stats, r.seconds)
                }
            }
            (Kernel::Color, MachineKind::Mta) => {
                let r = kernels::color_mta_cell(p, n, m);
                CellRun::mta(&r.report, r.seconds).with("rounds", r.rounds as u64)
            }
            (Kernel::Color, _) => {
                let r = kernels::color_smp_cell(p, n, m);
                CellRun::smp(&r.stats, r.seconds).with("rounds", r.rounds as u64)
            }
            (Kernel::Bfs, MachineKind::Mta) => {
                let r = kernels::bfs_mta_cell(p, n, m);
                CellRun::mta(&r.report, r.seconds).with("levels", r.level_count as u64)
            }
            (Kernel::Bfs, _) => {
                let r = kernels::bfs_smp_cell(p, n, m);
                CellRun::smp(&r.stats, r.seconds).with("levels", r.level_count as u64)
            }
            // Validation already rejected non-MTA machines for sync.
            (Kernel::Sync, _) => {
                let r = kernels::sync_mta_cell(p, n, m);
                CellRun::mta(&r.report, r.report.seconds).with("checksum", r.checksum)
            }
            (Kernel::Euler, MachineKind::Mta) => {
                let r = kernels::euler_mta_cell(p, n);
                CellRun::mta(&r.report, r.seconds)
            }
            (Kernel::Euler, _) => {
                let r = kernels::euler_smp_cell(p, n);
                CellRun::smp(&r.stats, r.seconds)
            }
            (Kernel::Msf, _) => {
                let r = kernels::msf_native_cell(n, m);
                CellRun::default()
                    .with("weight", r.weight)
                    .with("tree_edges", r.tree_edges)
            }
            (Kernel::Biconn, _) => {
                let r = kernels::biconn_native_cell(n, m);
                CellRun::default()
                    .with("blocks", r.blocks)
                    .with("bridges", r.bridges)
                    .with("cut_vertices", r.cut_vertices)
            }
        };
        if matches!(self.kernel, Kernel::Table1List(_) | Kernel::Table1Cc) {
            // Table 1's own quantity is utilization, so its cells pin it
            // too, in parts-per-million: a deterministic integer ratio of
            // the other two entries, rounded, so it is exact across hosts.
            let util_ppm = (run.utilization * 1e6).round() as u64;
            run.sim.push(("util_ppm", util_ppm));
        }
        run
    }
}

/// Default `(n, m)` for a kernel: the committed bench-baseline sizes.
pub fn default_size(kernel: Kernel) -> (usize, usize) {
    use sizes::*;
    match kernel {
        Kernel::Fig1(_) | Kernel::Table1List(_) => (N_LIST, 0),
        Kernel::Fig2
        | Kernel::Table1Cc
        | Kernel::Color
        | Kernel::Bfs
        | Kernel::Sync
        | Kernel::Msf
        | Kernel::Biconn => (N_GRAPH, M_GRAPH),
        Kernel::Euler => (N_TREE, 0),
    }
}

/// The bench regression suite: every cell `--bin bench` writes, as
/// `(stable name, spec)` pairs in baseline order. MTA cells carry a
/// `Trace` label that selects nothing; it stays because
/// [`CellSpec::display_name`] compares whole specs, so dropping it would
/// rename the unpinned cells the frozen `benchmarks/` package submits and
/// move the `sims_fnv` its `expected.json` pins (ROADMAP 11(a)).
pub fn bench_suite() -> Vec<(&'static str, CellSpec)> {
    let mta = |kernel, p| {
        let mut s = CellSpec::new(kernel, MachineKind::Mta, p);
        s.engine = Some(MtaEngine::Trace);
        s
    };
    let smp = |kernel, p| CellSpec::new(kernel, MachineKind::Smp, p);
    let native = |kernel| CellSpec::new(kernel, MachineKind::Native, 0);
    use Kernel::*;
    use ListKind::{Ordered, Random};
    vec![
        ("fig1/mta/random/p8", mta(Fig1(Random), 8)),
        ("fig1/mta/ordered/p8", mta(Fig1(Ordered), 8)),
        ("fig1/mta/random/p1", mta(Fig1(Random), 1)),
        ("fig1/smp/random/p8", smp(Fig1(Random), 8)),
        ("fig1/smp/ordered/p8", smp(Fig1(Ordered), 8)),
        ("fig2/mta/p8", mta(Fig2, 8)),
        ("fig2/smp/p8", smp(Fig2, 8)),
        ("table1/mta/random/p8", mta(Table1List(Random), 8)),
        ("table1/mta/ordered/p8", mta(Table1List(Ordered), 8)),
        ("table1/mta/cc/p8", mta(Table1Cc, 8)),
        ("color/mta/p8", mta(Color, 8)),
        ("color/smp/p8", smp(Color, 8)),
        ("bfs/mta/p8", mta(Bfs, 8)),
        ("bfs/smp/p8", smp(Bfs, 8)),
        ("sync/mta/p8", mta(Sync, 8)),
        ("euler/mta/p8", mta(Euler, 8)),
        ("euler/smp/p8", smp(Euler, 8)),
        ("msf/native", native(Msf)),
        ("biconn/native", native(Biconn)),
        // Degradation cells: the same kernels under pinned structural
        // fault plans. Their fingerprints are part of the committed
        // baseline, so a change to fault *semantics* shows up as a bench
        // diff (`tests/suite_golden.rs` pins the suite under five outer
        // plans too, which these cells' own plans outrank).
        ("bfs/mta/p8+stall", {
            let mut s = mta(Bfs, 8);
            s.faults = Some("stall=30,stall-period=300:7".into());
            s
        }),
        ("color/mta/p8+link", {
            let mut s = mta(Color, 8);
            s.faults = Some("link-latency=60,rate=1:7".into());
            s
        }),
        ("fig1/mta/random/p8+brownout", {
            let mut s = mta(Fig1(Random), 8);
            s.faults = Some("brownout=4,brownout-at=3000,brownout-for=30000:7".into());
            s
        }),
        // All three structural axes at once, on the readfe-contended
        // kernel.
        ("sync/mta/p8+struct", {
            let mut s = mta(Sync, 8);
            s.faults =
                Some("stall=30,stall-period=300,link-latency=60,brownout=2,rate=1:11".into());
            s
        }),
    ]
}

/// Look up a bench-suite cell by its stable name.
pub fn find(name: &str) -> Option<CellSpec> {
    suite()
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| s.clone())
}

/// [`bench_suite`], built once per process for the lookups by name and by
/// spec.
fn suite() -> &'static [(&'static str, CellSpec)] {
    static SUITE: OnceLock<Vec<(&'static str, CellSpec)>> = OnceLock::new();
    SUITE.get_or_init(bench_suite)
}

/// Parse an MTA engine name as specs spell it ([`MtaEngine::parse`]);
/// every name is a label for the one issue loop.
pub fn parse_engine(s: &str) -> Option<MtaEngine> {
    MtaEngine::parse(s)
}

/// Spell an MTA engine the way [`parse_engine`] reads it.
///
/// Reached by: frozen benchmarks/src (`run.rs`), until ROADMAP 11(b).
pub fn engine_name(e: MtaEngine) -> &'static str {
    e.name()
}

/// Escape a string for a JSON literal (quotes, backslashes, control
/// characters — panic messages can contain anything).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a `sim` fingerprint object (`{ "cycles": 123, "issued": 456 }`):
/// the one renderer behind `--bin bench`'s JSON and the daemon's result
/// lines, which `archgraphd`'s `tests/daemon.rs` compares byte for byte.
pub fn render_sim<K: AsRef<str>>(pairs: &[(K, u64)]) -> String {
    let mut out = String::new();
    push_sim(&mut out, pairs);
    out
}

/// [`render_sim`] appended to `out`, for a caller building a longer line.
pub fn push_sim<K: AsRef<str>>(out: &mut String, pairs: &[(K, u64)]) {
    out.push_str("{ ");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        out.push_str(k.as_ref());
        out.push_str("\": ");
        push_uint(out, *v);
    }
    out.push_str(" }");
}

/// `v` in decimal, appended to `out` without going through a formatter.
pub fn push_uint(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_are_unique_and_specs_valid() {
        let suite = bench_suite();
        assert_eq!(suite.len(), 23, "the committed baseline has 23 cells");
        let mut names: Vec<&str> = suite.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len(), "duplicate cell name");
        for (name, spec) in &suite {
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn cache_key_ignores_engine_but_not_size() {
        let a = find("fig2/mta/p8").unwrap();
        let mut c = a.clone();
        c.engine = Some(MtaEngine::SingleStep);
        assert_eq!(a.cache_key(), c.cache_key(), "engines share one result");

        let mut bigger = a.clone();
        bigger.n *= 2;
        assert_ne!(a.cache_key(), bigger.cache_key());
        let mut faulty = a.clone();
        faulty.faults = Some("mem-latency=30,rate=1:9".into());
        assert_ne!(a.cache_key(), faulty.cache_key(), "faults change results");
        let smp = find("fig2/smp/p8").unwrap();
        assert_ne!(a.cache_key(), smp.cache_key(), "machines differ");
    }

    #[test]
    fn validation_rejects_bad_combinations() {
        let bad = CellSpec::new(Kernel::Msf, MachineKind::Mta, 8);
        assert!(bad.validate().is_err(), "msf has no MTA cell");
        let bad = CellSpec::new(Kernel::Color, MachineKind::Native, 0);
        assert!(bad.validate().is_err(), "color has no native cell");
        let mut bad = CellSpec::new(Kernel::Color, MachineKind::Mta, 0);
        assert!(bad.validate().is_err(), "p=0 on a simulated machine");
        bad.p = 2;
        bad.faults = Some("bogus".into());
        assert!(bad.validate().is_err(), "malformed fault plan");
        bad.faults = Some("mem-latency=30,rate=1:9".into());
        assert!(bad.validate().is_ok());
        bad.max_cycles = Some(0);
        assert!(bad.validate().is_err(), "zero budget");
    }

    #[test]
    fn run_matches_the_kernel_entry_points() {
        // The spec path must produce exactly what the direct cell calls
        // produce — this is the identity `--bin bench` and the daemon
        // both lean on.
        let mut spec = CellSpec::new(Kernel::Color, MachineKind::Mta, 2);
        spec.n = 128;
        spec.m = 384;
        let fp = spec.run();
        let direct = kernels::color_mta_cell(2, 128, 384);
        assert_eq!(
            fp,
            vec![
                ("cycles", direct.report.cycles),
                ("issued", direct.report.issued),
                ("rounds", direct.rounds as u64)
            ]
        );
    }

    #[test]
    fn run_honours_a_cycle_budget() {
        let mut spec = CellSpec::new(Kernel::Bfs, MachineKind::Mta, 2);
        spec.n = 128;
        spec.m = 384;
        spec.max_cycles = Some(10);
        let err = crate::sweep::isolate("budget", || spec.run())
            .expect_err("a 10-cycle budget must trip the watchdog");
        assert!(
            err.message.contains("cycle budget exceeded"),
            "{}",
            err.message
        );
    }

    #[test]
    fn a_spec_outranks_the_enclosing_scope_only_where_it_speaks() {
        let plan = |spec| Some(FaultPlan::parse(spec).unwrap());
        let outer = RunConfig {
            faults: plan("link-latency=60,rate=1:9"),
            max_cycles: 1 << 30,
        };
        let plain = find("fig2/mta/p8").unwrap();
        assert_eq!(outer.scope(|| plain.run_config()), outer);
        let own = find("bfs/mta/p8+stall").unwrap();
        let mut tight = plain.clone();
        tight.max_cycles = Some(99);
        outer.scope(|| {
            let own = own.run_config();
            assert_eq!(own.faults, plan("stall=30,stall-period=300:7"));
            assert_eq!(own.max_cycles, outer.max_cycles);
            let tight = tight.run_config();
            assert_eq!((tight.faults, tight.max_cycles), (outer.faults.clone(), 99));
        });
        assert_eq!(plain.run_config(), RunConfig::CLEAN, "outside any scope");
    }

    #[test]
    fn degradation_plan_costs_cycles_over_its_clean_twin() {
        // A small off-suite variant keeps this fast. The faulted spec
        // must cost cycles over its clean twin (the plan is real).
        // Note the speculative color kernel's *work* may legitimately
        // shift under a plan — racy speculation reads whatever the
        // perturbed schedule exposes — which is exactly why the plan
        // must be part of the cache key.
        let mut clean = CellSpec::new(Kernel::Color, MachineKind::Mta, 2);
        clean.n = 128;
        clean.m = 384;
        let mut faulted = clean.clone();
        faulted.faults =
            Some("stall=30,stall-period=300,link-latency=60,brownout=2,rate=0:7".into());
        let fp_clean = clean.run();
        let fp_faulted = faulted.run();
        assert_eq!(fp_clean[0].0, "cycles");
        assert!(
            fp_faulted[0].1 > fp_clean[0].1,
            "the combined plan must cost cycles ({} <= {})",
            fp_faulted[0].1,
            fp_clean[0].1
        );
    }

    #[test]
    fn display_name_round_trips_suite_cells() {
        let spec = find("bfs/smp/p8").unwrap();
        assert_eq!(spec.display_name(), "bfs/smp/p8");
        let mut off_suite = spec.clone();
        off_suite.n = 64;
        off_suite.m = 128;
        assert_eq!(off_suite.display_name(), off_suite.canonical());
        for (name, spec) in bench_suite() {
            assert_eq!(spec.display_name(), name, "every suite cell by its name");
            assert_eq!(find(name), Some(spec));
        }
    }

    #[test]
    fn sim_rendering_matches_the_formatter() {
        let pairs = [("cycles", 0), ("issued", 9), ("x", 10), ("max", u64::MAX)];
        assert_eq!(
            render_sim(&pairs),
            r#"{ "cycles": 0, "issued": 9, "x": 10, "max": 18446744073709551615 }"#
        );
        assert_eq!(render_sim::<&str>(&[]), "{  }");
        let mut out = String::from("head,");
        push_sim(&mut out, &pairs[1..2]);
        assert_eq!(out, r#"head,{ "issued": 9 }"#);
        for v in [0, 1, 9, 10, 99, 100, 123_456_789, u64::MAX - 1, u64::MAX] {
            let mut s = String::new();
            push_uint(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn kernel_and_machine_names_round_trip() {
        for (_, spec) in bench_suite() {
            assert_eq!(Kernel::parse(spec.kernel.name()), Some(spec.kernel));
            assert_eq!(MachineKind::parse(spec.machine.name()), Some(spec.machine));
        }
        assert_eq!(Kernel::parse("nope"), None);
        assert_eq!(MachineKind::parse("gpu"), None);
        assert_eq!(
            parse_engine(engine_name(MtaEngine::Trace)),
            Some(MtaEngine::Trace)
        );
    }
}
