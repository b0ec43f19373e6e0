//! Benchmark cells: one call into a kernel crate's public entry point on
//! an input the benchmark generated itself from the seed, timed, then
//! checked against the crate's oracle outside the timed section.
//!
//! The suite's own cell helpers (`fig1::mta_cell`, …) build their inputs
//! from fixed seeds inside the call, so they can neither take the
//! benchmark's seed nor keep generation out of the timing; these do both.

use std::rc::Rc;
use std::time::Instant;

use archgraph_apps::biconn::{biconnected_components, biconnected_oracle};
use archgraph_apps::euler::Ranker;
use archgraph_apps::msf::{kruskal_weight, minimum_spanning_forest};
use archgraph_apps::sim::{simulate_euler_mta, simulate_euler_smp};
use archgraph_apps::tree::Tree;
use archgraph_apps::EulerTour;
use archgraph_bench::workloads::{make_graph, make_list, ListKind};
use archgraph_bfs::native::parallel_bfs;
use archgraph_bfs::sim_mta::simulate_bfs_mta;
use archgraph_bfs::sim_smp::simulate_bfs_smp;
use archgraph_coloring::native::speculative_coloring;
use archgraph_coloring::seq::validate_coloring;
use archgraph_coloring::sim_mta::simulate_coloring_mta;
use archgraph_coloring::sim_smp::simulate_coloring_smp;
use archgraph_concomp::sim_mta::simulate_sv_mta;
use archgraph_concomp::sim_smp::simulate_sv;
use archgraph_concomp::sv::shiloach_vishkin;
use archgraph_core::machine::{MtaParams, SmpParams};
use archgraph_graph::bfs::{bfs_levels, level_count};
use archgraph_graph::csr::Csr;
use archgraph_graph::edgelist::EdgeList;
use archgraph_graph::list::LinkedList;
use archgraph_graph::rng::Rng;
use archgraph_graph::unionfind::{component_count, connected_components, same_partition};
use archgraph_graph::Node;
use archgraph_listrank::hj::{helman_jaja, HjConfig};
use archgraph_listrank::sim_mta::simulate_walk_ranking;
use archgraph_listrank::sim_smp::simulate_hj;
use archgraph_mta_sim::isa::{ProgramBuilder, Reg};
use archgraph_mta_sim::parloop::{dynamic_loop_grained_mem, LoopRegs};
use archgraph_mta_sim::report::RunReport;
use archgraph_mta_sim::{with_fault_plan, FaultPlan, MtaMachine};
use archgraph_smp_sim::RunStats;

use crate::trace::Tracer;

/// Streams per simulated MTA processor (the paper's `use 100 streams`).
pub const MTA_STREAMS: usize = 100;

/// Sublists per processor for Helman–JáJá, as in Fig. 1.
const HJ_SUBLISTS: usize = 8;

/// Source vertex of the BFS cells.
pub const BFS_SRC: Node = 0;

/// Exact quantities of one cell run, pinned at the default seed.
pub type Fingerprint = Vec<(&'static str, u64)>;

/// What one run of a cell produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall time of the call into the kernel crate, seconds.
    pub secs: f64,
    /// Work done: simulated instructions issued (MTA), simulated memory
    /// accesses (SMP), or nodes + edges of the input (native).
    pub work: u64,
    /// Whether the output matched the oracle.
    pub ok: bool,
    /// Exact quantities (identical on every engine and every host).
    pub fp: Fingerprint,
    /// The full report of an MTA cell, for the cross-engine comparison.
    pub report: Option<RunReport>,
    /// The statistics of an SMP cell.
    pub stats: Option<RunStats>,
    /// Rounds (colouring) or levels (BFS); 0 for the other kernels.
    pub steps: u64,
}

/// One benchmark cell.
pub struct Cell {
    /// Name within the workload, e.g. `fig1/random/p8`.
    pub name: String,
    /// Span name: `<crate>.<entry point>`.
    pub span: &'static str,
    /// The per-layer metric this cell's time and work feed.
    pub metric: &'static str,
    run: Box<dyn Fn(&Tracer) -> Outcome>,
}

impl Cell {
    fn new(
        name: String,
        span: &'static str,
        metric: &'static str,
        run: impl Fn(&Tracer) -> Outcome + 'static,
    ) -> Cell {
        Cell {
            name,
            span,
            metric,
            run: Box::new(run),
        }
    }

    /// Run the cell once inside its span.
    pub fn run(&self, tr: &Tracer) -> Outcome {
        tr.span(self.span, || (self.run)(tr))
    }

    /// The same cell under a fault plan (`<spec>:<seed>`), which every
    /// simulator built inside the call picks up.
    pub fn faulted(self, tag: &str, plan: &'static str) -> Cell {
        let parsed = FaultPlan::parse(plan).expect("the benchmark's fault plans parse");
        let run = self.run;
        Cell {
            name: format!("{}+{tag}", self.name),
            span: self.span,
            metric: self.metric,
            run: Box::new(move |tr| with_fault_plan(Some(parsed.clone()), || run(tr))),
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    (r, t0.elapsed().as_secs_f64())
}

impl Outcome {
    /// An outcome with no simulator report attached.
    pub fn new(secs: f64, work: u64, ok: bool, fp: Fingerprint) -> Outcome {
        Outcome {
            secs,
            work,
            ok,
            fp,
            report: None,
            stats: None,
            steps: 0,
        }
    }
}

fn mta_outcome(report: RunReport, secs: f64, ok: bool, steps: u64) -> Outcome {
    let fp = vec![("cycles", report.cycles), ("issued", report.issued)];
    let mut out = Outcome::new(secs, report.issued, ok, fp);
    out.steps = steps;
    out.report = Some(report);
    out
}

fn smp_outcome(stats: RunStats, secs: f64, ok: bool, steps: u64) -> Outcome {
    let fp = vec![
        ("instructions", stats.instructions),
        ("accesses", stats.accesses()),
    ];
    let mut out = Outcome::new(secs, stats.accesses(), ok, fp);
    out.steps = steps;
    out.stats = Some(stats);
    out
}

fn native_outcome(secs: f64, work: usize, ok: bool, fp: Fingerprint, steps: u64) -> Outcome {
    let mut out = Outcome::new(secs, work as u64, ok, fp);
    out.steps = steps;
    out
}

/// A linked list and its ranks.
pub struct ListInput {
    kind: ListKind,
    list: LinkedList,
    oracle: Vec<Node>,
}

/// Generate a list of `n` nodes inside a `graph.list_*` span.
pub fn list_input(tr: &Tracer, kind: ListKind, n: usize, seed: u64) -> Rc<ListInput> {
    let span = match kind {
        ListKind::Random => "graph.list_random",
        ListKind::Ordered => "graph.list_ordered",
    };
    let list = tr.span_work(span, n as u64, || make_list(kind, n, seed));
    let oracle = list.rank_oracle();
    Rc::new(ListInput { kind, list, oracle })
}

impl ListInput {
    fn label(&self) -> String {
        self.kind.label().to_lowercase()
    }
}

/// A random graph G(n, m), its adjacency arrays and the oracles' answers.
pub struct GraphInput {
    g: EdgeList,
    csr: Csr,
    components: Vec<Node>,
}

/// Generate G(n, m) inside `graph.random_gnm` and `graph.csr` spans.
pub fn graph_input(tr: &Tracer, n: usize, m: usize, seed: u64) -> Rc<GraphInput> {
    let g = tr.span_work("graph.random_gnm", m as u64, || make_graph(n, m, seed));
    let csr = tr.span_work("graph.csr", m as u64, || Csr::from_edge_list(&g));
    let components = connected_components(&g);
    Rc::new(GraphInput { g, csr, components })
}

impl GraphInput {
    /// Nodes plus edges: the native cells' unit of work.
    fn elems(&self) -> usize {
        self.g.n + self.g.m()
    }
}

/// A random tree and the ranks of its Euler tour.
pub struct TreeInput {
    tree: Tree,
    ranks: Vec<Node>,
}

/// Generate a random-attachment tree of `n` vertices.
pub fn tree_input(tr: &Tracer, n: usize, seed: u64) -> Rc<TreeInput> {
    let tree = tr.span_work("apps.tree_random", n as u64, || {
        Tree::random_attachment(n, seed)
    });
    let ranks = EulerTour::new(&tree, 0, Ranker::Sequential).rank;
    Rc::new(TreeInput { tree, ranks })
}

/// Fig. 1 on the simulated MTA-2: walk-based list ranking, ~10 nodes per
/// walk.
pub fn listrank_mta(input: &Rc<ListInput>, p: usize) -> Cell {
    let i = Rc::clone(input);
    Cell::new(
        format!("fig1/{}/p{p}", i.label()),
        "listrank.simulate_walk_ranking",
        "listrank.sim_mta_ns_per_instr",
        move |_| {
            let walks = (i.list.len() / 10).max(1);
            let (r, secs) =
                timed(|| simulate_walk_ranking(&i.list, &MtaParams::mta2(), p, MTA_STREAMS, walks));
            mta_outcome(r.report, secs, r.rank == i.oracle, 0)
        },
    )
}

/// Fig. 1 on the simulated Sun E4500: Helman–JáJá.
pub fn listrank_smp(input: &Rc<ListInput>, p: usize, seed: u64) -> Cell {
    let i = Rc::clone(input);
    Cell::new(
        format!("fig1/{}/p{p}", i.label()),
        "listrank.simulate_hj",
        "listrank.sim_smp_ns_per_access",
        move |_| {
            let (r, secs) =
                timed(|| simulate_hj(&i.list, &SmpParams::sun_e4500(), p, HJ_SUBLISTS, seed));
            smp_outcome(r.stats, secs, r.rank == i.oracle, 0)
        },
    )
}

/// Helman–JáJá on the host's own threads.
pub fn listrank_native(input: &Rc<ListInput>, threads: usize) -> Cell {
    let i = Rc::clone(input);
    Cell::new(
        format!("listrank/{}", i.label()),
        "listrank.helman_jaja",
        "listrank.native_ns_per_elem",
        move |_| {
            let cfg = HjConfig::with_threads(threads);
            let (rank, secs) = timed(|| helman_jaja(&i.list, &cfg));
            native_outcome(secs, i.list.len(), rank == i.oracle, vec![], 0)
        },
    )
}

/// Fig. 2 on the simulated MTA-2: Shiloach–Vishkin.
pub fn cc_mta(input: &Rc<GraphInput>, p: usize) -> Cell {
    let i = Rc::clone(input);
    Cell::new(
        format!("fig2/p{p}"),
        "concomp.simulate_sv_mta",
        "concomp.sim_mta_ns_per_instr",
        move |_| {
            let (r, secs) = timed(|| simulate_sv_mta(&i.g, &MtaParams::mta2(), p, MTA_STREAMS));
            let ok = same_partition(&r.labels, &i.components);
            mta_outcome(r.report, secs, ok, 0)
        },
    )
}

/// Fig. 2 on the simulated SMP.
pub fn cc_smp(input: &Rc<GraphInput>, p: usize) -> Cell {
    let i = Rc::clone(input);
    Cell::new(
        format!("fig2/p{p}"),
        "concomp.simulate_sv",
        "concomp.sim_smp_ns_per_access",
        move |_| {
            let (r, secs) = timed(|| simulate_sv(&i.g, &SmpParams::sun_e4500(), p));
            let ok = same_partition(&r.labels, &i.components);
            smp_outcome(r.stats, secs, ok, 0)
        },
    )
}

/// Shiloach–Vishkin on the host's threads.
pub fn cc_native(input: &Rc<GraphInput>) -> Cell {
    let i = Rc::clone(input);
    Cell::new(
        "concomp".into(),
        "concomp.shiloach_vishkin",
        "concomp.native_ns_per_edge",
        move |_| {
            let (labels, secs) = timed(|| shiloach_vishkin(&i.g));
            let ok = same_partition(&labels, &i.components);
            let fp = vec![("components", component_count(&i.g) as u64)];
            native_outcome(secs, i.elems(), ok, fp, 0)
        },
    )
}

/// Speculative colouring on the simulated MTA-2.
pub fn color_mta(input: &Rc<GraphInput>, p: usize) -> Cell {
    let i = Rc::clone(input);
    Cell::new(
        format!("color/p{p}"),
        "coloring.simulate_coloring_mta",
        "coloring.sim_mta_ns_per_instr",
        move |_| {
            let (r, secs) =
                timed(|| simulate_coloring_mta(&i.g, &MtaParams::mta2(), p, MTA_STREAMS));
            let ok = validate_coloring(&i.csr, &r.colors).is_ok();
            mta_outcome(r.report, secs, ok, r.rounds as u64)
        },
    )
}

/// Speculative colouring on the simulated SMP.
pub fn color_smp(input: &Rc<GraphInput>, p: usize) -> Cell {
    let i = Rc::clone(input);
    Cell::new(
        format!("color/p{p}"),
        "coloring.simulate_coloring_smp",
        "coloring.sim_smp_ns_per_access",
        move |_| {
            let (r, secs) = timed(|| simulate_coloring_smp(&i.g, &SmpParams::sun_e4500(), p));
            let ok = validate_coloring(&i.csr, &r.colors).is_ok();
            smp_outcome(r.stats, secs, ok, r.rounds as u64)
        },
    )
}

/// Speculative colouring on the host's threads. Which proper colouring
/// comes out depends on how the races resolve, so nothing is pinned.
pub fn color_native(input: &Rc<GraphInput>) -> Cell {
    let i = Rc::clone(input);
    Cell::new(
        "color".into(),
        "coloring.speculative_coloring",
        "coloring.native_ns_per_edge",
        move |_| {
            let (r, secs) = timed(|| speculative_coloring(&i.csr));
            let ok = validate_coloring(&i.csr, &r.colors).is_ok();
            native_outcome(secs, i.elems(), ok, vec![], 0)
        },
    )
}

/// Frontier BFS from `src` on the simulated MTA-2.
pub fn bfs_mta(input: &Rc<GraphInput>, p: usize, src: Node) -> Cell {
    let i = Rc::clone(input);
    let levels = bfs_levels(&i.csr, src);
    Cell::new(
        format!("bfs/p{p}/src{src}"),
        "bfs.simulate_bfs_mta",
        "bfs.sim_mta_ns_per_instr",
        move |_| {
            let (r, secs) =
                timed(|| simulate_bfs_mta(&i.g, src, &MtaParams::mta2(), p, MTA_STREAMS));
            mta_outcome(r.report, secs, r.levels == levels, r.level_count as u64)
        },
    )
}

/// Frontier BFS on the simulated SMP.
pub fn bfs_smp(input: &Rc<GraphInput>, p: usize) -> Cell {
    let i = Rc::clone(input);
    let levels = bfs_levels(&i.csr, BFS_SRC);
    Cell::new(
        format!("bfs/p{p}"),
        "bfs.simulate_bfs_smp",
        "bfs.sim_smp_ns_per_access",
        move |_| {
            let (r, secs) = timed(|| simulate_bfs_smp(&i.g, BFS_SRC, &SmpParams::sun_e4500(), p));
            smp_outcome(r.stats, secs, r.levels == levels, r.level_count as u64)
        },
    )
}

/// Frontier BFS on the host's threads.
pub fn bfs_native(input: &Rc<GraphInput>) -> Cell {
    let i = Rc::clone(input);
    let levels = bfs_levels(&i.csr, BFS_SRC);
    Cell::new(
        "bfs".into(),
        "bfs.parallel_bfs",
        "bfs.native_ns_per_edge",
        move |_| {
            let (r, secs) = timed(|| parallel_bfs(&i.csr, BFS_SRC));
            let fp = vec![("levels", level_count(&levels) as u64)];
            native_outcome(
                secs,
                i.elems(),
                r.levels == levels,
                fp,
                r.level_count as u64,
            )
        },
    )
}

/// Euler-tour ranking of a random tree on the simulated MTA-2.
pub fn euler_mta(input: &Rc<TreeInput>, p: usize) -> Cell {
    let i = Rc::clone(input);
    Cell::new(
        format!("euler/p{p}"),
        "apps.simulate_euler_mta",
        "apps.euler_mta_ns_per_instr",
        move |_| {
            let walks = (2 * (i.tree.n() - 1) / 10).max(1);
            let (r, secs) =
                timed(|| simulate_euler_mta(&i.tree, 0, &MtaParams::mta2(), p, MTA_STREAMS, walks));
            mta_outcome(r.report, secs, r.tour.rank == i.ranks, 0)
        },
    )
}

/// Euler-tour ranking on the simulated SMP.
pub fn euler_smp(input: &Rc<TreeInput>, p: usize) -> Cell {
    let i = Rc::clone(input);
    Cell::new(
        format!("euler/p{p}"),
        "apps.simulate_euler_smp",
        "apps.euler_smp_ns_per_access",
        move |_| {
            let (r, secs) =
                timed(|| simulate_euler_smp(&i.tree, 0, &SmpParams::sun_e4500(), p, HJ_SUBLISTS));
            smp_outcome(r.stats, secs, r.tour.rank == i.ranks, 0)
        },
    )
}

/// Minimum spanning forest (Borůvka over SV) on the host's threads, with
/// edge weights drawn from the seed.
pub fn msf_native(input: &Rc<GraphInput>, seed: u64) -> Cell {
    let i = Rc::clone(input);
    let mut rng = Rng::new(seed);
    let weights: Vec<u32> = (0..i.g.m()).map(|_| rng.below(1 << 20) as u32).collect();
    let oracle = kruskal_weight(&i.g, &weights);
    Cell::new(
        "msf".into(),
        "apps.minimum_spanning_forest",
        "apps.msf_native_ns_per_edge",
        move |_| {
            let (forest, secs) = timed(|| minimum_spanning_forest(&i.g, &weights));
            let weight: u64 = forest.iter().map(|&e| weights[e] as u64).sum();
            let fp = vec![("weight", weight), ("tree_edges", forest.len() as u64)];
            native_outcome(secs, i.elems(), weight == oracle, fp, 0)
        },
    )
}

/// Tarjan–Vishkin biconnected components on the host's threads.
pub fn biconn_native(input: &Rc<GraphInput>) -> Cell {
    let i = Rc::clone(input);
    let oracle = biconnected_oracle(&i.g);
    Cell::new(
        "biconn".into(),
        "apps.biconnected_components",
        "apps.biconn_native_ns_per_edge",
        move |_| {
            let (b, secs) = timed(|| biconnected_components(&i.g));
            let fp = vec![
                ("blocks", b.n_blocks as u64),
                ("bridges", b.bridges.len() as u64),
            ];
            let ok = same_partition(&b.block_of_edge, &oracle);
            native_outcome(secs, i.elems(), ok, fp, 0)
        },
    )
}

/// The `readfe`/`writeef`-contended accumulation of the suite's `sync`
/// cell, rebuilt here so that it runs on the benchmark's own graph: every
/// arc `u→w` folds its id into `acc[w]` through a `readfe`/`writeef` pair,
/// so a vertex's in-arcs serialise on its word's full/empty tag.
pub fn sync_mta(input: &Rc<GraphInput>, p: usize) -> Cell {
    let i = Rc::clone(input);
    Cell::new(
        format!("sync/p{p}"),
        "archperf.sync_kernel",
        "",
        move |tr| {
            let (n, arcs) = (i.csr.n(), i.csr.arc_count());
            let ((report, acc), secs) = timed(|| {
                let mut mach = MtaMachine::with_memory_words(MtaParams::mta2(), p, arcs + n + 16);
                let targets: Vec<i64> = i.csr.targets.iter().map(|&t| t as i64).collect();
                let adj = mach.memory_mut().alloc_init(&targets);
                let acc = mach.memory_mut().alloc_fill(n, 0);
                let counter = mach.memory_mut().alloc(1);
                let size = mach.memory_mut().alloc(1);
                mach.memory_mut().poke(size, arcs as i64);

                let regs = LoopRegs::standard();
                let (w, t, s) = (Reg(6), Reg(7), Reg(8));
                let mut b = ProgramBuilder::new();
                dynamic_loop_grained_mem(&mut b, counter, size, 8, regs, |b| {
                    b.load(w, regs.idx, adj as i64);
                    b.readfe(t, w, acc as i64);
                    b.addi(s, regs.idx, 1);
                    b.add(t, t, s);
                    b.writeef(t, w, acc as i64);
                });
                b.halt();
                let prog = tr.span("mta-sim.ProgramBuilder::build", || b.build());
                let report = tr.span("mta-sim.MtaMachine::run", || {
                    mach.run(&prog, MTA_STREAMS, |_, _| {})
                });
                (report, mach.memory().peek_slice(acc, n))
            });
            let mut oracle = vec![0i64; n];
            for (idx, &w) in i.csr.targets.iter().enumerate() {
                oracle[w as usize] += idx as i64 + 1;
            }
            mta_outcome(report, secs, acc == oracle, 0)
        },
    )
}
