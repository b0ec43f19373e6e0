//! The six workloads: what each runs, at what size, and why it exists.
//!
//! Sizes are constants of the benchmark. They are chosen so that one pass
//! takes 0.5–1.2 s on the two-core host the baseline was recorded on, which
//! lets a ten-second run hold about ten passes; a workload whose work
//! depends on the input's shape (Shiloach–Vishkin takes three or four
//! iterations on G(n, m), a third more work) draws several input variants
//! from the seed and cycles through them, so that the median pass is a
//! typical input and not whichever one the seed happened to give.

use archgraph_bench::workloads::ListKind;

use crate::cells::{self, Cell, Outcome, BFS_SRC};
use crate::trace::Tracer;

/// A workload's name and the reason it exists (one line, ≤ 200 chars).
pub struct Info {
    /// Name as `--workload` takes it.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// Every workload, in the order `run.sh` runs them.
pub const ALL: [Info; 6] = [
    Info {
        name: "listrank-mta",
        why: "Fig. 1 pointer chasing on the simulated MTA-2: three long regions per cell, so the mta-sim event loop does nearly all the work",
    },
    Info {
        name: "graphkernels-mta",
        why: "SV, colouring, BFS and Euler tour on the MTA-2: many short regions, fetch-add hotspots and repeated program builds, which listrank-mta has almost none of",
    },
    Info {
        name: "sync-faults-mta",
        why: "the same engine driven through readfe/writeef retries and the four structural fault plans, so a fast path bought at the sync or fault path's cost shows",
    },
    Info {
        name: "smp-cache",
        why: "smp-sim only (E4500, p8): ordered lists take the L1-hit and prefetch path, random lists and graph kernels the miss, TLB and bus path; mta-sim does nothing",
    },
    Info {
        name: "native-kernels",
        why: "the kernels on the host's own threads: neither simulator runs, and it is the only workload the rayon shim's thread pool dominates",
    },
    Info {
        name: "daemon-serve",
        why: "closed loop, one client, through archgraphd on a Unix socket: one cold 24-cell sweep then warm resubmits that bypass both simulators and load server, json, cache and queue",
    },
];

/// Simulated processors of the p8 cells.
const P: usize = 8;

/// Host threads that compute at any one time, in every workload. The
/// sandbox gives its two virtual CPUs less than two real ones: two threads
/// in parallel took between 1.0 and 2.1 times as long as one alone, from one
/// second to the next, and no two-thread time can carry a bound there.
pub const THREADS: usize = 1;

/// One operation of a pass: a cell run, or one submit through the daemon.
pub struct Op {
    /// Name within the workload.
    pub name: String,
    /// The per-layer metric the operation's time feeds ("" for none).
    pub metric: &'static str,
    /// What it produced.
    pub out: Outcome,
}

/// One pass over a workload.
pub struct Pass {
    /// Its operations, in the order they ran.
    pub ops: Vec<Op>,
    /// From the start of the pass to the first result a user would see.
    pub first_result_s: f64,
}

impl Pass {
    /// Time inside the operations; verification between them is excluded.
    pub fn secs(&self) -> f64 {
        self.ops.iter().map(|o| o.out.secs).sum()
    }

    /// Work done by the operations.
    pub fn work(&self) -> u64 {
        self.ops.iter().map(|o| o.out.work).sum()
    }
}

/// A workload made of kernel cells: pass `i` runs every cell of variant
/// `i mod variants`.
pub struct KernelWorkload {
    /// The cells of each input variant.
    pub variants: Vec<Vec<Cell>>,
}

impl KernelWorkload {
    /// Run pass `i` (0-based) and verify its outputs.
    pub fn pass(&mut self, tr: &Tracer, i: usize) -> Pass {
        let cells = &self.variants[i % self.variants.len()];
        let ops: Vec<Op> = cells
            .iter()
            .map(|c| Op {
                name: c.name.clone(),
                metric: c.metric,
                out: c.run(tr),
            })
            .collect();
        Pass {
            first_result_s: ops[0].out.secs,
            ops,
        }
    }
}

/// The `k`-th input seed derived from the run's seed.
fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// Build a kernel workload's cells from the seed. `div` divides every size
/// (1 for the measured run, 4 for the per-engine passes, 16 for the unit
/// tests); `max_variants` caps the number of input variants.
pub fn build_kernel(
    name: &str,
    tr: &Tracer,
    seed: u64,
    div: usize,
    max_variants: usize,
) -> Option<KernelWorkload> {
    let g_n = |lg: usize| (1usize << lg) / div;
    let graph = |lg: usize, k: u64| cells::graph_input(tr, g_n(lg), 5 * g_n(lg), sub_seed(seed, k));
    let list = |kind, lg: usize| cells::list_input(tr, kind, (1usize << lg) / div, seed);
    let tree = |lg: usize, k: u64| cells::tree_input(tr, (1usize << lg) / div, sub_seed(seed, k));
    let draw = |n: usize, f: &dyn Fn(u64) -> Vec<Cell>| -> Vec<Vec<Cell>> {
        (0..n.min(max_variants) as u64).map(f).collect()
    };
    let variants = match name {
        "listrank-mta" => {
            let (random, ordered) = (list(ListKind::Random, 17), list(ListKind::Ordered, 17));
            vec![vec![
                cells::listrank_mta(&random, P),
                cells::listrank_mta(&ordered, P),
                cells::listrank_mta(&random, 1),
            ]]
        }
        "graphkernels-mta" => draw(5, &|k| {
            let (g, t) = (graph(14, k), tree(16, k));
            // Colouring first: its work barely depends on the graph, so the
            // first result is a steady one. Two BFS sources make five
            // cells, which puts the median operation inside one cell's
            // samples and not on the edge between two cells'.
            vec![
                cells::color_mta(&g, P),
                cells::bfs_mta(&g, P, BFS_SRC),
                cells::bfs_mta(&g, P, (g_n(14) / 2) as u32),
                cells::cc_mta(&g, P),
                cells::euler_mta(&t, P),
            ]
        }),
        "sync-faults-mta" => {
            let (g, random) = (graph(14, 0), list(ListKind::Random, 17));
            vec![vec![
                cells::sync_mta(&g, P),
                cells::sync_mta(&g, P).faulted(
                    "struct",
                    "stall=30,stall-period=300,link-latency=60,brownout=2,rate=1:11",
                ),
                cells::listrank_mta(&random, P).faulted(
                    "brownout",
                    "brownout=4,brownout-at=3000,brownout-for=30000:7",
                ),
                cells::bfs_mta(&g, P, BFS_SRC).faulted("stall", "stall=30,stall-period=300:7"),
                cells::color_mta(&g, P).faulted("link", "link-latency=60,rate=1:7"),
            ]]
        }
        "smp-cache" => {
            let (random, ordered) = (list(ListKind::Random, 20), list(ListKind::Ordered, 20));
            draw(5, &|k| {
                let (g, t) = (graph(15, k), tree(17, k));
                vec![
                    cells::listrank_smp(&random, P, seed),
                    cells::listrank_smp(&ordered, P, seed),
                    cells::cc_smp(&g, P),
                    cells::color_smp(&g, P),
                    cells::bfs_smp(&g, P),
                    cells::euler_smp(&t, P),
                ]
            })
        }
        "native-kernels" => {
            let (random, ordered) = (list(ListKind::Random, 21), list(ListKind::Ordered, 21));
            let (g, small) = (graph(18, 0), graph(16, 1));
            vec![vec![
                cells::listrank_native(&random, THREADS),
                cells::listrank_native(&ordered, THREADS),
                cells::cc_native(&g),
                cells::color_native(&g),
                cells::bfs_native(&g),
                cells::msf_native(&g, sub_seed(seed, 2)),
                cells::biconn_native(&small),
            ]]
        }
        _ => return None,
    };
    Some(KernelWorkload { variants })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_workload_verifies_at_a_sixteenth_of_its_size() {
        let tr = Tracer::new();
        for info in &ALL[..5] {
            let mut w = build_kernel(info.name, &tr, 7, 16, 2).expect("a kernel workload");
            for i in 0..w.variants.len() {
                let pass = w.pass(&tr, i);
                assert!(pass.work() > 0, "{}", info.name);
                for op in &pass.ops {
                    assert!(op.out.ok, "{}: {} failed verification", info.name, op.name);
                }
            }
        }
        assert!(build_kernel("daemon-serve", &tr, 7, 16, 1).is_none());
    }

    #[test]
    fn whys_fit_the_contract() {
        for info in &ALL {
            assert!(
                info.why.len() <= 200 && !info.why.contains('\n'),
                "{}",
                info.name
            );
        }
    }
}
