//! What one simulated SMP access costs the *host*, structure by structure:
//! uniform random accesses over a 16 MB array under `sun_e4500()`
//! parameters, timed against `Tlb`, each `Cache` level and the
//! `Prefetcher` alone and then through `ProcCtx::{read, write}` whole.
//! A second table times the list cells whole — `simulate_hj` on a Random
//! and an Ordered list of 2^20 and `simulate_seq` on the Random one — and
//! prints Random − Ordered: the simulated work is the same either way, so
//! the difference is what the host's own cache misses cost the kernel.
//! These are the attribution tables of EXPERIMENTS.md, "Simulator host cost
//! — SMP"; the file uses only what the crates have always exported, so the
//! same file runs in a checkout of an older commit.
//!
//! ```text
//! cargo run --release --example smp_access_cost
//! ```

use std::hint::black_box;
use std::time::Instant;

use archgraph::core::machine::SmpParams;
use archgraph::graph::list::LinkedList;
use archgraph::graph::rng::Rng;
use archgraph::listrank::sim_smp::{simulate_hj, simulate_seq};
use archgraph::smp::cache::Cache;
use archgraph::smp::machine::SmpMachine;
use archgraph::smp::prefetch::Prefetcher;
use archgraph::smp::tlb::Tlb;

const N: usize = 1 << 21; // u64 elements: 16 MB, 32 × the TLB's reach
const BYTES: u64 = 8 * N as u64;
const P: usize = 8;
const REPS: usize = 7;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 33
}

/// Cheapest of `REPS` runs, in seconds: what the host's other tenants add
/// to a run is never negative.
fn min_seconds<T>(mut run: impl FnMut() -> T) -> f64 {
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(run());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Cheapest pass of `N` calls, in ns per call.
fn ns_per_call(pass: impl FnMut() -> u64) -> f64 {
    min_seconds(pass) * 1e9 / N as f64
}

/// The list cells of `smp-cache` (2^20 nodes, 8 sublists a processor) and
/// the sequential comparator.
fn list_cells(params: &SmpParams) {
    const NODES: usize = 1 << 20;
    let random = LinkedList::random(NODES, &mut Rng::new(2005));
    let ordered = LinkedList::ordered(NODES);
    let ns = |ms: f64| ms * 1e6 / NODES as f64;

    println!("\nhost ms per list cell of 2^20 nodes, min of {REPS} (ns per node):");
    for p in [1usize, P] {
        let [rnd, ord] =
            [&random, &ordered].map(|l| 1e3 * min_seconds(|| simulate_hj(l, params, p, 8, 2005)));
        println!(
            "  simulate_hj p{p}   random {rnd:7.1} ({:5.1})   ordered {ord:7.1} ({:5.1})   \
             random - ordered {:7.1} ({:5.1})",
            ns(rnd),
            ns(ord),
            rnd - ord,
            ns(rnd - ord)
        );
    }
    let seq = 1e3 * min_seconds(|| simulate_seq(&random, params));
    println!("  simulate_seq      random {seq:7.1} ({:5.1})", ns(seq));
}

fn main() {
    let params = SmpParams::sun_e4500();
    let mut x = 1u64;
    let mut per_addr = |mut f: Box<dyn FnMut(u64) -> bool>| {
        ns_per_call(|| (0..N).map(|_| f(lcg(&mut x) % BYTES) as u64).sum())
    };

    // The address generator alone, subtracted from every row below.
    let floor = per_addr(Box::new(|a| a & 1 == 0));
    let mut tlb = Tlb::new(params.tlb_entries, params.page_bytes);
    let tlb_ns = per_addr(Box::new(move |a| tlb.access(a)));
    let mut l1 = Cache::new(params.l1_bytes, params.line_bytes, params.l1_assoc);
    let l1_ns = per_addr(Box::new(move |a| l1.access(a)));
    let mut l2 = Cache::new(params.l2_bytes, params.line_bytes, params.l2_assoc);
    let l2_ns = per_addr(Box::new(move |a| l2.access(a)));
    let mut pf = Prefetcher::new(params.prefetch_streams, params.prefetch_trigger);
    let pf_ns = per_addr(Box::new(move |a| pf.on_miss(a >> 6)));

    let mut m = SmpMachine::new(params.clone(), P);
    let arr = m.alloc_elems::<u64>(N);
    let mut y = 1u64;
    let mut whole = |write: bool, random: bool| {
        ns_per_call(|| {
            m.phase("probe", |pid, ctx| {
                for i in 0..N / P {
                    let idx = if random {
                        lcg(&mut y) as usize % N
                    } else {
                        pid * (N / P) + i
                    };
                    if write {
                        ctx.write_elem(arr, idx);
                    } else {
                        ctx.read_elem(arr, idx);
                    }
                }
            });
            0
        })
    };
    let read_ns = whole(false, true);
    let write_ns = whole(true, true);
    let seq_ns = whole(false, false);

    println!("host ns per simulated access, E4500 parameters, min of {REPS} passes of 2^21:");
    println!("  address generator alone      {floor:6.1}  (subtracted below)");
    println!("  Tlb::access, random          {:6.1}", tlb_ns - floor);
    println!("  L1 Cache::access, random     {:6.1}", l1_ns - floor);
    println!("  L2 Cache::access, random     {:6.1}", l2_ns - floor);
    println!("  Prefetcher::on_miss, random  {:6.1}", pf_ns - floor);
    println!("  ProcCtx::read, random        {:6.1}", read_ns - floor);
    println!("  ProcCtx::write, random       {:6.1}", write_ns - floor);
    println!("  ProcCtx::read, sequential    {seq_ns:6.1}");

    list_cells(&params);
}
