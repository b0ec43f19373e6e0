//! Quickstart: the two kernels of the paper, run natively and verified
//! against their sequential oracles.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use archgraph::concomp::{shiloach_vishkin, sv_mta_style};
use archgraph::graph::gen;
use archgraph::graph::list::LinkedList;
use archgraph::graph::rng::Rng;
use archgraph::graph::unionfind::{component_count, connected_components, same_partition};
use archgraph::listrank::{helman_jaja, mta_style_rank, sequential_rank, HjConfig, MtaStyleConfig};

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!("host exposes {cores} CPU core(s); parallel speedup requires > 1.\n");

    // ---------- list ranking ----------
    let n = 1 << 20;
    let list = LinkedList::random(n, &mut Rng::new(42));
    println!("ranking a {n}-element Random list...");

    let t0 = std::time::Instant::now();
    let seq = sequential_rank(&list);
    let t_seq = t0.elapsed();

    let t0 = std::time::Instant::now();
    let hj = helman_jaja(&list, &HjConfig::with_threads(cores));
    let t_hj = t0.elapsed();

    let t0 = std::time::Instant::now();
    let walks = mta_style_rank(&list, &MtaStyleConfig::for_list(n, cores.max(2)));
    let t_walks = t0.elapsed();

    assert_eq!(hj, seq, "Helman-JaJa must match the sequential oracle");
    assert_eq!(walks, seq, "the walk algorithm must match too");
    println!("  sequential        {t_seq:?}");
    println!(
        "  Helman-JaJa       {t_hj:?}  (speedup {:.2}x)",
        t_seq.as_secs_f64() / t_hj.as_secs_f64()
    );
    println!(
        "  MTA-style walks   {t_walks:?}  (speedup {:.2}x)",
        t_seq.as_secs_f64() / t_walks.as_secs_f64()
    );

    // ---------- connected components ----------
    let nv = 1 << 17;
    let g = gen::random_gnm(nv, 4 * nv, 7);
    println!("\nconnected components of G({nv}, {} edges)...", g.m());

    let t0 = std::time::Instant::now();
    let oracle = connected_components(&g);
    let t_uf = t0.elapsed();

    let t0 = std::time::Instant::now();
    let sv = shiloach_vishkin(&g);
    let t_sv = t0.elapsed();

    let t0 = std::time::Instant::now();
    let sv3 = sv_mta_style(&g);
    let t_sv3 = t0.elapsed();

    assert!(same_partition(&sv, &oracle));
    assert!(same_partition(&sv3, &oracle));
    println!("  union-find (seq)        {t_uf:?}");
    println!("  Shiloach-Vishkin Alg.2  {t_sv:?}");
    println!("  Shiloach-Vishkin Alg.3  {t_sv3:?}");
    println!("  components found: {}", component_count(&g));
    println!("\nall parallel results verified against sequential oracles.");
}
