//! Prefix computation over a linked list with a non-trivial operator —
//! the general problem of which list ranking is an instance (paper §3),
//! and the primitive behind the expression-evaluation and tree-contraction
//! applications the paper cites.
//!
//! We evaluate a chain of affine updates `x ← a·x + b` laid out as a
//! linked list in arbitrary memory order: composing the maps along the
//! list with the parallel prefix gives, at every node, the value the
//! chain produces up to that node — without ever materializing the
//! sequential order first.
//!
//! ```text
//! cargo run --release --example expression_prefix
//! ```

use archgraph::graph::list::LinkedList;
use archgraph::graph::rng::Rng;
use archgraph::listrank::prefix::{par_prefix, seq_prefix};

/// An affine map `x ↦ a·x + b` over i128 (wide enough to avoid overflow
/// for this demo's bounded coefficients).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Affine {
    a: i128,
    b: i128,
}

/// Composition `(f ∘ earlier)`: apply `earlier` first, then `f`.
/// Associative, not commutative — exactly the operator class ⊕ the paper's
/// prefix formulation admits.
fn compose(earlier: Affine, f: Affine) -> Affine {
    Affine {
        a: (f.a * earlier.a).rem_euclid(1_000_003),
        b: (f.a * earlier.b + f.b).rem_euclid(1_000_003),
    }
}

fn main() {
    let n = 1 << 19;
    let mut rng = Rng::new(99);
    let list = LinkedList::random(n, &mut rng);

    // A random affine update at every node.
    let updates: Vec<Affine> = (0..n)
        .map(|_| Affine {
            a: (rng.below(5) + 1) as i128,
            b: rng.below(1000) as i128,
        })
        .collect();

    println!("composing {n} affine updates along a randomly-laid-out list...");
    let t0 = std::time::Instant::now();
    let seq = seq_prefix(&list, &updates, compose);
    let t_seq = t0.elapsed();

    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let t0 = std::time::Instant::now();
    let par = par_prefix(&list, &updates, compose, cores, 1);
    let t_par = t0.elapsed();

    assert_eq!(par, seq, "parallel prefix must preserve composition order");

    // The tail's prefix is the whole chain's composite map.
    let order = list.order();
    let tail = *order.last().unwrap() as usize;
    let total = par[tail];
    let x0 = 1i128;
    println!("  sequential prefix: {t_seq:?}");
    println!(
        "  parallel prefix ({cores} core(s) available): {t_par:?}  (speedup {:.2}x)",
        t_seq.as_secs_f64() / t_par.as_secs_f64()
    );
    println!(
        "  full chain applied to x0 = {x0}: {} (mod 1,000,003)",
        (total.a * x0 + total.b).rem_euclid(1_000_003)
    );

    // Spot-check against direct evaluation over the first few nodes.
    let mut x = x0;
    for &slot in order.iter().take(5) {
        let u = updates[slot as usize];
        x = (u.a * x + u.b).rem_euclid(1_000_003);
        let via_prefix = {
            let p = par[slot as usize];
            (p.a * x0 + p.b).rem_euclid(1_000_003)
        };
        assert_eq!(x, via_prefix);
    }
    println!("  spot-checked prefix values against direct chain evaluation.");
}
