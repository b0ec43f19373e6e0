//! Workload generators.
//!
//! The paper's connected-components experiments use random graphs "created
//! by randomly adding m unique edges to the vertex set", citing LEDA's
//! generator — that is `G(n, m)` without self loops or duplicates
//! ([`random_gnm`]). The related-work comparisons (Krishnamurthy et al.,
//! Goddard et al.) use regular 2-D and 3-D meshes, which we provide too,
//! along with the standard structured families used by the test suites.
//!
//! Reached by: every graph suite cell (its `G(n, m)` input).

use crate::edgelist::{Edge, EdgeList};
use crate::rng::Rng;
use crate::Node;

/// Maximum number of undirected simple edges on `n` vertices.
pub fn max_edges(n: usize) -> usize {
    n.saturating_mul(n.saturating_sub(1)) / 2
}

/// `G(n, m)`: a uniformly random simple graph with exactly `m` edges
/// (paper §5, the LEDA-style generator). Panics if `m > n(n−1)/2`.
///
/// # Examples
/// ```
/// let g = archgraph_graph::gen::random_gnm(1000, 4000, 7);
/// assert_eq!(g.n, 1000);
/// assert_eq!(g.m(), 4000);
/// assert!(g.is_simple());
/// ```
pub fn random_gnm(n: usize, m: usize, seed: u64) -> EdgeList {
    assert!(
        m <= max_edges(n),
        "m = {m} exceeds the {} possible edges on n = {n}",
        max_edges(n)
    );
    let mut rng = Rng::new(seed);
    let mut chosen: Vec<Edge> = Vec::with_capacity(m + m / 8);
    // Rejection loop with sort+dedup batches: amortized O(m log m), exact
    // edge count, no hashing.
    while chosen.len() < m {
        let need = m - chosen.len();
        // Oversample slightly: collisions are rare for sparse graphs.
        let batch = need + need / 4 + 16;
        for _ in 0..batch {
            let u = rng.below(n as u64) as Node;
            let v = rng.below(n as u64) as Node;
            if u != v {
                chosen.push(Edge::new(u, v).canonical());
            }
        }
        chosen.sort_unstable();
        chosen.dedup();
        chosen.truncate(m);
    }
    // Shuffle so edge order carries no structure (the SV codes are
    // sensitive to presentation order).
    rng.shuffle(&mut chosen);
    EdgeList { n, edges: chosen }
}

/// A simple path `0 − 1 − ... − (n−1)`: the worst case for pointer-jumping
/// depth.
pub fn path(n: usize) -> EdgeList {
    let pairs = (0..n.saturating_sub(1)).map(|i| (i as Node, (i + 1) as Node));
    EdgeList::from_pairs(n, pairs)
}

/// A cycle on `n ≥ 3` vertices (for `n < 3` returns a path).
pub fn cycle(n: usize) -> EdgeList {
    let mut g = path(n);
    if n >= 3 {
        g.edges.push(Edge::new((n - 1) as Node, 0));
    }
    g
}

/// A star: vertex 0 joined to all others. The best case for SV (one
/// iteration).
pub fn star(n: usize) -> EdgeList {
    let pairs = (1..n).map(|i| (0 as Node, i as Node));
    EdgeList::from_pairs(n, pairs)
}

/// A complete binary tree on `n` vertices (vertex `i` has children
/// `2i+1`, `2i+2`).
pub fn binary_tree(n: usize) -> EdgeList {
    let mut edges = Vec::new();
    for i in 0..n {
        for c in [2 * i + 1, 2 * i + 2] {
            if c < n {
                edges.push(Edge::new(i as Node, c as Node));
            }
        }
    }
    EdgeList { n, edges }
}

/// The complete graph `K_n`.
///
/// Reached by: `tests/kernel_differential.rs`, `tests/failure_injection.rs`
/// and the dense-graph unit tests of the kernel crates.
pub fn complete(n: usize) -> EdgeList {
    let mut edges = Vec::with_capacity(max_edges(n));
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push(Edge::new(u as Node, v as Node));
        }
    }
    EdgeList { n, edges }
}

/// A `rows × cols` 2-D mesh (grid) — the topology on which Krishnamurthy
/// et al. reported CM-5 speedups. Vertex `(r, c)` is `r * cols + c`.
pub fn mesh2d(rows: usize, cols: usize) -> EdgeList {
    let n = rows * cols;
    let mut edges = Vec::with_capacity(2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = (r * cols + c) as Node;
            if c + 1 < cols {
                edges.push(Edge::new(v, v + 1));
            }
            if r + 1 < rows {
                edges.push(Edge::new(v, v + cols as Node));
            }
        }
    }
    EdgeList { n, edges }
}

/// A 2-D torus: mesh plus wraparound edges in both dimensions.
///
/// Reached by: the BFS, colouring and MTA SV unit tests (a regular graph
/// with long cycles).
pub fn torus2d(rows: usize, cols: usize) -> EdgeList {
    let mut g = mesh2d(rows, cols);
    if cols > 2 {
        for r in 0..rows {
            g.edges
                .push(Edge::new((r * cols + cols - 1) as Node, (r * cols) as Node));
        }
    }
    if rows > 2 {
        for c in 0..cols {
            g.edges
                .push(Edge::new(((rows - 1) * cols + c) as Node, c as Node));
        }
    }
    g
}

/// An `x × y × z` 3-D mesh.
///
/// Reached by: `concomp::sv`'s unit tests; ROADMAP item 14's locality
/// claims are to use it.
pub fn mesh3d(x: usize, y: usize, z: usize) -> EdgeList {
    let n = x * y * z;
    let idx = |i: usize, j: usize, k: usize| (i * y * z + j * z + k) as Node;
    let mut edges = Vec::with_capacity(3 * n);
    for i in 0..x {
        for j in 0..y {
            for k in 0..z {
                if i + 1 < x {
                    edges.push(Edge::new(idx(i, j, k), idx(i + 1, j, k)));
                }
                if j + 1 < y {
                    edges.push(Edge::new(idx(i, j, k), idx(i, j + 1, k)));
                }
                if k + 1 < z {
                    edges.push(Edge::new(idx(i, j, k), idx(i, j, k + 1)));
                }
            }
        }
    }
    EdgeList { n, edges }
}

/// A graph made of `k` disjoint random connected blobs of `block_n`
/// vertices each (every blob gets a random spanning cycle plus extras), so
/// the true component count is known by construction. Useful as a CC
/// stress workload with a known answer.
///
/// Reached by: the union-find, BFS-components, SV and MSF unit tests,
/// which check a component count known by construction.
pub fn planted_components(k: usize, block_n: usize, extra_per_block: usize, seed: u64) -> EdgeList {
    assert!(block_n >= 1);
    let mut out = EdgeList::empty(0);
    let mut rng = Rng::new(seed);
    for b in 0..k {
        let mut blob = EdgeList::empty(block_n);
        if block_n >= 2 {
            // Random Hamiltonian path keeps the blob connected.
            let perm = rng.permutation(block_n);
            for w in perm.windows(2) {
                blob.edges.push(Edge::new(w[0], w[1]));
            }
            for _ in 0..extra_per_block {
                let u = rng.below(block_n as u64) as Node;
                let v = rng.below(block_n as u64) as Node;
                if u != v {
                    blob.edges.push(Edge::new(u, v));
                }
            }
        }
        out.append_shifted(&blob, b * block_n);
    }
    out.n = k * block_n;
    out
}

/// `count` isolated vertices appended to a copy of `g` — exercises the
/// algorithms' handling of degree-0 vertices.
///
/// Reached by: `tests/kernel_differential.rs`,
/// `tests/failure_injection.rs` and the kernel crates' unit tests.
pub fn with_isolated(g: &EdgeList, count: usize) -> EdgeList {
    EdgeList {
        n: g.n + count,
        edges: g.edges.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_has_exact_m_unique_edges() {
        for (n, m, seed) in [(100, 300, 1u64), (50, 0, 2), (10, 45, 3), (1000, 5000, 4)] {
            let g = random_gnm(n, m, seed);
            assert_eq!(g.m(), m, "n={n} m={m}");
            assert!(g.is_simple());
            assert!(g.check_ranges());
        }
    }

    #[test]
    fn gnm_is_deterministic_per_seed() {
        let a = random_gnm(200, 800, 7);
        let b = random_gnm(200, 800, 7);
        let c = random_gnm(200, 800, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn gnm_rejects_overfull() {
        random_gnm(4, 7, 0);
    }

    #[test]
    fn gnm_complete_extreme() {
        let g = random_gnm(6, 15, 5);
        assert_eq!(g.m(), 15);
        assert!(g.is_simple());
    }

    #[test]
    fn path_cycle_star_shapes() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(cycle(2).m(), 1, "tiny cycles degrade to paths");
        assert_eq!(star(5).m(), 4);
        assert_eq!(star(5).degrees()[0], 4);
        assert_eq!(path(0).m(), 0);
        assert_eq!(path(1).m(), 0);
    }

    #[test]
    fn binary_tree_edge_count() {
        assert_eq!(binary_tree(1).m(), 0);
        assert_eq!(binary_tree(7).m(), 6);
        assert_eq!(binary_tree(100).m(), 99);
    }

    #[test]
    fn complete_graph_edge_count() {
        assert_eq!(complete(5).m(), 10);
        assert!(complete(5).is_simple());
    }

    #[test]
    fn mesh2d_edge_count() {
        // rows*(cols-1) + cols*(rows-1)
        let g = mesh2d(3, 4);
        assert_eq!(g.n, 12);
        assert_eq!(g.m(), 3 * 3 + 4 * 2);
        assert!(g.is_simple());
    }

    #[test]
    fn torus_adds_wraparound() {
        let g = torus2d(4, 4);
        assert_eq!(g.m(), mesh2d(4, 4).m() + 8);
        assert!(g.is_simple());
    }

    #[test]
    fn mesh3d_edge_count() {
        let g = mesh3d(2, 3, 4);
        assert_eq!(g.n, 24);
        // (x-1)yz + x(y-1)z + xy(z-1) = 12 + 16 + 18
        assert_eq!(g.m(), 12 + 16 + 18);
        assert!(g.is_simple());
    }

    #[test]
    fn planted_components_counts() {
        let g = planted_components(5, 10, 3, 9);
        assert_eq!(g.n, 50);
        assert!(g.check_ranges());
        // Each blob has at least its spanning path's 9 edges.
        assert!(g.m() >= 5 * 9);
    }

    #[test]
    fn planted_singletons() {
        let g = planted_components(4, 1, 0, 0);
        assert_eq!(g.n, 4);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn isolated_vertices_extend_n_only() {
        let base = path(4);
        let g = with_isolated(&base, 6);
        assert_eq!(g.n, 10);
        assert_eq!(g.m(), base.m());
    }
}
