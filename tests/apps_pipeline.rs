//! The MSF application across crates: Borůvka-over-SV's forest against
//! Kruskal's weight and against an unweighted spanning forest.

use archgraph::apps::msf::{kruskal_weight, minimum_spanning_forest};
use archgraph::graph::gen;
use archgraph::graph::rng::Rng;
use archgraph::graph::unionfind::UnionFind;

#[test]
fn msf_beats_arbitrary_forest_weights() {
    let g = gen::random_gnm(600, 3000, 5);
    let mut rng = Rng::new(6);
    let weights: Vec<u32> = (0..g.m()).map(|_| rng.below(10_000) as u32).collect();
    let msf = minimum_spanning_forest(&g, &weights);
    let msf_weight: u64 = msf.iter().map(|&i| weights[i] as u64).sum();
    assert_eq!(msf_weight, kruskal_weight(&g, &weights));
    // Any other spanning forest (union-find's, in edge order) weighs at
    // least as much.
    let mut uf = UnionFind::new(g.n);
    let other_weight: u64 = (0..g.m())
        .filter(|&i| uf.union(g.edges[i].u, g.edges[i].v))
        .map(|i| weights[i] as u64)
        .sum();
    assert!(other_weight >= msf_weight);
}
