//! Biconnected components by the Tarjan–Vishkin reduction — the machinery
//! beneath the ear-decomposition work the paper cites (\[2\]) and a
//! showcase of the whole stack composing: spanning tree → rooted
//! numbering → subtree reach (low/high) → an *auxiliary graph* whose
//! connected components — computed with the workspace's parallel SV —
//! are exactly the biconnected components of the input.
//!
//! The reduction (JáJá §5.3): identify every non-root vertex `v` with its
//! tree edge `(p(v), v)`. Join two tree edges in the auxiliary graph when
//!
//! * **(a)** a non-tree edge `(u, w)` connects *unrelated* vertices
//!   (neither an ancestor of the other): join `(p(u),u)`–`(p(w),w)`;
//! * **(b)** a child edge's subtree reaches outside its parent's span:
//!   for tree edge `(v, w)` with `v = p(w)`, if `low(w) < pre(v)` or
//!   `high(w) ≥ pre(v) + size(v)`, join `(p(v),v)`–`(v,w)`.
//!
//! Connected components of the auxiliary graph group the tree edges into
//! blocks; every non-tree edge joins the block of its deeper endpoint's
//! tree edge. Articulation points are the vertices incident to more than
//! one block; bridges are the blocks of size one.
//!
//! Verified against an iterative Hopcroft–Tarjan oracle on arbitrary
//! multigraphs (self loops become singleton blocks by convention).
//!
//! Reached by: the `biconn/native` suite cell and `archperf`'s native-kernels `biconn` op.

use archgraph_concomp::sv_mta_style;
use archgraph_graph::edgelist::{Edge, EdgeList};
use archgraph_graph::unionfind::UnionFind;
use archgraph_graph::{Node, NIL};

/// The biconnectivity decomposition of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Biconnectivity {
    /// `block_of_edge[i]` — block label of edge `i` (labels are arbitrary
    /// but equal iff same block). Isolated conventions: self loops get
    /// unique labels.
    pub block_of_edge: Vec<Node>,
    /// Number of distinct blocks.
    pub n_blocks: usize,
    /// `articulation[v]` — true when `v` lies in ≥ 2 blocks.
    pub articulation: Vec<bool>,
    /// Indices of bridge edges (blocks containing exactly one edge, not
    /// counting self loops).
    pub bridges: Vec<usize>,
}

/// Compute biconnected components via the Tarjan–Vishkin auxiliary-graph
/// reduction, using the parallel SV connectivity kernel on the auxiliary
/// graph.
pub fn biconnected_components(g: &EdgeList) -> Biconnectivity {
    let n = g.n;
    let m = g.m();

    // --- 1. spanning forest (deterministic DSU sweep keeps edge ids) ---
    let mut uf = UnionFind::new(n);
    let mut is_tree = vec![false; m];
    let mut tree_edges: Vec<u32> = Vec::with_capacity(n.saturating_sub(1));
    let mut loops = 0usize;
    // `start[v + 1]` counts v's tree edges, then becomes v's row end in
    // one CSR of tree adjacency (degree count, prefix sum, fill in edge
    // order, so each row lists its edges as the edge array does).
    let mut start = vec![0u32; n + 1];
    for (i, e) in g.edges.iter().enumerate() {
        if e.u == e.v {
            loops += 1;
        } else if uf.union(e.u, e.v) {
            is_tree[i] = true;
            tree_edges.push(i as u32);
            start[e.u as usize + 1] += 1;
            start[e.v as usize + 1] += 1;
        }
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut next = start.clone();
    let mut tree_adj = vec![(0 as Node, 0u32); 2 * tree_edges.len()];
    for &i in &tree_edges {
        let e = g.edges[i as usize];
        for (x, y) in [(e.u, e.v), (e.v, e.u)] {
            tree_adj[next[x as usize] as usize] = (y, i);
            next[x as usize] += 1;
        }
    }

    // --- 2. root every tree; preorder numbering, subtree sizes ---
    let mut parent = vec![NIL; n];
    let mut parent_edge = vec![u32::MAX; n];
    let mut pre = vec![0u32; n];
    let mut size = vec![1u32; n];
    let mut order: Vec<Node> = Vec::with_capacity(n); // DFS finish-friendly order
    let mut visited = vec![false; n];
    let mut stack: Vec<Node> = Vec::new();
    for root in 0..n as Node {
        if visited[root as usize] {
            continue;
        }
        visited[root as usize] = true;
        stack.push(root);
        // True DFS preorder: number a vertex when it is *popped*, so each
        // subtree occupies the contiguous range [pre(v), pre(v)+size(v)).
        while let Some(v) = stack.pop() {
            pre[v as usize] = order.len() as u32;
            order.push(v);
            let row = start[v as usize] as usize..start[v as usize + 1] as usize;
            for &(w, eid) in &tree_adj[row] {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    parent[w as usize] = v;
                    parent_edge[w as usize] = eid;
                    stack.push(w);
                }
            }
        }
    }
    // Subtree sizes: children always appear after parents in `order`
    // (stack DFS preserves the invariant), so a reverse sweep suffices.
    for &v in order.iter().rev() {
        if parent[v as usize] != NIL {
            size[parent[v as usize] as usize] += size[v as usize];
        }
    }

    // --- 3. one pass over the non-tree edges: low/high seeds, rule (a) ---
    // The auxiliary graph lives on the non-root vertices (= tree edges).
    // Rule (a) joins the tree edges above the endpoints of a non-tree edge
    // between unrelated vertices; neither is a root, since a root is an
    // ancestor of its whole tree.
    let unrelated = |u: usize, w: usize| {
        let in_u = pre[u] <= pre[w] && pre[w] < pre[u] + size[u];
        let in_w = pre[w] <= pre[u] && pre[u] < pre[w] + size[w];
        !in_u && !in_w
    };
    let mut low: Vec<u32> = pre.clone();
    let mut high: Vec<u32> = pre.clone();
    let mut aux: Vec<Edge> = Vec::with_capacity(m - tree_edges.len() - loops + n);
    for (i, e) in g.edges.iter().enumerate() {
        if is_tree[i] || e.u == e.v {
            continue;
        }
        let (u, w) = (e.u as usize, e.v as usize);
        let (pu, pw) = (pre[u], pre[w]);
        low[u] = low[u].min(pw);
        high[u] = high[u].max(pw);
        low[w] = low[w].min(pu);
        high[w] = high[w].max(pu);
        if unrelated(u, w) {
            aux.push(*e);
        }
    }
    // low/high: subtree-wide extremes of non-tree reach.
    for &v in order.iter().rev() {
        if parent[v as usize] != NIL {
            let p = parent[v as usize] as usize;
            low[p] = low[p].min(low[v as usize]);
            high[p] = high[p].max(high[v as usize]);
        }
    }
    // Rule (b): child edge reaches outside the parent's span.
    for w in 0..n {
        let v = parent[w];
        if v == NIL || parent[v as usize] == NIL {
            continue; // w's parent is a root: no edge above v to join
        }
        let pv = pre[v as usize];
        let sv = size[v as usize];
        if low[w] < pv || high[w] >= pv + sv {
            aux.push(Edge::new(w as Node, v));
        }
    }

    // --- 4. parallel connectivity on the auxiliary graph ---
    let labels = sv_mta_style(&EdgeList { n, edges: aux });

    // --- 5. block labels, per-block counts, articulation: one pass ---
    // Tree edge (p(v), v) -> labels[v]. Non-tree edge -> deeper endpoint's
    // tree edge. Self loops -> fresh labels `n..n + loops`. Labels are
    // vertex ids `< n` or self-loop labels, so one counter per label
    // counts each block's edges; a self-loop label is its loop's alone.
    // A vertex articulates when an incident non-loop label differs from
    // its first one.
    let mut block_of_edge = Vec::with_capacity(m);
    let mut edges_in_block = vec![0u32; n + loops];
    let mut first = vec![NIL; n];
    let mut articulation = vec![false; n];
    let mut fresh = n as Node;
    for (i, e) in g.edges.iter().enumerate() {
        let b = if e.u == e.v {
            fresh += 1;
            fresh - 1
        } else {
            let v = if is_tree[i] {
                // The child endpoint of the tree edge.
                if parent_edge[e.v as usize] == i as u32 {
                    e.v
                } else {
                    e.u
                }
            } else if pre[e.u as usize] > pre[e.v as usize] {
                // Deeper endpoint (larger preorder is inside the other's
                // span when related; either works when unrelated).
                e.u
            } else {
                e.v
            };
            let b = labels[v as usize];
            for x in [e.u as usize, e.v as usize] {
                if first[x] == NIL {
                    first[x] = b;
                } else if first[x] != b {
                    articulation[x] = true;
                }
            }
            b
        };
        edges_in_block[b as usize] += 1;
        block_of_edge.push(b);
    }
    let n_blocks = edges_in_block.iter().filter(|&&c| c > 0).count();
    let bridges: Vec<usize> = (0..m)
        .filter(|&i| {
            let e = g.edges[i];
            e.u != e.v && edges_in_block[block_of_edge[i] as usize] == 1
        })
        .collect();

    Biconnectivity {
        block_of_edge,
        n_blocks,
        articulation,
        bridges,
    }
}

/// Iterative Hopcroft–Tarjan oracle: per-edge block labels via a DFS with
/// an explicit edge stack. Self loops get unique labels (matching the
/// reduction's convention).
pub fn biconnected_oracle(g: &EdgeList) -> Vec<Node> {
    let n = g.n;
    let m = g.m();
    // Incidence lists with edge ids.
    let mut adj: Vec<Vec<(Node, u32)>> = vec![Vec::new(); n];
    for (i, e) in g.edges.iter().enumerate() {
        if e.u == e.v {
            continue;
        }
        adj[e.u as usize].push((e.v, i as u32));
        adj[e.v as usize].push((e.u, i as u32));
    }

    let mut block = vec![NIL; m];
    let mut next_block: Node = 0;
    let mut disc = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut time = 0u32;
    let mut estack: Vec<u32> = Vec::new();
    let mut used_edge = vec![false; m];

    // Explicit DFS frames: (vertex, incidence cursor, edge-into-vertex).
    for start in 0..n {
        if disc[start] != u32::MAX {
            continue;
        }
        disc[start] = time;
        low[start] = time;
        time += 1;
        let mut frames: Vec<(usize, usize, u32)> = vec![(start, 0, u32::MAX)];
        while let Some(&mut (v, ref mut cur, _in_edge)) = frames.last_mut() {
            if *cur < adj[v].len() {
                let (w, eid) = adj[v][*cur];
                *cur += 1;
                if used_edge[eid as usize] {
                    continue;
                }
                used_edge[eid as usize] = true;
                let w = w as usize;
                if disc[w] == u32::MAX {
                    estack.push(eid);
                    disc[w] = time;
                    low[w] = time;
                    time += 1;
                    frames.push((w, 0, eid));
                } else {
                    // Back edge.
                    estack.push(eid);
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                // Retreat from v over in_edge.
                let (v, _, in_edge) = frames.pop().unwrap();
                if let Some(&(p, _, _)) = frames.last() {
                    if low[v] >= disc[p] {
                        // Pop a block ending at in_edge.
                        let label = next_block;
                        next_block += 1;
                        while let Some(top) = estack.pop() {
                            block[top as usize] = label;
                            if top == in_edge {
                                break;
                            }
                        }
                    }
                    low[p] = low[p].min(low[v]);
                }
            }
        }
        debug_assert!(estack.is_empty(), "edge stack drains per component");
    }
    // Self loops: unique labels.
    for (i, e) in g.edges.iter().enumerate() {
        if e.u == e.v {
            block[i] = next_block;
            next_block += 1;
        }
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::gen;
    use archgraph_graph::rng::Rng;
    use archgraph_graph::unionfind::same_partition;
    use std::collections::{BTreeMap, BTreeSet};

    /// `n_blocks`, bridges and articulation points read off per-edge
    /// block labels, as the `Biconnectivity` fields define them.
    fn summary(g: &EdgeList, labels: &[Node]) -> (usize, Vec<usize>, Vec<bool>) {
        let mut size: BTreeMap<Node, usize> = BTreeMap::new();
        let mut incident: Vec<BTreeSet<Node>> = vec![BTreeSet::new(); g.n];
        for (e, &b) in g.edges.iter().zip(labels) {
            if e.u != e.v {
                *size.entry(b).or_default() += 1;
                incident[e.u as usize].insert(b);
                incident[e.v as usize].insert(b);
            }
        }
        let n_blocks = labels.iter().collect::<BTreeSet<_>>().len();
        let bridges = (0..g.m())
            .filter(|&i| g.edges[i].u != g.edges[i].v && size[&labels[i]] == 1)
            .collect();
        let articulation = incident.iter().map(|s| s.len() >= 2).collect();
        (n_blocks, bridges, articulation)
    }

    fn check(g: &EdgeList) {
        let tv = biconnected_components(g);
        let oracle = biconnected_oracle(g);
        assert!(
            same_partition(&tv.block_of_edge, &oracle),
            "block partition mismatch on n={} m={}",
            g.n,
            g.m()
        );
    }

    #[test]
    fn classic_shapes() {
        // A cycle is one block; a path is all bridges; a "theta" is one.
        check(&gen::cycle(8));
        check(&gen::path(8));
        check(&gen::star(6));
        check(&gen::complete(6));
        check(&gen::mesh2d(4, 5));
        check(&gen::binary_tree(31));
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        // The textbook articulation example.
        let g = EdgeList::from_pairs(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let tv = biconnected_components(&g);
        check(&g);
        assert_eq!(tv.n_blocks, 2);
        assert!(tv.articulation[2], "the shared vertex articulates");
        assert!(!tv.articulation[0] && !tv.articulation[1]);
        assert!(tv.bridges.is_empty());
    }

    #[test]
    fn bridge_detection() {
        // Two triangles joined by a single edge: that edge is a bridge.
        let g = EdgeList::from_pairs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let tv = biconnected_components(&g);
        check(&g);
        assert_eq!(tv.bridges, vec![6], "the joining edge is the bridge");
        assert!(tv.articulation[2] && tv.articulation[3]);
        assert_eq!(tv.n_blocks, 3);
    }

    #[test]
    fn trees_are_all_bridges() {
        let t = gen::binary_tree(40);
        let tv = biconnected_components(&t);
        assert_eq!(tv.bridges.len(), t.m());
        assert_eq!(tv.n_blocks, t.m());
        // Internal vertices articulate; leaves don't.
        let deg = t.degrees();
        for (v, &d) in deg.iter().enumerate() {
            assert_eq!(tv.articulation[v], d >= 2, "vertex {v}");
        }
    }

    #[test]
    fn random_multigraphs_match_oracle() {
        let mut rng = Rng::new(71);
        for trial in 0..60u64 {
            let n = 4 + rng.below(40) as usize;
            let m = rng.below(80) as usize;
            let pairs: Vec<(Node, Node)> = (0..m)
                .map(|_| (rng.below(n as u64) as Node, rng.below(n as u64) as Node))
                .collect();
            let g = EdgeList::from_pairs(n, pairs);
            let tv = biconnected_components(&g);
            let oracle = biconnected_oracle(&g);
            assert!(
                same_partition(&tv.block_of_edge, &oracle),
                "trial {trial}: n={n} m={}",
                g.m()
            );
            assert_eq!(
                (tv.n_blocks, tv.bridges, tv.articulation),
                summary(&g, &oracle),
                "trial {trial}: blocks, bridges or cut vertices differ"
            );
        }
    }

    #[test]
    fn random_connected_graphs() {
        for seed in 0..8u64 {
            check(&gen::random_gnm(60, 120, seed));
            check(&gen::random_gnm(100, 110, seed + 100));
        }
    }

    #[test]
    fn degenerate_inputs() {
        check(&EdgeList::empty(0));
        check(&EdgeList::empty(5));
        check(&EdgeList::from_pairs(3, [(0, 0), (1, 1)])); // loops only
        check(&EdgeList::from_pairs(2, vec![(0, 1); 4])); // parallel bundle
    }

    #[test]
    fn parallel_edges_form_one_block_with_tree_edge() {
        let g = EdgeList::from_pairs(2, vec![(0, 1), (0, 1)]);
        let tv = biconnected_components(&g);
        assert_eq!(tv.block_of_edge[0], tv.block_of_edge[1]);
        assert!(tv.bridges.is_empty(), "a doubled edge is not a bridge");
    }

    /// FNV-1a over `block_of_edge`, `bridges` and `articulation`, each
    /// value as little-endian bytes (`u32`, `u64`, one byte per flag).
    fn fnv(tv: &Biconnectivity) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        tv.block_of_edge.iter().for_each(|b| put(&b.to_le_bytes()));
        tv.bridges
            .iter()
            .for_each(|&i| put(&(i as u64).to_le_bytes()));
        tv.articulation.iter().for_each(|&a| put(&[a as u8]));
        h
    }

    #[test]
    fn outputs_are_pinned_bit_for_bit() {
        // Labels are aux-graph component minima, so the outputs are exact,
        // not just a partition. Recorded before the bookkeeping went flat
        // (CSR rooting, one non-tree pass): two G(2^12, 5·2^12) graphs
        // (9 and 15 blocks) and two G(2^12, 2^12) ones (≈ 1 400 bridges).
        for (m, seed, want) in [
            (5 << 12, 5u64, 0x14d0_98f5_312b_e54fu64),
            (5 << 12, 2005, 0x2736_0dd9_db9e_84c8),
            (1 << 12, 5, 0x93d8_c976_76f7_e856),
            (1 << 12, 2005, 0xd859_86e2_8093_3cc3),
        ] {
            let tv = biconnected_components(&gen::random_gnm(1 << 12, m, seed));
            let (blocks, bridges) = (tv.n_blocks, tv.bridges.len());
            assert_eq!(
                fnv(&tv),
                want,
                "m = {m}, seed {seed}: {blocks} blocks, {bridges} bridges"
            );
        }
    }

    #[test]
    fn self_loops_are_singleton_blocks() {
        let g = EdgeList::from_pairs(3, [(0, 1), (1, 1), (1, 2)]);
        let tv = biconnected_components(&g);
        assert_ne!(tv.block_of_edge[1], tv.block_of_edge[0]);
        assert_ne!(tv.block_of_edge[1], tv.block_of_edge[2]);
    }
}
