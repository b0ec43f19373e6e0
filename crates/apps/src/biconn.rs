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

use archgraph_concomp::sv_mta_style;
use archgraph_graph::edgelist::EdgeList;
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
    let mut parent = vec![NIL; n];
    let mut parent_edge = vec![u32::MAX; n];
    // Adjacency over tree edges only, for rooting.
    let mut tree_adj: Vec<Vec<(Node, u32)>> = vec![Vec::new(); n];
    for (i, e) in g.edges.iter().enumerate() {
        if e.u != e.v && uf.union(e.u, e.v) {
            is_tree[i] = true;
            tree_adj[e.u as usize].push((e.v, i as u32));
            tree_adj[e.v as usize].push((e.u, i as u32));
        }
    }

    // --- 2. root every tree; preorder numbering, subtree sizes ---
    let mut pre = vec![0u32; n];
    let mut size = vec![1u32; n];
    let mut order: Vec<Node> = Vec::with_capacity(n); // DFS finish-friendly order
    let mut visited = vec![false; n];
    let mut counter = 0u32;
    for root in 0..n as Node {
        if visited[root as usize] {
            continue;
        }
        visited[root as usize] = true;
        let mut stack = vec![root];
        // True DFS preorder: number a vertex when it is *popped*, so each
        // subtree occupies the contiguous range [pre(v), pre(v)+size(v)).
        while let Some(v) = stack.pop() {
            pre[v as usize] = counter;
            counter += 1;
            order.push(v);
            for &(w, eid) in &tree_adj[v as usize] {
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

    // --- 3. low/high: subtree-wide extremes of non-tree reach ---
    let mut low: Vec<u32> = pre.clone();
    let mut high: Vec<u32> = pre.clone();
    for (i, e) in g.edges.iter().enumerate() {
        if is_tree[i] || e.u == e.v {
            continue;
        }
        let (pu, pw) = (pre[e.u as usize], pre[e.v as usize]);
        low[e.u as usize] = low[e.u as usize].min(pw);
        high[e.u as usize] = high[e.u as usize].max(pw);
        low[e.v as usize] = low[e.v as usize].min(pu);
        high[e.v as usize] = high[e.v as usize].max(pu);
    }
    for &v in order.iter().rev() {
        if parent[v as usize] != NIL {
            let p = parent[v as usize] as usize;
            low[p] = low[p].min(low[v as usize]);
            high[p] = high[p].max(high[v as usize]);
        }
    }

    // --- 4. auxiliary graph on the non-root vertices (= tree edges) ---
    let unrelated = |u: usize, w: usize| {
        let in_u = pre[u] <= pre[w] && pre[w] < pre[u] + size[u];
        let in_w = pre[w] <= pre[u] && pre[u] < pre[w] + size[w];
        !in_u && !in_w
    };
    let mut aux_pairs: Vec<(Node, Node)> = Vec::new();
    // Rule (a): non-tree edges between unrelated vertices.
    for (i, e) in g.edges.iter().enumerate() {
        if is_tree[i] || e.u == e.v {
            continue;
        }
        let (u, w) = (e.u as usize, e.v as usize);
        if unrelated(u, w) && parent[u] != NIL && parent[w] != NIL {
            aux_pairs.push((e.u, e.v));
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
            aux_pairs.push((w as Node, v));
        }
    }
    let aux = EdgeList::from_pairs(n, aux_pairs);

    // --- 5. parallel connectivity on the auxiliary graph ---
    let labels = sv_mta_style(&aux);

    // --- 6. per-edge block labels ---
    // Tree edge (p(v), v) -> labels[v]. Non-tree edge -> deeper endpoint's
    // tree edge. Self loops -> fresh labels beyond n.
    let mut block_of_edge = vec![0 as Node; m];
    let mut fresh = n as Node;
    for (i, e) in g.edges.iter().enumerate() {
        if e.u == e.v {
            block_of_edge[i] = fresh;
            fresh += 1;
            continue;
        }
        let v = if is_tree[i] {
            // The child endpoint of the tree edge.
            if parent[e.v as usize] != NIL && parent_edge[e.v as usize] == i as u32 {
                e.v
            } else {
                e.u
            }
        } else {
            // Deeper endpoint (larger preorder is inside the other's span
            // when related; either works when unrelated).
            if pre[e.u as usize] > pre[e.v as usize] {
                e.u
            } else {
                e.v
            }
        };
        block_of_edge[i] = labels[v as usize];
    }

    // --- 7. blocks, articulation points, bridges ---
    // Labels are vertex ids `< n` or self-loop labels `n..fresh`, so one
    // counter per label counts each block's edges. A self-loop label is
    // its loop's alone, so loops never add to another block's count.
    let mut edges_in_block = vec![0usize; fresh as usize];
    for &b in &block_of_edge {
        edges_in_block[b as usize] += 1;
    }
    let n_blocks = edges_in_block.iter().filter(|&&c| c > 0).count();
    let bridges: Vec<usize> = (0..m)
        .filter(|&i| {
            let e = g.edges[i];
            e.u != e.v && edges_in_block[block_of_edge[i] as usize] == 1
        })
        .collect();

    // Articulation: vertex incident to >= 2 distinct non-loop blocks, seen
    // as an incident label that differs from the vertex's first one.
    let mut first = vec![NIL; n];
    let mut articulation = vec![false; n];
    for (e, &b) in g.edges.iter().zip(&block_of_edge) {
        if e.u == e.v {
            continue;
        }
        for x in [e.u as usize, e.v as usize] {
            if first[x] == NIL {
                first[x] = b;
            } else if first[x] != b {
                articulation[x] = true;
            }
        }
    }

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

    #[test]
    fn self_loops_are_singleton_blocks() {
        let g = EdgeList::from_pairs(3, [(0, 1), (1, 1), (1, 2)]);
        let tv = biconnected_components(&g);
        assert_ne!(tv.block_of_edge[1], tv.block_of_edge[0]);
        assert_ne!(tv.block_of_edge[1], tv.block_of_edge[2]);
    }
}
