//! Sequential greedy coloring and the properness validator.
//!
//! Reached by: `archperf`'s native-kernels `color` op (`validate_coloring` checks it).

use archgraph_graph::csr::Csr;
use archgraph_graph::Node;

/// First-fit greedy coloring in vertex order. Uses at most `Δ + 1`
/// colors. This is the oracle the parallel speculative kernels are
/// validated against — not for equal colors (speculation may legally
/// settle on a different proper coloring) but for properness and the
/// same `Δ + 1` bound.
pub fn greedy_coloring(g: &Csr) -> Vec<Node> {
    let n = g.n();
    let mut colors = vec![0 as Node; n];
    let mut forbidden: Vec<u32> = Vec::new();
    for v in 0..n as Node {
        let deg = g.degree(v);
        if forbidden.len() < deg + 1 {
            forbidden.resize(deg + 1, u32::MAX);
        }
        let stamp = v;
        for &w in g.neighbors(v) {
            if w < v {
                let c = colors[w as usize] as usize;
                if c < forbidden.len() {
                    forbidden[c] = stamp;
                }
            }
        }
        let mut c = 0usize;
        while forbidden[c] == stamp {
            c += 1;
        }
        colors[v as usize] = c as Node;
    }
    colors
}

/// Check that `colors` is a proper distance-1 coloring of `g` that
/// respects the greedy bound; returns the number of colors used.
///
/// Fails (with a description) if any edge is monochromatic, or if more
/// than `Δ + 1` colors appear.
pub fn validate_coloring(g: &Csr, colors: &[Node]) -> Result<usize, String> {
    let n = g.n();
    if colors.len() != n {
        return Err(format!("{} colors for {} vertices", colors.len(), n));
    }
    let maxdeg = (0..n as Node).map(|v| g.degree(v)).max().unwrap_or(0);
    let mut used = 0usize;
    for v in 0..n as Node {
        let cv = colors[v as usize];
        if cv as usize > maxdeg {
            return Err(format!("vertex {v} has color {cv} > Δ = {maxdeg}"));
        }
        used = used.max(cv as usize + 1);
        for &w in g.neighbors(v) {
            if w != v && colors[w as usize] == cv {
                return Err(format!("edge ({v}, {w}) is monochromatic ({cv})"));
            }
        }
    }
    Ok(used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::gen;

    #[test]
    fn greedy_is_proper_on_random_graphs() {
        for (n, m, seed) in [(50usize, 100usize, 1u64), (200, 800, 2), (500, 3000, 3)] {
            let g = Csr::from_edge_list(&gen::random_gnm(n, m, seed));
            let colors = greedy_coloring(&g);
            let used = validate_coloring(&g, &colors).expect("greedy must be proper");
            assert!(used >= 1, "n={n} m={m}");
        }
    }

    #[test]
    fn structured_graphs_get_known_counts() {
        // A path is 2-colorable and greedy finds it; an odd cycle needs 3;
        // a complete graph needs n.
        let path = Csr::from_edge_list(&gen::path(64));
        assert_eq!(validate_coloring(&path, &greedy_coloring(&path)), Ok(2));
        let odd = Csr::from_edge_list(&gen::cycle(9));
        assert_eq!(validate_coloring(&odd, &greedy_coloring(&odd)), Ok(3));
        let k = Csr::from_edge_list(&gen::complete(7));
        assert_eq!(validate_coloring(&k, &greedy_coloring(&k)), Ok(7));
    }

    #[test]
    fn validator_rejects_monochromatic_edges() {
        let g = Csr::from_edge_list(&gen::path(4));
        assert!(validate_coloring(&g, &[0, 0, 1, 0]).is_err());
        assert!(validate_coloring(&g, &[0, 1]).is_err());
        // Color above Δ + 1 is rejected even if proper.
        assert!(validate_coloring(&g, &[5, 1, 0, 1]).is_err());
    }

    #[test]
    fn edgeless_graph_uses_one_color() {
        let g = Csr::from_edge_list(&archgraph_graph::edgelist::EdgeList::empty(10));
        let colors = greedy_coloring(&g);
        assert_eq!(colors, vec![0; 10]);
        assert_eq!(validate_coloring(&g, &colors), Ok(1));
    }
}
