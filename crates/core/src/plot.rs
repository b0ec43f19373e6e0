//! Minimal ASCII line plots for the figure binaries.
//!
//! The paper's figures are log-log running-time plots with one curve per
//! processor count; [`ascii_plot`] renders the same shape in a terminal:
//! points are bucketed onto a character grid with log-scaled axes and one
//! glyph per series.
//!
//! Reached by: `--bin fig1` and `fig2` (`scripts/reproduce_all.sh`): their ASCII plots.

use crate::experiment::Series;

/// Grid width in characters (x axis).
const WIDTH: usize = 60;
/// Grid height in characters (y axis).
const HEIGHT: usize = 18;
/// Y axis label: every plot is a running time.
const Y_LABEL: &str = "seconds";

const GLYPHS: &[u8] = b"ox+*#@%&$";

/// Grid cell of `v` on a log axis spanning `lo..=hi` over `cells` cells.
fn scale(v: f64, lo: f64, hi: f64, cells: usize) -> usize {
    let (v, lo, hi) = (v.max(1e-300).ln(), lo.max(1e-300).ln(), hi.max(1e-300).ln());
    if hi <= lo {
        return 0;
    }
    let t = (v - lo) / (hi - lo);
    ((t * (cells - 1) as f64).round() as usize).min(cells - 1)
}

/// Render the series as a log-log ASCII plot (x = point `n` under
/// `x_label`, y = point value in seconds). Returns the multi-line string
/// including a legend.
pub fn ascii_plot(series: &[Series], x_label: &str) -> String {
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| (p.n as f64, p.value)))
        .collect();
    if pts.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &pts {
        x_lo = x_lo.min(x);
        x_hi = x_hi.max(x);
        y_lo = y_lo.min(y);
        y_hi = y_hi.max(y);
    }
    let mut grid = vec![vec![b' '; WIDTH]; HEIGHT];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for p in &s.points {
            let cx = scale(p.n as f64, x_lo, x_hi, WIDTH);
            let cy = scale(p.value, y_lo, y_hi, HEIGHT);
            let row = HEIGHT - 1 - cy;
            grid[row][cx] = glyph;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{Y_LABEL} (log, {y_lo:.3e} .. {y_hi:.3e})\n"));
    for row in &grid {
        out.push_str("  |");
        out.push_str(std::str::from_utf8(row).unwrap());
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(WIDTH));
    out.push('\n');
    out.push_str(&format!("   {x_label} (log, {x_lo} .. {x_hi})\n"));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!(
            "   {} = {}\n",
            GLYPHS[si % GLYPHS.len()] as char,
            s.label
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(label: &str, pts: &[(usize, f64)]) -> Series {
        let mut s = Series::new(label);
        for &(n, t) in pts {
            s.push(n, 1, t);
        }
        s
    }

    #[test]
    fn renders_grid_and_legend() {
        let s = mk("a", &[(1000, 0.1), (2000, 0.2), (4000, 0.4)]);
        let out = ascii_plot(&[s], "n");
        assert!(out.contains("o"));
        assert!(out.contains("a"));
        assert_eq!(
            out.lines().filter(|l| l.starts_with("  |")).count(),
            18,
            "grid height"
        );
    }

    #[test]
    fn empty_series_is_safe() {
        assert_eq!(ascii_plot(&[], "n"), "(no data)\n");
    }

    #[test]
    fn monotone_series_descends_on_grid() {
        // Larger times map to higher rows (we only check extremes).
        let s = mk("a", &[(1, 0.001), (1000, 1.0)]);
        let out = ascii_plot(&[s], "n");
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with("  |")).collect();
        // Max point in the top row, min in the bottom row.
        assert!(rows.first().unwrap().contains('o'));
        assert!(rows.last().unwrap().contains('o'));
    }

    #[test]
    fn distinct_glyphs_per_series() {
        let a = mk("a", &[(1, 0.1)]);
        let b = mk("b", &[(2, 0.2)]);
        let out = ascii_plot(&[a, b], "n");
        assert!(out.contains("o = a"));
        assert!(out.contains("x = b"));
    }

    #[test]
    fn single_point_degenerate_ranges() {
        let s = mk("a", &[(5, 0.5)]);
        let out = ascii_plot(&[s], "n");
        assert!(out.contains('o'));
    }

    #[test]
    fn scale_clamps_and_orders() {
        assert_eq!(scale(1.0, 1.0, 10.0, 10), 0);
        assert_eq!(scale(10.0, 1.0, 10.0, 10), 9);
        assert_eq!(scale(5.0, 5.0, 5.0, 10), 0, "degenerate range");
        assert!(scale(100.0, 1.0, 1000.0, 100) > scale(10.0, 1.0, 1000.0, 100));
    }
}
