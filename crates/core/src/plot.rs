//! Minimal ASCII line plots for the figure binaries.
//!
//! The paper's figures are log-log running-time plots with one curve per
//! processor count; [`ascii_plot`] renders the same shape in a terminal:
//! points are bucketed onto a character grid with log-scaled axes and one
//! glyph per series.
//!
//! Reached by: `--bin fig1` and `fig2` (`scripts/reproduce_all.sh`): their ASCII plots.

use crate::experiment::Series;

/// Rendering options for [`ascii_plot`].
#[derive(Debug, Clone)]
pub struct PlotOptions {
    /// Grid width in characters (x axis).
    pub width: usize,
    /// Grid height in characters (y axis).
    pub height: usize,
    /// Log-scale the x axis.
    pub log_x: bool,
    /// Log-scale the y axis.
    pub log_y: bool,
    /// Axis labels.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
}

impl Default for PlotOptions {
    fn default() -> Self {
        PlotOptions {
            width: 60,
            height: 18,
            log_x: true,
            log_y: true,
            x_label: "n".to_string(),
            y_label: "seconds".to_string(),
        }
    }
}

const GLYPHS: &[u8] = b"ox+*#@%&$";

fn scale(v: f64, lo: f64, hi: f64, log: bool, cells: usize) -> usize {
    let (v, lo, hi) = if log {
        (v.max(1e-300).ln(), lo.max(1e-300).ln(), hi.max(1e-300).ln())
    } else {
        (v, lo, hi)
    };
    if hi <= lo {
        return 0;
    }
    let t = (v - lo) / (hi - lo);
    ((t * (cells - 1) as f64).round() as usize).min(cells - 1)
}

/// Render the series as an ASCII plot (x = point `n`, y = point value).
/// Returns the multi-line string including a legend.
pub fn ascii_plot(series: &[Series], opts: &PlotOptions) -> String {
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
    let mut grid = vec![vec![b' '; opts.width]; opts.height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for p in &s.points {
            let cx = scale(p.n as f64, x_lo, x_hi, opts.log_x, opts.width);
            let cy = scale(p.value, y_lo, y_hi, opts.log_y, opts.height);
            let row = opts.height - 1 - cy;
            grid[row][cx] = glyph;
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{} ({}{:.3e} .. {:.3e})\n",
        opts.y_label,
        if opts.log_y { "log, " } else { "" },
        y_lo,
        y_hi
    ));
    for row in &grid {
        out.push_str("  |");
        out.push_str(std::str::from_utf8(row).unwrap());
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(opts.width));
    out.push('\n');
    out.push_str(&format!(
        "   {} ({}{} .. {})\n",
        opts.x_label,
        if opts.log_x { "log, " } else { "" },
        x_lo,
        x_hi
    ));
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
        let out = ascii_plot(&[s], &PlotOptions::default());
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
        assert_eq!(ascii_plot(&[], &PlotOptions::default()), "(no data)\n");
    }

    #[test]
    fn monotone_series_descends_on_grid() {
        // Larger times map to higher rows (we only check extremes).
        let s = mk("a", &[(1, 0.001), (1000, 1.0)]);
        let out = ascii_plot(&[s], &PlotOptions::default());
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with("  |")).collect();
        // Max point in the top row, min in the bottom row.
        assert!(rows.first().unwrap().contains('o'));
        assert!(rows.last().unwrap().contains('o'));
    }

    #[test]
    fn distinct_glyphs_per_series() {
        let a = mk("a", &[(1, 0.1)]);
        let b = mk("b", &[(2, 0.2)]);
        let out = ascii_plot(&[a, b], &PlotOptions::default());
        assert!(out.contains("o = a"));
        assert!(out.contains("x = b"));
    }

    #[test]
    fn single_point_degenerate_ranges() {
        let s = mk("a", &[(5, 0.5)]);
        let out = ascii_plot(&[s], &PlotOptions::default());
        assert!(out.contains('o'));
    }

    #[test]
    fn scale_clamps_and_orders() {
        assert_eq!(scale(1.0, 1.0, 10.0, false, 10), 0);
        assert_eq!(scale(10.0, 1.0, 10.0, false, 10), 9);
        assert_eq!(scale(5.0, 5.0, 5.0, false, 10), 0, "degenerate range");
        assert!(scale(100.0, 1.0, 1000.0, true, 100) > scale(10.0, 1.0, 1000.0, true, 100));
    }
}
