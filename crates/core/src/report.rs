//! Table and CSV rendering shared by the figure-regeneration binaries.
//!
//! Every figure binary prints (a) a fixed-width table mirroring the paper's
//! presentation and (b) machine-readable CSV so the series can be re-plotted.
//!
//! Reached by: `--bin table1`, `all`, `speedup` and `calibrate` (`scripts/reproduce_all.sh`).

use crate::experiment::Series;

/// A simple fixed-width text table builder.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; short rows are padded with empty cells, long rows are
    /// an error (panic) because they indicate a harness bug.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            r.len() <= self.header.len(),
            "row has {} cells but table has {} columns",
            r.len(),
            self.header.len()
        );
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Render with aligned columns and a rule under the header.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = width[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncol.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Render a set of series as CSV: `series,n,p,seconds` rows (the figures'
/// series, whose value is simulated seconds).
pub fn series_csv(series: &[Series]) -> String {
    let mut out = String::from("series,n,p,seconds\n");
    for s in series {
        for pt in &s.points {
            out.push_str(&format!("{},{},{},{:.9}\n", s.label, pt.n, pt.p, pt.value));
        }
    }
    out
}

/// Format seconds with an adaptive unit (s / ms / µs).
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} us", s * 1e6)
    }
}

/// Format a dimensionless ratio such as a speedup ("7.9x").
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Format a fraction as a percentage ("93%").
pub fn fmt_percent(f: f64) -> String {
    format!("{:.0}%", f * 100.0)
}

/// Compute the ratio table between two same-shaped series (e.g. SMP time /
/// MTA time at matching `(n, p)` points). Points missing from either side
/// are skipped.
pub fn ratios(numerator: &Series, denominator: &Series) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for pt in &numerator.points {
        if let Some(d) = denominator.at(pt.n, pt.p) {
            if d > 0.0 {
                out.push((pt.n, pt.p, pt.value / d));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["n", "p", "time"]);
        t.row(["1024", "1", "1.0 s"]);
        t.row(["1048576", "8", "0.5 s"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines equal length because of padding.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[0].contains("time"));
    }

    #[test]
    fn table_pads_short_rows() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["1"]);
        assert_eq!(t.rows, [["1", "", ""]]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn table_rejects_long_rows() {
        let mut t = Table::new(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn csv_roundtrips_points() {
        let mut s = Series::new("smp-random");
        s.push(1 << 20, 4, 0.25);
        let csv = series_csv(&[s]);
        assert!(csv.starts_with("series,n,p,seconds\n"));
        assert!(csv.contains("smp-random,1048576,4,0.25"));
    }

    #[test]
    fn second_formatting_picks_units() {
        assert_eq!(fmt_seconds(2.5), "2.500 s");
        assert_eq!(fmt_seconds(0.0025), "2.500 ms");
        assert_eq!(fmt_seconds(0.0000025), "2.500 us");
    }

    #[test]
    fn ratio_and_percent_formatting() {
        assert_eq!(fmt_ratio(34.567), "34.57x");
        assert_eq!(fmt_percent(0.934), "93%");
    }

    #[test]
    fn ratios_skip_missing_and_zero() {
        let mut a = Series::new("a");
        a.push(10, 1, 4.0);
        a.push(20, 1, 6.0);
        let mut b = Series::new("b");
        b.push(10, 1, 2.0);
        b.push(30, 1, 0.0);
        let r = ratios(&a, &b);
        assert_eq!(r, vec![(10, 1, 2.0)]);
    }
}
