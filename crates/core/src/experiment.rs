//! Figure series: the `(n, p, value)` points a sweep produces, grouped
//! under a label. The sweeps build them, and `report` and `plot` render
//! them as tables, CSV and ASCII plots.
//!
//! Reached by: `--bin fig1`, `fig2`, `table1` and `all` (`scripts/reproduce_all.sh`): their series.

/// One data point of a series: a problem size, a processor count and the
/// plotted quantity there.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Problem size (list length or edge count, figure dependent).
    pub n: usize,
    /// Processor count.
    pub p: usize,
    /// The plotted quantity (simulated seconds for the figures,
    /// utilization for Table 1).
    pub value: f64,
}

/// A named series of points, e.g. "MTA Random p=4".
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Display label for the series.
    pub label: String,
    /// The points in sweep order.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Create an empty series with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, n: usize, p: usize, value: f64) {
        self.points.push(SeriesPoint { n, p, value });
    }

    /// The value at a given `(n, p)` if present.
    pub fn at(&self, n: usize, p: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|pt| pt.n == n && pt.p == p)
            .map(|pt| pt.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_lookup_and_speedup() {
        let mut s = Series::new("test");
        s.push(1000, 1, 8.0);
        s.push(1000, 4, 2.0);
        assert_eq!(s.at(1000, 4), Some(2.0));
        assert_eq!(s.at(1000, 2), None);
    }
}
