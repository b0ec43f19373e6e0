//! Order statistics: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` gives them, and the percentile
//! picker with the ten-samples-beyond rule.

/// Percentiles a latency may be reported at, lowest first.
pub const LADDER: [u32; 5] = [50, 75, 90, 95, 99];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` by the exclusive method, i.e. what
/// `statistics.quantiles(values, n=4)` returns. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// The `p`-th percentile by nearest rank, taking the upper neighbour: with
/// `n` samples it is the value that `floor(n·p/100)` samples lie below. On
/// a mix of a few operation kinds this lands on the fastest sample of a
/// group rather than on its slowest, which is the steadier of the two.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let idx = (v.len() * p as usize / 100).min(v.len() - 1);
    v[idx]
}

/// The highest percentile of [`LADDER`] that still has at least ten samples
/// beyond it (`n·(100 − p)/100 ≥ 10`); `None` when even the median has
/// fewer (n < 20).
pub fn highest_percentile(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n * (100 - p as usize) >= 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 30, 45, 50], n=4) == [15.0, 30.0, 47.5]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 45.0, 50.0]),
            (15.0, 30.0, 47.5)
        );
    }

    #[test]
    fn percentile_takes_the_upper_nearest_rank() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        // Two groups of two: the median is the fastest of the slow group.
        assert_eq!(percentile(&[1.0, 1.1, 5.0, 5.2], 50), 5.0);
    }

    #[test]
    fn picker_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50));
        assert_eq!(highest_percentile(39), Some(50));
        assert_eq!(highest_percentile(40), Some(75));
        assert_eq!(highest_percentile(99), Some(75));
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(199), Some(90));
        assert_eq!(highest_percentile(200), Some(95));
        assert_eq!(highest_percentile(1000), Some(99));
    }
}
