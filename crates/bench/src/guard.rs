//! Empty-collection guards for the reporting bins.
//!
//! The figure/ratio binaries routinely dereference "the largest processor
//! count" or "the last sweep point" with `.last().unwrap()`, and look up
//! named series with `.expect("series present")`. Those are fine while the
//! sweep grids are hard-coded, but any future preset with an empty grid (or
//! a renamed series label) turns into an opaque panic deep in a report
//! path. The bins instead route through these helpers: the `Result` forms
//! are unit-testable, and the `*_or_exit` forms follow the strict-CLI
//! convention from the scale parser — one `error:` line on stderr, exit
//! status 2 — so a bad configuration fails loudly and greppably instead of
//! with a backtrace.
//!
//! Reached by: `--bin fig1`, `fig2`, `ratios` and `speedup` (`scripts/reproduce_all.sh`).

use archgraph_core::experiment::Series;

/// Last element of `items`, or an error naming the empty collection.
pub fn require_last<'a, T>(items: &'a [T], what: &str) -> Result<&'a T, String> {
    items.last().ok_or_else(|| format!("{what} is empty"))
}

/// The series labelled `label`, or an error listing the labels that are
/// actually present (e.g. when a scale's processor grid doesn't include
/// the requested `p`).
pub fn require_series<'a>(series: &'a [Series], label: &str) -> Result<&'a Series, String> {
    series.iter().find(|s| s.label == label).ok_or_else(|| {
        let present: Vec<&str> = series.iter().map(|s| s.label.as_str()).collect();
        format!(
            "no series labelled {label:?} in this sweep; present labels: {}",
            present.join(", ")
        )
    })
}

/// Print `error: <msg>` and exit with status 2 (the same bad-configuration
/// status the strict CLI parser uses, distinct from runtime failures).
pub fn config_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// [`require_last`] for `main` paths: diagnostic + exit 2 on empty.
pub fn last_or_exit<'a, T>(items: &'a [T], what: &str) -> &'a T {
    require_last(items, what).unwrap_or_else(|e| config_error(&e))
}

/// [`require_series`] for `main` paths: diagnostic + exit 2 on a miss.
pub fn series_or_exit<'a>(series: &'a [Series], label: &str) -> &'a Series {
    require_series(series, label).unwrap_or_else(|e| config_error(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn require_first_and_last_on_nonempty() {
        let v = [10, 20, 30];
        assert_eq!(require_last(&v, "grid"), Ok(&30));
    }

    #[test]
    fn require_first_and_last_name_the_empty_collection() {
        let v: [usize; 0] = [];
        assert_eq!(
            require_last(&v, "fig1 size list"),
            Err("fig1 size list is empty".to_string())
        );
    }

    #[test]
    fn require_series_finds_by_label() {
        let set = vec![
            Series::new("MTA Random p=8"),
            Series::new("MTA Ordered p=8"),
        ];
        assert_eq!(
            require_series(&set, "MTA Ordered p=8").unwrap().label,
            "MTA Ordered p=8"
        );
    }

    #[test]
    fn require_series_miss_lists_present_labels() {
        let set = vec![Series::new("SMP CC p=2")];
        let err = require_series(&set, "SMP CC p=8").unwrap_err();
        assert!(err.contains("no series labelled \"SMP CC p=8\""), "{err}");
        assert!(err.contains("SMP CC p=2"), "{err}");
    }
}
