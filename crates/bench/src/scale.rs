//! Problem-size presets for the figure harnesses.
//!
//! The paper runs 20 M-element lists and 1 M-vertex / 4–20 M-edge graphs
//! on big iron; the default preset scales those down so every figure
//! regenerates in minutes on a laptop while staying far above the cache-
//! capacity knee (so the *shapes* — ratios, scaling, crossovers — are
//! unchanged). `--full` selects paper-scale inputs.
//!
//! Reached by: every `--bin` that `scripts/reproduce_all.sh` runs (the scale argument).

/// A size preset for the sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Quick smoke test (seconds) — used by integration tests.
    Smoke,
    /// Default laptop scale (minutes).
    Default,
    /// Paper scale (hours on the interpreted MTA simulator).
    Full,
}

impl Scale {
    /// Parse from a CLI flag word.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// List sizes for Fig. 1 (number of elements).
    pub fn fig1_sizes(self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![1 << 12, 1 << 13],
            Scale::Default => vec![1 << 17, 1 << 18, 1 << 19, 1 << 20],
            Scale::Full => vec![1 << 22, 1 << 23, 20 * (1 << 20)],
        }
    }

    /// `(n, m)` pairs for Fig. 2 (vertices, edges). The paper fixes
    /// `n = 1M` and sweeps `m = 4M..20M`; we keep the 4×–20× edge ratios.
    pub fn fig2_sizes(self) -> (usize, Vec<usize>) {
        let n = match self {
            Scale::Smoke => 1 << 10,
            Scale::Default => 1 << 14,
            Scale::Full => 1 << 20,
        };
        let ms = [4, 8, 12, 16, 20].iter().map(|k| k * n).collect();
        (n, ms)
    }

    /// Processor counts for both figures (the paper: 1, 2, 4, 8).
    pub fn procs(self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![1, 2],
            _ => vec![1, 2, 4, 8],
        }
    }

    /// List size for Table 1 (paper: 20 M nodes).
    pub fn table1_list_size(self) -> usize {
        match self {
            Scale::Smoke => 1 << 12,
            Scale::Default => 1 << 18,
            Scale::Full => 20 * (1 << 20),
        }
    }

    /// `(n, m)` for Table 1's connected components (paper: 1M, 20M).
    pub fn table1_graph_size(self) -> (usize, usize) {
        match self {
            Scale::Smoke => (1 << 10, 1 << 12),
            Scale::Default => (1 << 13, 20 << 13),
            Scale::Full => (1 << 20, 20 << 20),
        }
    }
}

/// Strict scale parsing shared by the bin CLIs: every word must be a scale
/// preset and at most one may appear. Anything else is an error — a typo
/// like `ful` or a misspelled flag must not silently fall back to the
/// default experiment (it used to, and a "full" run that quietly ran at
/// `Default` scale wastes hours of attention before anyone notices).
pub fn parse_scale_args<'a, I>(args: I) -> Result<Scale, String>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut scale = None;
    for a in args {
        match (Scale::parse(a), scale) {
            (Some(s), None) => scale = Some(s),
            (Some(_), Some(_)) => return Err(format!("duplicate scale argument `{a}`")),
            (None, _) => return Err(format!("unrecognized argument `{a}`")),
        }
    }
    Ok(scale.unwrap_or(Scale::Default))
}

/// [`parse_scale_args`] for `main`: prints the error plus a usage line and
/// exits nonzero on anything unrecognized.
pub fn scale_or_usage(args: &[String], usage: &str) -> Scale {
    match parse_scale_args(args.iter().map(String::as_str)) {
        Ok(s) => s,
        Err(e) => usage_error(&e, usage),
    }
}

/// Print `error: <msg>` and a usage line, then exit with status 2 (the
/// conventional bad-usage code, distinct from runtime failures).
pub fn usage_error(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn full_matches_paper_headline_sizes() {
        assert!(Scale::Full.fig1_sizes().contains(&(20 * (1 << 20))));
        let (n, ms) = Scale::Full.fig2_sizes();
        assert_eq!(n, 1 << 20);
        assert_eq!(ms.first(), Some(&(4 << 20)));
        assert_eq!(ms.last(), Some(&(20 << 20)));
        assert_eq!(Scale::Full.table1_graph_size(), (1 << 20, 20 << 20));
    }

    #[test]
    fn edge_ratios_are_scale_invariant() {
        for s in [Scale::Smoke, Scale::Default, Scale::Full] {
            let (n, ms) = s.fig2_sizes();
            let ratios: Vec<usize> = ms.iter().map(|m| m / n).collect();
            assert_eq!(ratios, vec![4, 8, 12, 16, 20]);
        }
    }

    #[test]
    fn procs_follow_paper() {
        assert_eq!(Scale::Default.procs(), vec![1, 2, 4, 8]);
    }

    #[test]
    fn strict_args_accept_one_scale_word() {
        assert_eq!(parse_scale_args([]), Ok(Scale::Default));
        assert_eq!(parse_scale_args(["full"]), Ok(Scale::Full));
        assert_eq!(parse_scale_args(["smoke"]), Ok(Scale::Smoke));
    }

    #[test]
    fn strict_args_reject_typos_and_duplicates() {
        // The original bug: `ful` fell through `find_map(Scale::parse)` and
        // silently ran at Default scale.
        assert!(parse_scale_args(["ful"]).is_err());
        assert!(parse_scale_args(["--full"]).is_err());
        assert!(parse_scale_args(["full", "extra"]).is_err());
        assert!(parse_scale_args(["smoke", "full"]).is_err());
    }
}
