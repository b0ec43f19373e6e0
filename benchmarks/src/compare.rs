//! Compare sets of runs: per workload × end-to-end metric, each side's
//! median and quartiles and a verdict against the metric's bound; exact
//! counts compare with `==`.
//!
//! A set is a file of result records, one JSON object per line, as
//! `run.sh --out FILE` appends them.

use std::collections::BTreeMap;

use archgraphd::json::Json;

use crate::metrics::{is_exact, Metric, END_TO_END};
use crate::stats::{median, quartiles};

/// What the comparison of one metric on one workload concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A side's own runs spread wider than the bound, and the sides
    /// overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// As printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn quartiles_or_point(v: &[f64]) -> (f64, f64, f64) {
    if v.len() < 2 {
        let m = median(v);
        (m, m, m)
    } else {
        quartiles(v)
    }
}

/// Judge side `b` against side `a` for one metric.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let ((a1, am, a3), (b1, bm, b3)) = (quartiles_or_point(a), quartiles_or_point(b));
    let share = |q1: f64, m: f64, q3: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    let worse_by = if am == 0.0 {
        0.0
    } else if higher_is_better {
        (am - bm) / am.abs()
    } else {
        (bm - am) / am.abs()
    };
    if share(a1, am, a3).max(share(b1, bm, b3)) > bound {
        // Too noisy to call, unless every run of B beats every run of A.
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let b_wins = if higher_is_better {
            min(b) > max(a)
        } else {
            max(b) < min(a)
        };
        return if b_wins {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// One result record of a set.
struct Record {
    workload: String,
    seed: u64,
    traced: bool,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |k: &str| v.get(k).ok_or(format!("{path}:{}: no {k:?}", i + 1));
        let metrics = field("metrics")?
            .as_obj()
            .ok_or(format!("{path}:{}: metrics is not an object", i + 1))?
            .iter()
            .filter_map(|(k, m)| match m.get("value") {
                Some(Json::Num(x)) => Some((k.clone(), *x)),
                _ => None,
            })
            .collect();
        out.push(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_u64().unwrap_or(0),
            traced: field("trace")?.as_u64() == Some(1),
            correct: field("correct")? == &Json::Bool(true),
            metrics,
        });
    }
    Ok(out)
}

fn values(set: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| !r.traced && r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn compare_sets(name_a: &str, a: &[Record], name_b: &str, b: &[Record]) -> usize {
    let mut problems = 0;
    println!("== A = {name_a}   B = {name_b}");
    for r in a.iter().chain(b).filter(|r| !r.correct) {
        println!("incorrect run: {} seed {}", r.workload, r.seed);
        problems += 1;
    }
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    println!(
        "{:<18} {:<16} {:>4} {:>12} {:>12} {:>12}   {:>4} {:>12} {:>12} {:>12}  {:>8} {:>6}  verdict",
        "workload", "metric", "nA", "A q1", "A median", "A q3", "nB", "B q1", "B median", "B q3", "B vs A", "bound"
    );
    for w in &workloads {
        for Metric {
            name,
            higher_is_better,
            bound,
            ..
        } in &END_TO_END
        {
            let (va, vb) = (values(a, w, name), values(b, w, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let ((a1, am, a3), (b1, bm, b3)) = (quartiles_or_point(&va), quartiles_or_point(&vb));
            let v = verdict(&va, &vb, *higher_is_better, *bound);
            problems += usize::from(v != Verdict::Unchanged);
            println!(
                "{w:<18} {name:<16} {:>4} {a1:>12.4} {am:>12.4} {a3:>12.4}   {:>4} {b1:>12.4} {bm:>12.4} {b3:>12.4}  {:>+7.2}% {:>5.0}%  {}",
                va.len(),
                vb.len(),
                (bm - am) / am * 100.0,
                bound * 100.0,
                v.label()
            );
        }
    }
    // Exact counts: the traced runs of one workload and seed must agree.
    let (mut matched, mut mismatched) = (0, 0);
    for ra in a.iter().filter(|r| r.traced) {
        for rb in b
            .iter()
            .filter(|r| r.traced && r.workload == ra.workload && r.seed == ra.seed)
        {
            for (name, x) in ra.metrics.iter().filter(|(n, _)| is_exact(n)) {
                match rb.metrics.get(name) {
                    Some(y) if x == y => matched += 1,
                    other => {
                        mismatched += 1;
                        println!(
                            "exact count differs: {} seed {} {name}: A {x} B {other:?}",
                            ra.workload, ra.seed
                        );
                    }
                }
            }
        }
    }
    println!("exact counts: {matched} identical, {mismatched} different");
    problems + mismatched
}

/// Compare the first set with each of the others; the exit code is 1 when
/// anything regressed, was unresolved, was incorrect, or an exact count
/// differed.
pub fn compare(paths: &[String]) -> i32 {
    if paths.len() < 2 {
        eprintln!("usage: compare.sh A.json B.json [...]");
        return 2;
    }
    let sets: Result<Vec<Vec<Record>>, String> = paths.iter().map(|p| load(p)).collect();
    let sets = match sets {
        Ok(s) => s,
        Err(e) => {
            eprintln!("archperf compare: {e}");
            return 2;
        }
    };
    let problems: usize = (1..sets.len())
        .map(|i| compare_sets(&paths[0], &sets[0], &paths[i], &sets[i]))
        .sum();
    i32::from(problems != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT: [f64; 5] = [100.0, 101.0, 99.5, 100.5, 100.2];

    fn scaled(v: &[f64], k: f64) -> Vec<f64> {
        v.iter().map(|x| x * k).collect()
    }

    #[test]
    fn a_move_within_the_bound_is_unchanged() {
        assert_eq!(
            verdict(&TIGHT, &scaled(&TIGHT, 1.05), false, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&TIGHT, &scaled(&TIGHT, 0.95), true, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&TIGHT, &scaled(&TIGHT, 0.5), false, 0.10),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_move_past_the_bound_in_the_bad_direction_regresses() {
        assert_eq!(
            verdict(&TIGHT, &scaled(&TIGHT, 1.2), false, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&TIGHT, &scaled(&TIGHT, 0.8), true, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&TIGHT, &scaled(&TIGHT, 1.2), true, 0.10),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_run() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 115.0];
        assert_eq!(verdict(&noisy, &noisy, false, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&TIGHT, &noisy, false, 0.10), Verdict::Unresolved);
        assert_eq!(
            verdict(&noisy, &scaled(&noisy, 0.5), false, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&noisy, &scaled(&noisy, 2.0), true, 0.10),
            Verdict::Unchanged
        );
    }

    #[test]
    fn single_runs_compare_as_points() {
        assert_eq!(verdict(&[1.0], &[1.05], false, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&[1.0], &[1.5], false, 0.10), Verdict::Regressed);
    }
}
