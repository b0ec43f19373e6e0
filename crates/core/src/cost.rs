//! The Helman–JáJá SMP complexity model used throughout the paper.
//!
//! Running time is measured by the triplet `T(n,p) = ⟨T_M(n,p); T_C(n,p);
//! B(n,p)⟩` where
//!
//! * `T_M` is the maximum number of **non-contiguous main-memory accesses**
//!   required by any processor,
//! * `T_C` is an upper bound on the **local computational work** of any
//!   processor, and
//! * `B` is the number of **barrier synchronizations**.
//!
//! Unlike the PRAM, the model penalizes algorithms whose access patterns
//! cause cache misses and algorithms with many synchronization events. The
//! paper applies the same triplet to the MTA with the caveat that
//! multithreading drives the effective magnitudes of `T_M` and `B` toward
//! zero, leaving execution time a function of `T_C` alone.
//!
//! Reached by: `tests/cross_validation.rs` (through [`crate::predict`]).

use serde::{Deserialize, Serialize};

/// A `⟨T_M; T_C; B⟩` complexity triplet for a particular `(n, p)` instance.
///
/// Values are *operation counts*, not seconds; combine with a
/// [`crate::machine`] parameter set via [`crate::predict`] to obtain time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Complexity {
    /// Maximum non-contiguous main-memory accesses by any processor.
    pub t_m: f64,
    /// Maximum local computation (instruction count scale) by any processor.
    pub t_c: f64,
    /// Number of barrier synchronizations.
    pub barriers: f64,
}

impl Complexity {
    /// Construct a triplet from raw counts.
    pub fn new(t_m: f64, t_c: f64, barriers: f64) -> Self {
        Complexity { t_m, t_c, barriers }
    }

    /// Sequential composition: phases executed one after the other add
    /// component-wise (each processor performs both phases' accesses and the
    /// barrier counts accumulate). Also available as the `+` operator.
    #[allow(clippy::should_implement_trait)] // `+` is implemented too; the named form reads better in formulas
    pub fn add(self, other: Complexity) -> Complexity {
        Complexity {
            t_m: self.t_m + other.t_m,
            t_c: self.t_c + other.t_c,
            barriers: self.barriers + other.barriers,
        }
    }

    /// Repeat this phase `k` times (e.g. the `log n` iterations of SV).
    pub fn repeat(self, k: f64) -> Complexity {
        Complexity {
            t_m: self.t_m * k,
            t_c: self.t_c * k,
            barriers: self.barriers * k,
        }
    }

    /// True when every component of `self` is at most the corresponding
    /// component of `other` (used by tests to check dominance relations,
    /// e.g. the MTA-effective triplet never exceeds the SMP triplet).
    ///
    /// Reached by: `cost`'s unit tests; ROADMAP item 8 keeps or deletes it
    /// with `predict`.
    pub fn dominated_by(&self, other: &Complexity) -> bool {
        self.t_m <= other.t_m && self.t_c <= other.t_c && self.barriers <= other.barriers
    }
}

impl std::ops::Add for Complexity {
    type Output = Complexity;
    fn add(self, rhs: Complexity) -> Complexity {
        Complexity::add(self, rhs)
    }
}

impl std::fmt::Display for Complexity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "<T_M = {:.3e}; T_C = {:.3e}; B = {:.1}>",
            self.t_m, self.t_c, self.barriers
        )
    }
}

/// `log2(n)` as used in the asymptotic bounds, safe for small `n`.
pub fn lg(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

pub mod formulas {
    //! Closed-form cost triplets for the algorithms analyzed in the paper.
    //!
    //! Each function reproduces a formula stated in §3 or §4 of the paper.
    //! They are exercised by the simulators' cross-validation tests and by
    //! the analytic prediction layer.
    //!
    //! Reached by: `tests/cross_validation.rs`
    //! (`analytic_model_tracks_simulator_scaling`) and `predict`; ROADMAP
    //! item 8 keeps or deletes them with `predict`.

    use super::{lg, Complexity};

    /// Helman–JáJá list ranking on an SMP (paper §3):
    /// `T(n,p) = ⟨n/p; O(n/p)⟩` for `n > p² ln n`, with a constant number of
    /// barriers (one after each of the five steps; we count 5).
    ///
    /// Reached by: `tests/cross_validation.rs`
    /// (`analytic_model_tracks_simulator_scaling`).
    pub fn hj_list_ranking(n: usize, p: usize) -> Complexity {
        let n = n as f64;
        let p = p as f64;
        Complexity::new(n / p, 2.0 * n / p, 5.0)
    }

    /// Sequential list ranking: every access chases a pointer, so all `n`
    /// accesses are non-contiguous on an arbitrary list.
    ///
    /// Reached by: `cost`'s unit tests, until ROADMAP item 8.
    pub fn seq_list_ranking(n: usize) -> Complexity {
        let n = n as f64;
        Complexity::new(n, 2.0 * n, 0.0)
    }

    /// Step 1 of Shiloach–Vishkin, graft-and-shortcut (paper §4): two
    /// non-contiguous accesses per edge — reading `D[j]` and `D[D[i]]` —
    /// i.e. `2m/p + 1`, with `O((n+m)/p)` compute and one barrier.
    ///
    /// `m` counts *directed* edge slots, matching the paper's `2m` edge array.
    pub fn sv_step1(n: usize, m: usize, p: usize) -> Complexity {
        let (n, m, p) = (n as f64, m as f64, p as f64);
        Complexity::new(2.0 * m / p + 1.0, (n + m) / p, 1.0)
    }

    /// Step 2 of SV: the graft itself, one non-contiguous access per edge.
    pub fn sv_step2(n: usize, m: usize, p: usize) -> Complexity {
        let (n, m, p) = (n as f64, m as f64, p as f64);
        Complexity::new(m / p + 1.0, (n + m) / p, 1.0)
    }

    /// Step 3 of SV: pointer jumping to form rooted stars,
    /// `⟨(n log n)/p; O((n log n)/p); 1⟩`.
    pub fn sv_step3(n: usize, p: usize) -> Complexity {
        let (nf, p) = (n as f64, p as f64);
        let l = lg(n);
        Complexity::new(nf * l / p, nf * l / p, 1.0)
    }

    /// One full SV iteration (steps 1–3 plus the termination check barrier).
    pub fn sv_iteration(n: usize, m: usize, p: usize) -> Complexity {
        sv_step1(n, m, p)
            .add(sv_step2(n, m, p))
            .add(sv_step3(n, p))
            .add(Complexity::new(0.0, 0.0, 1.0))
    }

    /// Total worst-case SV cost assuming `log n` iterations, composed from
    /// the per-step triplets. Note this is *more conservative* than the
    /// paper's published bound [`sv_total_published`]: charging step 3 its
    /// full `n log n / p` in every iteration ignores that the pointer-
    /// jumping work telescopes to `n log n / p` across all iterations.
    ///
    /// Reached by: `cost`'s and `predict`'s unit tests, until ROADMAP
    /// item 8.
    pub fn sv_total(n: usize, m: usize, p: usize) -> Complexity {
        sv_iteration(n, m, p).repeat(lg(n))
    }

    /// The paper's stated closed form for the SV total (as printed in §4),
    /// kept separately so tests can confirm our per-step composition stays
    /// within the published bound.
    ///
    /// Reached by: `cost`'s unit tests, until ROADMAP item 8.
    pub fn sv_total_published(n: usize, m: usize, p: usize) -> Complexity {
        let (nf, mf, pf) = (n as f64, m as f64, p as f64);
        let l = lg(n);
        Complexity::new(
            (nf * l + 3.0 * mf * l) / pf + 2.0 * l,
            (nf * l + mf * l) / pf,
            4.0 * l,
        )
    }

    /// MTA walk-based list ranking (paper Alg. 1): three `O(n)` parallel
    /// steps with `NWALK`-way parallelism; on the MTA the effective `T_M`
    /// and `B` vanish given sufficient parallelism, leaving `T_C = O(n/p)`.
    ///
    /// Reached by: `cost`'s and `predict`'s unit tests, until ROADMAP
    /// item 8.
    pub fn mta_list_ranking_effective(n: usize, p: usize) -> Complexity {
        let (n, p) = (n as f64, p as f64);
        Complexity::new(0.0, 3.0 * n / p, 0.0)
    }

    /// MTA SV (paper Alg. 3): grafting over `2m` edge slots plus full
    /// shortcutting, `O(log² n)` iterations in the stated (loose) bound;
    /// effective `T_M = B = 0` on the MTA.
    ///
    /// Reached by: `cost`'s unit tests, until ROADMAP item 8.
    pub fn mta_sv_effective(n: usize, m: usize, p: usize) -> Complexity {
        let (nf, mf, pf) = (n as f64, m as f64, p as f64);
        let l = lg(n);
        Complexity::new(0.0, (2.0 * mf + nf * l) * l / pf, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::formulas::*;
    use super::*;

    #[test]
    fn zero_is_identity() {
        let (c, zero) = (
            Complexity::new(10.0, 20.0, 3.0),
            Complexity::new(0.0, 0.0, 0.0),
        );
        assert_eq!(c.add(zero), c);
        assert_eq!(zero.add(c), c);
    }

    #[test]
    fn add_is_componentwise() {
        let a = Complexity::new(1.0, 2.0, 3.0);
        let b = Complexity::new(10.0, 20.0, 30.0);
        let s = a + b;
        assert_eq!(s, Complexity::new(11.0, 22.0, 33.0));
    }

    #[test]
    fn repeat_scales_all_components() {
        let a = Complexity::new(1.0, 2.0, 3.0).repeat(4.0);
        assert_eq!(a, Complexity::new(4.0, 8.0, 12.0));
    }

    #[test]
    fn hj_halves_with_double_processors() {
        let c1 = hj_list_ranking(1 << 20, 1);
        let c2 = hj_list_ranking(1 << 20, 2);
        assert!((c1.t_m / c2.t_m - 2.0).abs() < 1e-9);
        assert!((c1.t_c / c2.t_c - 2.0).abs() < 1e-9);
        assert_eq!(c1.barriers, c2.barriers);
    }

    #[test]
    fn hj_noncontiguous_accesses_beat_sequential() {
        // The parallel algorithm with p = 1 does no more non-contiguous
        // accesses than the sequential pointer chase.
        let par = hj_list_ranking(1 << 16, 1);
        let seq = seq_list_ranking(1 << 16);
        assert!(par.t_m <= seq.t_m);
    }

    #[test]
    fn sv_composed_total_within_published_bound() {
        for &(n, m) in &[(1 << 10, 1 << 12), (1 << 16, 1 << 20), (1 << 20, 1 << 22)] {
            for &p in &[1usize, 2, 4, 8] {
                let ours = sv_total(n, m, p);
                let published = sv_total_published(n, m, p);
                // The published bound amortizes step 3's pointer jumping
                // (it telescopes to n log n / p total); our per-step
                // composition charges it every iteration, so the published
                // bound must never exceed ours.
                assert!(
                    published.t_m <= ours.t_m + 4.0 * lg(n),
                    "published t_m {} > composed {} at n={n} m={m} p={p}",
                    published.t_m,
                    ours.t_m
                );
                assert!(published.t_c <= ours.t_c + 4.0 * lg(n));
                assert_eq!(ours.barriers, published.barriers);
            }
        }
    }

    #[test]
    fn mta_effective_triplets_have_no_memory_or_barrier_cost() {
        let lr = mta_list_ranking_effective(1 << 20, 8);
        let cc = mta_sv_effective(1 << 20, 1 << 22, 8);
        assert_eq!(lr.t_m, 0.0);
        assert_eq!(lr.barriers, 0.0);
        assert_eq!(cc.t_m, 0.0);
        assert_eq!(cc.barriers, 0.0);
        assert!(lr.t_c > 0.0 && cc.t_c > 0.0);
    }

    #[test]
    fn mta_effective_dominated_by_smp_triplet() {
        let mta = mta_list_ranking_effective(1 << 20, 4);
        let smp = hj_list_ranking(1 << 20, 4).add(Complexity::new(0.0, 1e9, 0.0));
        assert!(mta.dominated_by(&smp));
    }

    #[test]
    fn display_contains_all_components() {
        let s = format!("{}", Complexity::new(1.0, 2.0, 3.0));
        assert!(s.contains("T_M") && s.contains("T_C") && s.contains("B ="));
    }

    #[test]
    fn lg_is_safe_for_tiny_n() {
        assert_eq!(lg(0), 1.0);
        assert_eq!(lg(1), 1.0);
        assert_eq!(lg(2), 1.0);
        assert_eq!(lg(1024), 10.0);
    }
}
