//! Star detection — the subroutine Alg. 2's step 2 needs.
//!
//! A tree in the pointer forest `D` is a *star* when every vertex points
//! directly at its root. The classical constant-time parallel routine
//! (JáJá §3): assume everyone is a star; any vertex whose grandparent
//! differs from its parent disqualifies itself *and its grandparent*;
//! finally every vertex inherits its parent's verdict. The paper's Alg. 3
//! exists precisely because this check "involves a significant amount of
//! computation and memory accesses" per iteration.
//!
//! Reached by: `archperf`'s native-kernels `concomp` op (through [`crate::sv`]'s step 2).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use rayon::prelude::*;

/// Sequential star detection: `star[v]` is true iff `v` is in a rooted
/// star of the forest `d` (where `d[v]` is the parent pointer): the
/// reference [`star_flags_par`] is tested against.
#[cfg(test)]
pub(crate) fn star_flags(d: &[archgraph_graph::Node]) -> Vec<bool> {
    let n = d.len();
    let mut star = vec![true; n];
    for v in 0..n {
        let p = d[v] as usize;
        let gp = d[p] as usize;
        if p != gp {
            star[v] = false;
            star[gp] = false;
        }
    }
    for v in 0..n {
        let p = d[v] as usize;
        if !star[p] {
            star[v] = false;
        }
    }
    star
}

/// Parallel star detection over an atomic parent array (relaxed ordering:
/// flags only ever go `true → false`, so races are benign).
pub fn star_flags_par(d: &[AtomicU32]) -> Vec<AtomicBool> {
    let n = d.len();
    let star: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(true)).collect();
    d.par_iter().enumerate().for_each(|(v, dv)| {
        let p = dv.load(Ordering::Relaxed) as usize;
        let gp = d[p].load(Ordering::Relaxed) as usize;
        if p != gp {
            star[v].store(false, Ordering::Relaxed);
            star[gp].store(false, Ordering::Relaxed);
        }
    });
    star.par_iter().enumerate().for_each(|(v, sv)| {
        let p = d[v].load(Ordering::Relaxed) as usize;
        if !star[p].load(Ordering::Relaxed) {
            sv.store(false, Ordering::Relaxed);
        }
    });
    star
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_graph::Node;

    #[test]
    fn singleton_roots_are_stars() {
        let d: Vec<Node> = (0..5).collect();
        assert_eq!(star_flags(&d), vec![true; 5]);
    }

    #[test]
    fn flat_star_detected() {
        // 1,2,3 -> 0
        let d = vec![0, 0, 0, 0];
        assert_eq!(star_flags(&d), vec![true; 4]);
    }

    #[test]
    fn chain_is_not_a_star() {
        // 2 -> 1 -> 0
        let d = vec![0, 0, 1];
        let s = star_flags(&d);
        assert!(!s[2], "depth-2 vertex");
        assert!(!s[1], "grandparent disqualified");
        assert!(!s[0], "root of a non-star tree");
    }

    #[test]
    fn mixed_forest() {
        // Star {0; 1}, chain 4 -> 3 -> 2.
        let d = vec![0, 0, 2, 2, 3];
        let s = star_flags(&d);
        assert!(s[0] && s[1]);
        assert!(!s[2] && !s[3] && !s[4]);
    }

    #[test]
    fn parallel_matches_sequential() {
        // A pseudo-random forest over 200 vertices (parents ≤ self keep
        // it acyclic).
        let n = 200usize;
        let d: Vec<Node> = (0..n)
            .map(|v| if v == 0 { 0 } else { ((v * 7919) % v) as Node })
            .collect();
        let seq = star_flags(&d);
        let datomic: Vec<AtomicU32> = d.iter().map(|&x| AtomicU32::new(x)).collect();
        let par: Vec<bool> = star_flags_par(&datomic)
            .into_iter()
            .map(|b| b.into_inner())
            .collect();
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_forest() {
        assert!(star_flags(&[]).is_empty());
    }
}
