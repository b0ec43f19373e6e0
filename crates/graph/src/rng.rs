//! Deterministic pseudo-random number generation.
//!
//! Every workload in the reproduction is generated from an explicit `u64`
//! seed, so any figure or test can be replayed bit-for-bit. We implement
//! SplitMix64 (for seeding) and xoshiro256\*\* (the workhorse
//! generator) rather than depending on `rand`'s unspecified default, which
//! may change across versions.
//!
//! Reached by: every suite cell (its seeded input).

/// SplitMix64 step: advances `state` and returns a well-mixed 64-bit value.
///
/// This is the standard seeding function recommended by the xoshiro
/// authors, and also serves as a cheap integer hash.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// xoshiro256\*\* — a small, fast, high-quality PRNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a seed; distinct seeds yield independent
    /// streams (state is expanded through SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is invalid for xoshiro; SplitMix64 cannot produce
        // four zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        Rng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` using Lemire's multiply-shift method
    /// with rejection, unbiased for any `bound > 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: accept unless low < 2^64 mod bound.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    #[cfg(test)]
    pub(crate) fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below_usize(i + 1);
            xs.swap(i, j);
        }
    }

    /// A uniformly random permutation of `0..n` as `u32` values.
    ///
    /// Panics if `n` exceeds `u32::MAX as usize` (our [`crate::Node`] width).
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        assert!(n <= u32::MAX as usize);
        let mut p: Vec<u32> = (0..n as u32).collect();
        self.shuffle(&mut p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from distinct seeds should differ");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(7);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_one_is_always_zero() {
        let mut r = Rng::new(3);
        for _ in 0..100 {
            assert_eq!(r.below(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        Rng::new(0).below(0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Rng::new(11);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} deviates from uniform"
            );
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = Rng::new(5);
        let p = r.permutation(1000);
        let mut seen = vec![false; 1000];
        for &x in &p {
            assert!(!seen[x as usize], "duplicate {x}");
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn permutation_is_not_identity_for_large_n() {
        let mut r = Rng::new(12);
        let p = r.permutation(4096);
        let fixed = p
            .iter()
            .enumerate()
            .filter(|&(i, &x)| i as u32 == x)
            .count();
        // Expected number of fixed points of a uniform permutation is 1.
        assert!(fixed < 20, "too many fixed points: {fixed}");
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut r = Rng::new(8);
        let mut v: Vec<u32> = (0..100).map(|i| i % 10).collect();
        let mut before = v.clone();
        r.shuffle(&mut v);
        before.sort_unstable();
        let mut after = v.clone();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn empty_and_singleton_shuffle() {
        let mut r = Rng::new(1);
        let mut empty: [u8; 0] = [];
        r.shuffle(&mut empty);
        let mut one = [42u8];
        r.shuffle(&mut one);
        assert_eq!(one, [42]);
    }
}
