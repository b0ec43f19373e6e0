//! Offline stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! The build environment has no crates.io access, so this workspace ships a
//! small deterministic property-testing engine with proptest's names and
//! calling conventions for the subset the test suites use:
//!
//! * strategies: integer/`bool` ranges, `any::<T>()`, tuples, `Just`,
//!   `collection::vec`, `prop_map`, `prop_flat_map`, `prop_shuffle`,
//!   `prop_oneof!`
//! * the `proptest! { #![proptest_config(..)] #[test] fn f(x in s) {..} }`
//!   macro with multiple arguments per test
//! * `prop_assert!` / `prop_assert_eq!`
//!
//! Differences from real proptest, on purpose:
//!
//! * **Deterministic cases.** Case `k` of test `t` is generated from a seed
//!   derived from `(t, k)`, so every run explores the same inputs — there
//!   is no persistence protocol and no `*.proptest-regressions` file is
//!   read; known shrunk cases are promoted to named `#[test]`s instead
//!   (see `tests/properties.rs`).
//! * **No shrinking.** On failure the full generated input is printed; the
//!   deterministic seed means the case is reproducible as-is.

use std::fmt::Debug;
use std::ops::Range;

/// Everything test files need, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary, Just,
        ProptestConfig, Strategy,
    };
}

// ------------------------------------------------------------------- RNG

/// Deterministic splitmix64 generator used for all case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed the stream for case `case` of the named test.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng {
            state: h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

// -------------------------------------------------------------- Strategy

/// A generator of test inputs. Unlike real proptest there is no value
/// tree: `generate` directly yields a value for one case.
pub trait Strategy {
    /// The produced value type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` returns.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Randomly permute the generated collection.
    fn prop_shuffle(self) -> Shuffle<Self>
    where
        Self: Sized,
        Self::Value: Shuffleable,
    {
        Shuffle { inner: self }
    }

    /// Type-erase the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// [`Strategy::prop_flat_map`] adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Collections that [`Strategy::prop_shuffle`] can permute.
pub trait Shuffleable {
    /// Permute in place.
    fn shuffle(&mut self, rng: &mut TestRng);
}

impl<T> Shuffleable for Vec<T> {
    fn shuffle(&mut self, rng: &mut TestRng) {
        for i in (1..self.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }
}

/// [`Strategy::prop_shuffle`] adapter.
pub struct Shuffle<S> {
    inner: S,
}

impl<S: Strategy> Strategy for Shuffle<S>
where
    S::Value: Shuffleable,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        let mut v = self.inner.generate(rng);
        v.shuffle(rng);
        v
    }
}

/// Uniform choice among boxed strategies ([`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Build from a non-empty arm list.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}
tuple_strategy!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
    (A.0, B.1, C.2, D.3, E.4, F.5),
);

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Produce one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The full-domain strategy for `T` (`any::<u8>()` etc).
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — proptest's canonical whole-domain strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Range, Strategy, TestRng};

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `vec(element, min..max)` — vectors of `element` values.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ------------------------------------------------------------ test runner

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Drive one property: generate `cfg.cases` inputs and run `body` on each.
/// On panic, reports the deterministic case index and the generated input,
/// then propagates the panic.
pub fn run_property<S, F>(cfg: &ProptestConfig, name: &str, strat: &S, body: F)
where
    S: Strategy,
    S::Value: Debug,
    F: Fn(S::Value),
{
    for case in 0..cfg.cases {
        let mut rng = TestRng::for_case(name, case as u64);
        let value = strat.generate(&mut rng);
        let repr = format!("{value:?}");
        let body = &body;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || body(value)));
        if let Err(panic) = outcome {
            eprintln!(
                "proptest-shim: {name} failed at deterministic case {case} with input:\n  {repr}"
            );
            std::panic::resume_unwind(panic);
        }
    }
}

/// The `proptest!` block macro: an optional inner
/// `#![proptest_config(..)]` followed by `#[test]` functions whose
/// arguments are `pattern in strategy` pairs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`] — expands each test function.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr); ) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::run_property(
                &$cfg,
                concat!(module_path!(), "::", stringify!($name)),
                &($($strat,)+),
                |__proptest_values| {
                    let ($($arg,)+) = __proptest_values;
                    $body
                },
            );
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// `assert_ne!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = super::TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let w = (-5i64..5).generate(&mut rng);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = super::collection::vec((0u32..100, any::<bool>()), 1..50);
        let a = strat.generate(&mut super::TestRng::for_case("det", 7));
        let b = strat.generate(&mut super::TestRng::for_case("det", 7));
        assert_eq!(a, b);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let strat = Just((0u32..200).collect::<Vec<_>>()).prop_shuffle();
        let mut v = strat.generate(&mut super::TestRng::for_case("shuffle", 3));
        v.sort_unstable();
        assert_eq!(v, (0u32..200).collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_runs(x in 0usize..50, v in super::collection::vec(0u8..10, 1..9)) {
            prop_assert!(x < 50);
            prop_assert!(!v.is_empty() && v.len() < 9);
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn oneof_hits_every_arm(tag in prop_oneof![Just(1u8), Just(2u8), Just(3u8)]) {
            prop_assert!((1..=3).contains(&tag));
        }
    }
}
