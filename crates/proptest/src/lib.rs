//! Offline stand-in for `proptest`.
//!
//! Provides the subset of the proptest API this workspace's property
//! tests use: the [`proptest!`] macro, [`ProptestConfig`],
//! range/tuple/[`Just`](strategy::Just)/[`prop_oneof!`]/`collection::vec`
//! strategies, [`any`](arbitrary::any), and the `prop_assert*` macros. Case generation is
//! deterministic: the RNG is seeded from the test name and case
//! index, so failures reproduce across runs without a persistence
//! file. Shrinking is not implemented — a failing case panics with
//! the sampled values via the assertion message instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// Per-test configuration (the `cases` knob only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// Deterministic per-case RNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for case `case` of the property named `name`.
    #[must_use]
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)) }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty choice");
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }
}

/// Strategy types and implementations.
pub mod strategy {
    use super::{Range, TestRng};

    /// A generator of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Sample one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    /// Strategy producing a constant.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between equally-typed strategies
    /// (the [`prop_oneof!`](crate::prop_oneof) macro).
    #[derive(Debug, Clone)]
    pub struct Union<S> {
        options: Vec<S>,
    }

    impl<S: Strategy> Union<S> {
        /// Union over `options`.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        #[must_use]
        pub fn new(options: Vec<S>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<S: Strategy> Strategy for Union<S> {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> S::Value {
            let idx = rng.index(self.options.len());
            self.options[idx].sample(rng)
        }
    }

    /// Full-domain strategy returned by [`any`](crate::arbitrary::any).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T> {
        marker: std::marker::PhantomData<T>,
    }

    impl<T> Any<T> {
        #[must_use]
        pub(crate) fn new() -> Self {
            Any { marker: std::marker::PhantomData }
        }
    }

    macro_rules! impl_any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;

        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let hi = ((u128::from(rng.next_u64()) * span) >> 64) as i128;
                    (self.start as i128 + hi) as $t
                }
            }
        )*};
    }
    impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_float_range {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (self.end - self.start) * (rng.unit_f64() as $t)
                }
            }
        )*};
    }
    impl_float_range!(f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident : $idx:tt),+)),*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy!(
        (A: 0, B: 1),
        (A: 0, B: 1, C: 2),
        (A: 0, B: 1, C: 2, D: 3)
    );
}

/// `any::<T>()` — the full-domain strategy for `T`.
pub mod arbitrary {
    use super::strategy::Any;

    /// Strategy over the whole domain of `T`.
    #[must_use]
    pub fn any<T>() -> Any<T> {
        Any::new()
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use super::{Range, TestRng};

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vector of values from `element`, length uniform in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The glob-imported prelude, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    pub use crate::{ProptestConfig, TestRng};
}

/// Define property tests. Each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); ) => {};
    (($cfg:expr);
     $(#[$attr:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __rng = $crate::TestRng::for_case(stringify!($name), case);
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
}

/// Assert inside a property (plain `assert!` without shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Uniform choice among strategies of the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($strat),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let v = Strategy::sample(&(3usize..10), &mut rng);
            assert!((3..10).contains(&v));
            let f = Strategy::sample(&(-1.0f32..1.0), &mut rng);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn deterministic_per_case() {
        let a = Strategy::sample(&(0u64..1000), &mut TestRng::for_case("x", 7));
        let b = Strategy::sample(&(0u64..1000), &mut TestRng::for_case("x", 7));
        assert_eq!(a, b);
        // The generator is deterministic, so this exact pair is known to
        // differ: distinct cases see distinct values.
        let c = Strategy::sample(&(0u64..1000), &mut TestRng::for_case("x", 8));
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_machinery_works(
            n in 1usize..5,
            seed in any::<u64>(),
            pick in prop_oneof![Just(1u8), Just(2), Just(3)],
            v in crate::collection::vec((0usize..4, 0.0f32..1.0), 1..20),
        ) {
            prop_assert!((1..5).contains(&n));
            let _ = seed;
            prop_assert!(matches!(pick, 1..=3));
            prop_assert!(!v.is_empty() && v.len() < 20);
            for (a, b) in v {
                prop_assert!(a < 4);
                prop_assert!((0.0..1.0).contains(&b));
            }
        }
    }
}
