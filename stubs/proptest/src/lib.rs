//! Offline stand-in for the real `proptest` crate.
//!
//! Supports the subset the workspace's property tests use: the `proptest!`
//! macro (with an optional `#![proptest_config(...)]` header), range and
//! `any::<T>()` strategies, `collection::vec`, and the `prop_assert!` /
//! `prop_assert_eq!` / `prop_assume!` macros. Cases are generated from a
//! fixed-seed SplitMix64 stream, so failures reproduce deterministically.
//! There is no shrinking — a failing case panics with its assertion message.

use std::marker::PhantomData;
use std::ops::Range;

/// Configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Deterministic SplitMix64 stream used to generate test cases.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A fixed-seed RNG: every run of the test suite sees the same cases.
    pub fn deterministic() -> Self {
        Self {
            state: 0x7072_6f70_7465_7374, // "proptest"
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let start = self.start as i128;
                let span = (self.end as i128 - start) as u128;
                let offset = ((rng.next_u64() as u128).wrapping_mul(span) >> 64) as i128;
                (start + offset) as $t
            }
        }
    )*};
}
impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

/// Strategy produced by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(PhantomData<T>);

/// Generates arbitrary values of `T` (bools, integers and chars here).
pub fn any<T>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

impl Strategy for AnyStrategy<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for AnyStrategy<char> {
    type Value = char;
    /// Draws evenly from the four UTF-8 encoding widths, so ASCII control
    /// characters and 2-, 3- and 4-byte scalars all turn up often.
    fn generate(&self, rng: &mut TestRng) -> char {
        let bits = rng.next_u64();
        let (lo, hi) = match bits & 3 {
            0 => (0, 0x80),
            1 => (0x80, 0x800),
            2 => (0x800, 0x1_0000),
            _ => (0x1_0000, 0x11_0000),
        };
        let code = (lo + (bits >> 2) % (hi - lo)) as u32;
        // Surrogate code points are not chars.
        char::from_u32(code).unwrap_or('\u{fffd}')
    }
}

macro_rules! impl_any_int {
    ($($t:ty),*) => {$(
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Drives one property: generates `config.cases` values from `strategy` and
/// feeds each to `case`. The generic signature pins the closure's argument
/// types to `S::Value`, which is what makes type inference inside
/// `proptest!` bodies work.
pub fn run_cases<S: Strategy, F: FnMut(S::Value)>(
    config: &ProptestConfig,
    strategy: S,
    mut case: F,
) {
    let mut rng = TestRng::deterministic();
    for _ in 0..config.cases {
        case(strategy.generate(&mut rng));
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy generating fixed-length `Vec`s from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: usize,
    }

    /// `proptest::collection::vec(element, len)` — fixed length only.
    pub fn vec<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            (0..self.len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        assert_eq!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*);
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        assert_ne!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_ne!($left, $right, $($fmt)*);
    };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strategy:expr),* $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $config;
                // The closure gives `prop_assume!` an early-exit scope; its
                // argument types are pinned by `run_cases`' signature.
                $crate::run_cases(&__config, ($(($strategy),)*), |($($arg,)*)| $body);
            }
        )*
    };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, AnyStrategy,
        ProptestConfig, Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 0usize..10, y in 5u64..100) {
            prop_assert!(x < 10);
            prop_assert!((5..100).contains(&y));
        }

        #[test]
        fn assume_skips_cases(a in 0usize..4, b in 0usize..4) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }

        #[test]
        fn vec_strategy_has_fixed_len(bits in collection::vec(any::<bool>(), 33)) {
            prop_assert_eq!(bits.len(), 33);
        }
    }
}
