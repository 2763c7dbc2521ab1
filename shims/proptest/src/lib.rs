//! Hermetic stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: range and tuple
//! strategies, `prop_map` / `prop_flat_map`, `collection::vec`, the
//! `proptest!` macro with optional `#![proptest_config(..)]`, and the
//! `prop_assert*` / `prop_assume!` macros. Cases are generated from a
//! deterministic per-case seed so failures are reproducible; there is no
//! shrinking — a failing case reports its inputs via the panic message of the
//! assertion that fired.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Deterministic per-case random source handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// Creates the generator for test case number `case`.
    pub fn deterministic(case: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(0xc0ff_ee00_dead_beef ^ case.wrapping_mul(0x9e37_79b9)),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    fn next_f64(&mut self) -> f64 {
        self.inner.gen()
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
    /// A `prop_assert*` failed; the test panics with this message.
    Fail(String),
}

/// Runner configuration (`#![proptest_config(ProptestConfig::with_cases(n))]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of cases generated per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 48 }
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The type of value produced.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` derives from it.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
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

/// Strategy returned by [`Strategy::prop_flat_map`].
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

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy built by [`prop_oneof!`]: picks one of several alternatives
/// uniformly, then generates from it.
pub struct OneOf<T>(pub Vec<Box<dyn Strategy<Value = T>>>);

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(
            !self.0.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        let idx = (rng.next_u64() % self.0.len() as u64) as usize;
        self.0[idx].generate(rng)
    }
}

/// Boxes a strategy for storage in a [`OneOf`].
pub fn boxed_strategy<S: Strategy + 'static>(strategy: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(strategy)
}

/// Picks uniformly among several strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf(vec![$($crate::boxed_strategy($strategy)),+])
    };
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                let span = (end - start) as u64 + 1;
                start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u64, u32, u16, u8, i64, i32);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + (rng.next_f64() as $t) * (self.end - self.start)
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Number-of-elements specification: an exact count or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        start: usize,
        end: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            Self {
                start: exact,
                end: exact + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            Self {
                start: range.start,
                end: range.end,
            }
        }
    }

    /// Strategy producing a `Vec` of values drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = (self.size.start..self.size.end).generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The usual proptest prelude.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        OneOf, ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Defines deterministic property tests over strategy-drawn inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __strategies = ($($strat,)+);
            let mut __rejected: u32 = 0;
            for __case in 0..(__config.cases as u64) {
                let mut __rng = $crate::TestRng::deterministic(__case);
                let ($($arg,)+) = $crate::Strategy::generate(&__strategies, &mut __rng);
                let __outcome = (move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match __outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => {
                        __rejected += 1;
                        ::std::assert!(
                            __rejected < 4 * __config.cases,
                            "too many prop_assume! rejections"
                        );
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(__msg)) => {
                        ::std::panic!("proptest case {} failed: {}", __case, __msg);
                    }
                }
            }
        }
        $crate::__proptest_fns! { @cfg($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: {} == {} ({:?} vs {:?})",
                    stringify!($left),
                    stringify!($right),
                    __l,
                    __r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(*__l == *__r, $($fmt)+);
            }
        }
    };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l != *__r,
                    "assertion failed: {} != {} (both {:?})",
                    stringify!($left),
                    stringify!($right),
                    __l
                );
            }
        }
    };
}

/// Skips the current case when its inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 5usize..10, y in 0u64..3, f in -1.0f32..1.0) {
            prop_assert!((5..10).contains(&x));
            prop_assert!(y < 3);
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn tuples_and_maps_compose((a, b) in (0u32..4, 0u32..4).prop_map(|(a, b)| (a * 2, b))) {
            prop_assert!(a % 2 == 0);
            prop_assert!(b < 4);
        }

        #[test]
        fn flat_map_derives_dependent_values(v in (1usize..5).prop_flat_map(|n| {
            crate::collection::vec(0usize..n, 1..8)
        })) {
            prop_assert!(!v.is_empty());
        }

        #[test]
        fn assume_rejects_without_failing(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
            prop_assert_ne!(x, 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn explicit_config_is_used(x in 0usize..100) {
            prop_assert!(x < 100);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = TestRng::deterministic(3);
        let mut b = TestRng::deterministic(3);
        let s = 0u64..1_000_000;
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
