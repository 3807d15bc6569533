//! Offline shim for `proptest`: deterministic property testing with the
//! API subset this workspace uses.
//!
//! Implemented: the `proptest!` macro (with optional
//! `#![proptest_config(...)]`), range and `any::<T>()` strategies,
//! tuples up to arity 12, `prop::collection::vec`, `Just`,
//! `prop_oneof!`, `.prop_map`, `.prop_filter`, `prop_assert!` and
//! `prop_assert_eq!`.
//!
//! Differences from upstream: no shrinking (the failing case is
//! reported as generated), and each test's random stream is seeded
//! deterministically from the test name, so failures reproduce exactly
//! on re-run.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Test-case failure raised by `prop_assert!`-style macros.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// A failure carrying `reason`, mirroring proptest's constructor.
    pub fn fail(reason: impl Into<String>) -> TestCaseError {
        TestCaseError(reason.into())
    }

    /// Treated as a plain failure by this shim (no case rejection).
    pub fn reject(reason: impl Into<String>) -> TestCaseError {
        TestCaseError(reason.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Result type each property body evaluates to.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    /// 256 cases, or as many as the `PROPTEST_CASES` environment
    /// variable says, as upstream; an explicit
    /// [`with_cases`](Self::with_cases) ignores it.
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|cases| cases.parse().ok())
            .unwrap_or(256);
        ProptestConfig { cases }
    }
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// The random source threaded through strategies.
pub type TestRng = StdRng;

/// A generator of values for property tests.
///
/// Object-safe core (`generate`) plus sized combinators.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Retains only values satisfying `pred` (retries internally).
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            pred,
        }
    }

    /// Boxes the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A heap-allocated strategy, as produced by [`Strategy::boxed`].
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 candidates in a row: {}",
            self.reason
        );
    }
}

/// A strategy producing one fixed value (cloned per case).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (the `prop_oneof!`
/// backend).
pub struct OneOf<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
        let idx = rng.gen_range(0..self.0.len());
        self.0[idx].generate(rng)
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.gen::<$t>()
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen::<bool>()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.gen::<f64>()
    }
}

/// Strategy for an unconstrained value of `T`, as `any::<T>()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` entry point.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_strategy_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_strategy_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_strategy_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_strategy_tuple!(A: 0);
impl_strategy_tuple!(A: 0, B: 1);
impl_strategy_tuple!(A: 0, B: 1, C: 2);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9, K: 10);
impl_strategy_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7, I: 8, J: 9, K: 10, L: 11);

/// Namespaced strategy constructors (`prop::collection::vec`, ...).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use rand::Rng;
        use std::ops::Range;

        /// Strategy for a `Vec` with length drawn from `len` and
        /// elements from `element`.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = if self.len.is_empty() {
                    self.len.start
                } else {
                    rng.gen_range(self.len.clone())
                };
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `prop::collection::vec(element, len_range)`.
        pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }
    }
}

/// Seeds a test's random stream from its name (stable across runs).
pub fn rng_for(test_name: &str) -> TestRng {
    // FNV-1a over the name; any fixed mixing works since StdRng
    // scrambles further.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    TestRng::seed_from_u64(hash)
}

/// Everything a property test file needs.
pub mod prelude {
    pub use super::prop;
    pub use super::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Uniform choice between strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Fails the current case with a message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)*),
            l,
            r
        );
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...)` body
/// runs for the configured number of generated cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_property(
                    concat!(module_path!(), "::", stringify!($name)),
                    &$config,
                    |__rng| {
                        $(let $arg = $crate::Strategy::generate(&$strategy, __rng);)+
                        let __case = move || -> $crate::TestCaseResult {
                            $body
                            #[allow(unreachable_code)]
                            ::core::result::Result::Ok(())
                        };
                        __case()
                    },
                );
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strategy),+) $body
            )*
        }
    };
}

/// Runs one property for `config.cases` generated cases (macro
/// backend).
pub fn run_property(
    name: &str,
    config: &ProptestConfig,
    mut case: impl FnMut(&mut TestRng) -> TestCaseResult,
) {
    let mut rng = rng_for(name);
    for i in 0..config.cases {
        if let Err(e) = case(&mut rng) {
            panic!("property {name} failed at case {i}/{}: {e}", config.cases);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples(a in 0i64..100, pair in (0u8..10, 1usize..4)) {
            prop_assert!((0..100).contains(&a));
            prop_assert!(pair.0 < 10 && pair.1 >= 1);
        }

        #[test]
        fn vec_and_oneof(v in prop::collection::vec(prop_oneof![Just(1u32), 5u32..8], 0..6)) {
            prop_assert!(v.len() < 6);
            prop_assert!(v.iter().all(|&x| x == 1 || (5..8).contains(&x)));
        }

        #[test]
        fn map_and_filter(x in (0i32..100).prop_map(|v| v * 2).prop_filter("even", |v| v % 2 == 0)) {
            prop_assert_eq!(x % 2, 0);
            prop_assert!(x < 200, "x={} out of range", x);
        }
    }

    #[test]
    fn determinism_per_test_name() {
        let mut a = super::rng_for("t");
        let mut b = super::rng_for("t");
        use rand::Rng;
        assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_case_number() {
        super::run_property(
            "always_fails",
            &super::ProptestConfig::with_cases(3),
            |_rng| Err(super::TestCaseError("nope".into())),
        );
    }
}
