//! Offline stand-in for the subset of the `proptest` API this workspace uses.
//!
//! The build environment has no crates.io access, so this crate reimplements
//! exactly what the workspace's property tests need: the [`Strategy`](strategy::Strategy) trait
//! with `prop_map` / `prop_flat_map` / `prop_filter`, range and tuple
//! strategies, [`collection::vec`], [`strategy::Just`], the
//! [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assume!`]
//! / [`prop_oneof!`] macros and a deterministic [`test_runner::TestRunner`].
//!
//! Differences from real proptest: generation is purely random (fixed seed
//! per test, so runs are reproducible) and failing inputs are **not
//! shrunk** — the failing case is reported as-is.

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of type `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
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

        /// Generates a value, then generates from the strategy `f` returns.
        fn prop_flat_map<U: Strategy, F: Fn(Self::Value) -> U>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Rejects generated values failing `f` (retries, then panics).
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            reason: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter { inner: self, reason, f }
        }

        /// Type-erases the strategy (needed by [`crate::prop_oneof!`]).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// See [`Strategy::prop_map`].
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

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U: Strategy, F: Fn(S::Value) -> U> Strategy for FlatMap<S, F> {
        type Value = U::Value;
        fn generate(&self, rng: &mut TestRng) -> U::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        reason: &'static str,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter rejected 1000 candidates in a row: {}", self.reason);
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between boxed strategies (backs [`crate::prop_oneof!`]).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as u128).wrapping_sub(self.start as u128) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi as u128).wrapping_sub(lo as u128) as u64;
                    if span == u64::MAX {
                        return lo.wrapping_add(rng.next_u64() as $t);
                    }
                    lo.wrapping_add(rng.below(span + 1) as $t)
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start() + rng.unit_f64() * (self.end() - self.start())
        }
    }

    /// `any::<T>()`-style full-domain strategy for a handful of primitives.
    pub struct Any<T>(PhantomData<T>);

    /// Mirrors `proptest::prelude::any`.
    pub fn any<T: ArbitraryValue>() -> Any<T> {
        Any(PhantomData)
    }

    /// Primitives supported by [`any`].
    pub trait ArbitraryValue {
        /// Draws one value from the full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl ArbitraryValue for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl ArbitraryValue for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }

    impl ArbitraryValue for u32 {
        fn arbitrary(rng: &mut TestRng) -> u32 {
            (rng.next_u64() >> 32) as u32
        }
    }

    impl ArbitraryValue for usize {
        fn arbitrary(rng: &mut TestRng) -> usize {
            rng.next_u64() as usize
        }
    }

    impl<T: ArbitraryValue> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

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
}

pub mod num {
    //! Numeric full-domain strategies, mirroring `proptest::num`.

    macro_rules! num_mod {
        ($($m:ident => $t:ty),*) => {$(
            pub mod $m {
                //! Full-domain strategy for the primitive of the same name.

                use crate::strategy::Strategy;
                use crate::test_runner::TestRng;

                /// Uniformly random values over the full domain.
                #[derive(Debug, Clone, Copy)]
                pub struct Any;

                /// Mirrors `proptest::num::<int>::ANY`.
                pub const ANY: Any = Any;

                impl Strategy for Any {
                    type Value = $t;
                    fn generate(&self, rng: &mut TestRng) -> $t {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }

    num_mod!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
             i8 => i8, i16 => i16, i32 => i32, i64 => i64, isize => isize);
}

pub mod bool {
    //! Boolean strategies, mirroring `proptest::bool`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Mirrors `proptest::bool::ANY`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Lengths acceptable to [`vec`](fn@vec): a fixed size or a (inclusive) range.
    pub trait IntoSizeRange {
        /// Lower and inclusive upper bound.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy for `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// Mirrors `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.min == self.max {
                self.min
            } else {
                self.min + rng.below((self.max - self.min + 1) as u64) as usize
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Deterministic case runner and its configuration.

    /// Why a single test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assumption failed; the case is discarded, not failed.
        Reject(String),
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        /// Constructs a failure, like `proptest`'s `TestCaseError::fail`.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// Constructs a rejection, like `proptest`'s `TestCaseError::reject`.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    /// Result of one test case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Runner configuration (`cases` = number of passing cases required).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// SplitMix64 generator driving value generation. Deterministic: every
    /// test starts from the same seed, so failures reproduce.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator for case number `case` of a test.
        pub fn for_case(case: u64) -> Self {
            TestRng { state: 0x5DEE_CE66_D1CE_4E5B ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15) }
        }

        /// Next raw 64 bits.
        #[inline]
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..span` (`span > 0`).
        #[inline]
        pub fn below(&mut self, span: u64) -> u64 {
            debug_assert!(span > 0);
            if span.is_power_of_two() {
                return self.next_u64() & (span - 1);
            }
            let zone = u64::MAX - (u64::MAX % span) - 1;
            loop {
                let v = self.next_u64();
                if v <= zone {
                    return v % span;
                }
            }
        }

        /// Uniform in `[0, 1)`.
        #[inline]
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Runs closures over many generated cases.
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// Creates a runner with the given configuration.
        pub fn new(config: ProptestConfig) -> Self {
            TestRunner { config }
        }

        /// Runs `case` until `config.cases` cases pass. Rejected cases
        /// (failed `prop_assume!`) are retried with fresh inputs, up to a
        /// global cap. Panics on the first failing case.
        pub fn run<F: FnMut(&mut TestRng) -> TestCaseResult>(&mut self, mut case: F) {
            let max_rejects = (self.config.cases as u64) * 64 + 1024;
            let mut rejects = 0u64;
            let mut case_no = 0u64;
            let mut passed = 0u32;
            while passed < self.config.cases {
                let mut rng = TestRng::for_case(case_no);
                case_no += 1;
                match case(&mut rng) {
                    Ok(()) => passed += 1,
                    Err(TestCaseError::Reject(why)) => {
                        rejects += 1;
                        if rejects > max_rejects {
                            panic!(
                                "proptest: too many rejected cases ({rejects}); \
                                 last reason: {why}"
                            );
                        }
                    }
                    Err(TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case #{case} failed: {msg}\n\
                             (deterministic runner: rerun reproduces this case)",
                            case = case_no - 1
                        );
                    }
                }
            }
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult, TestRunner};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// `prop::...` paths used by some proptest idioms.
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Fails the current case if `cond` is false (with an optional message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case if the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "{} (left: `{:?}`, right: `{:?}`)",
                format!($($fmt)*), l, r
            )));
        }
    }};
}

/// Fails the current case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}` (both: `{:?}`)",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Discards the current case (retried with fresh inputs) if `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Reject(format!($($fmt)*)));
        }
    };
}

/// Uniform choice among several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Declares `#[test]` functions whose arguments are drawn from strategies.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn adds_commute(a in 0u64..100, b in 0u64..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal: expands each `fn` inside [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let mut runner = $crate::test_runner::TestRunner::new($config);
            runner.run(|__rng| {
                $(let $pat = $crate::strategy::Strategy::generate(&($strategy), __rng);)+
                $body
                Ok(())
            });
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::collection::vec;
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tuples_and_ranges((a, b) in (0u64..100, 1u64..50), c in 0usize..=3) {
            prop_assert!(a < 100);
            prop_assert!((1..50).contains(&b));
            prop_assert!(c <= 3);
        }

        #[test]
        fn vec_lengths(v in vec(0u32..10, 2..=5)) {
            prop_assert!(v.len() >= 2 && v.len() <= 5);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn map_and_assume(x in (0u64..100).prop_map(|x| x * 2)) {
            prop_assume!(x != 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn oneof_picks_arms(x in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert!(x == 1 || x == 2);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_case_panics() {
        let mut runner = crate::test_runner::TestRunner::new(ProptestConfig::with_cases(64));
        runner.run(|rng| {
            let x = crate::strategy::Strategy::generate(&(0u64..10), rng);
            prop_assert!(x < 5, "x was {}", x);
            Ok(())
        });
    }
}
