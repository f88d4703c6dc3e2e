//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no cargo registry, so the workspace vendors the
//! slice of the proptest API its property tests use: the [`proptest!`]
//! macro, `Strategy` with `prop_map`/`prop_filter`/`prop_flat_map`, range
//! and tuple strategies, `prop::collection::vec`, `prop_oneof!`, and the
//! `prop_assert*`/`prop_assume!` assertion macros.
//!
//! Differences from upstream, deliberately accepted:
//! - no shrinking: a failing case panics with the generated inputs'
//!   assertion message, not a minimized counterexample;
//! - no persistence: `.proptest-regressions` files are ignored;
//! - case seeds derive deterministically from the test's module path and
//!   name, so every run explores the same cases (reproducible CI).

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Execution state for one `proptest!`-generated test.

    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Runner configuration; only `cases` is honored.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful (non-rejected) cases required.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case's inputs violated a `prop_assume!`; try another case.
        Reject,
        /// A `prop_assert*!` failed; abort the whole test.
        Fail(String),
    }

    impl TestCaseError {
        /// Upstream-compatible constructor for a failure.
        pub fn fail(reason: impl Into<String>) -> Self {
            Self::Fail(reason.into())
        }

        /// Upstream-compatible constructor for a rejection.
        pub fn reject(_reason: impl Into<String>) -> Self {
            Self::Reject
        }
    }

    /// The deterministic generator driving strategy sampling.
    #[derive(Clone, Debug)]
    pub struct TestRng(SmallRng);

    impl TestRng {
        /// Seeds from an arbitrary identifier (FNV-1a over the bytes), so
        /// each test explores a stable, test-specific case sequence.
        pub fn deterministic(identifier: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in identifier.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Self(SmallRng::seed_from_u64(h))
        }

        /// Next raw 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        /// Uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            self.0.gen::<f64>()
        }

        /// Uniform draw in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: usize) -> usize {
            self.0.gen_range(0..n)
        }
    }
}

pub mod strategy {
    //! Value-generation strategies and combinators.

    use super::test_runner::TestRng;
    use core::ops::{Range, RangeInclusive};

    /// Generates values of `Self::Value`. `None` means the candidate was
    /// rejected (by a filter) and the runner should retry.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one candidate value.
        fn gen_value(&self, rng: &mut TestRng) -> Option<Self::Value>;

        /// Transforms generated values with `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Discards candidates for which `f` is false. `reason` matches the
        /// upstream signature and is kept for diagnostics.
        fn prop_filter<R: Into<String>, F: Fn(&Self::Value) -> bool>(
            self,
            reason: R,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter { inner: self, reason: reason.into(), f }
        }

        /// Builds a second strategy from each generated value and samples it.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn gen_value(&self, rng: &mut TestRng) -> Option<O> {
            self.inner.gen_value(rng).map(&self.f)
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        #[allow(dead_code)]
        reason: String,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn gen_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            self.inner.gen_value(rng).filter(|v| (self.f)(v))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn gen_value(&self, rng: &mut TestRng) -> Option<S2::Value> {
            let mid = self.inner.gen_value(rng)?;
            (self.f)(mid).gen_value(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn gen_value(&self, _rng: &mut TestRng) -> Option<T> {
            Some(self.0.clone())
        }
    }

    trait ErasedStrategy<T> {
        fn gen_erased(&self, rng: &mut TestRng) -> Option<T>;
    }

    impl<S: Strategy> ErasedStrategy<S::Value> for S {
        fn gen_erased(&self, rng: &mut TestRng) -> Option<S::Value> {
            self.gen_value(rng)
        }
    }

    /// A type-erased strategy (see [`Strategy::boxed`]).
    pub struct BoxedStrategy<T>(Box<dyn ErasedStrategy<T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> Option<T> {
            self.0.gen_erased(rng)
        }
    }

    /// Uniform choice among alternatives (the engine behind `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union over `options`.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Self { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> Option<T> {
            let i = rng.below(self.options.len());
            self.options[i].gen_value(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty => $wide:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> Option<$t> {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                    Some((self.start as $wide)
                        .wrapping_add((rng.next_u64() % span) as $wide) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> Option<$t> {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                    if span == u64::MAX {
                        return Some(rng.next_u64() as $t);
                    }
                    Some((lo as $wide)
                        .wrapping_add((rng.next_u64() % (span + 1)) as $wide) as $t)
                }
            }
        )*};
    }

    impl_int_range_strategy!(
        u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
        i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
    );

    macro_rules! impl_float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> Option<$t> {
                    assert!(self.start < self.end, "empty range strategy");
                    let u = rng.unit_f64() as $t;
                    Some(self.start + u * (self.end - self.start))
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> Option<$t> {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let u = rng.unit_f64() as $t;
                    Some(lo + u * (hi - lo))
                }
            }
        )*};
    }

    impl_float_range_strategy!(f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn gen_value(&self, rng: &mut TestRng) -> Option<Self::Value> {
                    let ($($name,)+) = self;
                    Some(($($name.gen_value(rng)?,)+))
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
}

pub mod collection {
    //! Collection strategies (`vec`).

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use core::ops::Range;

    /// Element-count specification for [`vec()`]: an exact count or a
    /// half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self { lo: r.start, hi: r.end }
        }
    }

    /// Generates `Vec`s whose elements come from `element` and whose length
    /// is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let len = if self.size.hi - self.size.lo <= 1 {
                self.size.lo
            } else {
                self.size.lo + rng.below(self.size.hi - self.size.lo)
            };
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

/// Upstream-compatible access path: `prop::collection::vec`, etc.
pub mod prop {
    pub use super::collection;
    pub use super::strategy;
}

/// The glob-import surface used by every test file.
pub mod prelude {
    pub use super::prop;
    pub use super::strategy::{BoxedStrategy, Just, Strategy};
    pub use super::test_runner::{ProptestConfig, TestCaseError};
    pub use super::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Defines `#[test]` functions over generated inputs.
///
/// Supports the subset of upstream syntax this repo uses: an optional
/// leading `#![proptest_config(...)]`, then any number of
/// `fn name(pat in strategy, ...) { body }` items with attributes and doc
/// comments.
#[macro_export]
macro_rules! proptest {
    (@run ($cfg:expr)) => {};
    (@run ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut ran: u32 = 0;
            let mut attempts: u32 = 0;
            let max_attempts = cfg.cases.saturating_mul(20).saturating_add(100);
            while ran < cfg.cases {
                attempts += 1;
                assert!(
                    attempts <= max_attempts,
                    "proptest {}: too many rejected cases ({} attempts for {} cases)",
                    stringify!($name),
                    attempts,
                    cfg.cases,
                );
                let ($($pat,)*) = ($(
                    match $crate::strategy::Strategy::gen_value(&{ $strat }, &mut rng) {
                        ::core::option::Option::Some(v) => v,
                        ::core::option::Option::None => continue,
                    },
                )*);
                let outcome = (|| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    { $body }
                    ::core::result::Result::Ok(())
                })();
                match outcome {
                    ::core::result::Result::Ok(()) => ran += 1,
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {}
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!("proptest {} (case {}): {}", stringify!($name), ran, msg);
                    }
                }
            }
        }
        $crate::proptest! { @run ($cfg) $($rest)* }
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @run ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            @run ($crate::test_runner::ProptestConfig::default())
            $($rest)*
        }
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        // `if cond {} else { fail }` rather than `if !cond` so conditions
        // on partially ordered operands don't trip clippy::neg_cmp_op.
        if $cond {
        } else {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if $cond {
        } else {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: `{:?}` != `{:?}`", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("{}: `{:?}` != `{:?}`", format!($($fmt)+), l, r),
            ));
        }
    }};
}

/// Rejects the current case (retried, not failed) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vec_generate_in_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic("shim::smoke");
        let s = prop::collection::vec(0.5f64..2.0, 3..7);
        for _ in 0..100 {
            let v = s.gen_value(&mut rng).unwrap();
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|x| (0.5..2.0).contains(x)));
        }
    }

    #[test]
    fn filter_rejects() {
        let mut rng = crate::test_runner::TestRng::deterministic("shim::filter");
        let s = (0u64..10).prop_filter("even", |x| x % 2 == 0);
        let mut some = 0;
        let mut none = 0;
        for _ in 0..200 {
            match s.gen_value(&mut rng) {
                Some(x) => {
                    assert_eq!(x % 2, 0);
                    some += 1;
                }
                None => none += 1,
            }
        }
        assert!(some > 0 && none > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro wires bindings, assume, and assertions together.
        #[test]
        fn macro_end_to_end(
            xs in prop::collection::vec(1u64..50, 1..8),
            scale in 1.0f64..3.0,
        ) {
            prop_assume!(!xs.is_empty());
            let total: u64 = xs.iter().sum();
            prop_assert!(total >= xs.len() as u64, "sum {} below len {}", total, xs.len());
            prop_assert_eq!(xs.len(), xs.iter().map(|_| 1usize).sum::<usize>());
            let scaled = total as f64 * scale;
            prop_assert!(scaled >= total as f64);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in 0u32..100) {
            prop_assert!(x < 100);
        }
    }

    #[test]
    fn oneof_covers_arms() {
        let mut rng = crate::test_runner::TestRng::deterministic("shim::oneof");
        let s = prop_oneof![
            (0u64..1).prop_map(|_| "a"),
            (0u64..1).prop_map(|_| "b"),
        ];
        let mut seen_a = false;
        let mut seen_b = false;
        for _ in 0..64 {
            match s.gen_value(&mut rng).unwrap() {
                "a" => seen_a = true,
                "b" => seen_b = true,
                _ => unreachable!(),
            }
        }
        assert!(seen_a && seen_b);
    }
}
