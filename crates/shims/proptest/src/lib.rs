//! Workspace-local substitute for the `proptest` crate.
//!
//! Implements the `proptest!` macro, range/`any`/`collection::vec`
//! strategies, `prop_assert*`/`prop_assume`, and `ProptestConfig` on a
//! deterministic per-test RNG. Unlike upstream proptest there is no
//! shrinking: a failing case reports its case number and sampled values
//! are reproducible (seeded from the test's module path and case index),
//! which is enough to debug the properties in this workspace. As upstream,
//! a case `prop_assume!` discards does not count: more are drawn until
//! `cases` have been accepted, and a property that rejects 1024 cases
//! first fails.

/// Deterministic RNG and run configuration.
pub mod test_runner {
    /// Per-run configuration accepted by `#![proptest_config(...)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 32 }
        }
    }

    /// Deterministic splitmix64 generator, seeded per test case.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for case `case` of the test named `name` (stable across
        /// runs, distinct across tests and cases).
        pub fn for_case(name: &str, case: u32) -> Self {
            // FNV-1a over the test name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng {
                state: h ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
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

        /// Uniform f64 in [0, 1).
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// Something that can produce random values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample_value(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }
    int_strategy!(usize, u64, u32, u8);

    macro_rules! float_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    self.start + (rng.unit_f64() as $t) * (self.end - self.start)
                }
            }
        )*};
    }
    float_strategy!(f64, f32);

    /// Types with a canonical whole-domain strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        /// Draws one value from the full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u64, usize);

    /// Strategy over the full domain of `T`.
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// `any::<T>()`: the whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `Vec`s of an element strategy.
    pub struct VecStrategy<S> {
        elem: S,
        sizes: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(!self.sizes.is_empty(), "empty vec-size range");
            let span = (self.sizes.end - self.sizes.start) as u64;
            let len = self.sizes.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.elem.sample_value(rng)).collect()
        }
    }

    /// `vec(elem, sizes)`: vectors with a length drawn from `sizes` and
    /// elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, sizes: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, sizes }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body until `cases` sampled inputs have
/// been accepted (not discarded by [`prop_assume!`]).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal recursion for [`proptest!`]; expands one test fn per step.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            // Upstream's default `max_global_rejects`.
            const MAX_REJECTS: u32 = 1024;
            let __cfg = $cfg;
            let (mut __accepted, mut __rejected) = (0u32, 0u32);
            for __case in 0.. {
                if __accepted == __cfg.cases {
                    break;
                }
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(
                    let $arg = $crate::strategy::Strategy::sample_value(
                        &($strat), &mut __rng);
                )*
                // `Ok(false)`: the case was discarded by `prop_assume!`.
                let __result: ::std::result::Result<bool, ::std::string::String> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(true)
                    })();
                match __result {
                    ::std::result::Result::Ok(true) => __accepted += 1,
                    ::std::result::Result::Ok(false) => {
                        __rejected += 1;
                        assert!(
                            __rejected < MAX_REJECTS,
                            "property `{}` rejected {} cases with {}/{} accepted",
                            stringify!($name),
                            __rejected,
                            __accepted,
                            __cfg.cases
                        );
                    }
                    ::std::result::Result::Err(__msg) => panic!(
                        "property `{}` failed on case {}/{}: {}",
                        stringify!($name),
                        __case + 1,
                        __cfg.cases,
                        __msg
                    ),
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(
                format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), __l, __r));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    }};
}

/// Discards the current case when its precondition does not hold; the
/// harness draws another in its place.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Ok(false);
        }
    };
}

/// The drop-in `use proptest::prelude::*` surface.
pub mod prelude {
    pub use crate::strategy::any;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(a in 3usize..10, b in -2.5f64..2.5, c in any::<bool>()) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((-2.5..2.5).contains(&b));
            let _ = c;
        }

        #[test]
        fn vec_strategy_len_in_bounds(xs in crate::collection::vec(0u64..5, 2..7)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 7);
            prop_assert!(xs.iter().all(|&x| x < 5));
        }

        #[test]
        fn assume_skips(n in 0u32..10) {
            prop_assume!(n != 3);
            prop_assert!(n != 3, "assume failed to skip n = {n}");
        }

        #[test]
        #[should_panic(expected = "rejected 1024 cases with 0/64 accepted")]
        fn rejecting_every_case_fails(n in 0u32..10) {
            prop_assume!(n > 10);
        }
    }

    #[test]
    fn discarded_cases_are_replaced() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static ACCEPTED: AtomicU32 = AtomicU32::new(0);
        proptest! {
            fn half_rejected(n in 0u32..2) {
                prop_assume!(n == 0);
                ACCEPTED.fetch_add(1, Ordering::Relaxed);
            }
        }
        half_rejected();
        assert_eq!(ACCEPTED.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let mut r1 = crate::test_runner::TestRng::for_case("t", 0);
        let mut r2 = crate::test_runner::TestRng::for_case("t", 0);
        let s = 0usize..1000;
        assert_eq!(s.sample_value(&mut r1), s.sample_value(&mut r2));
    }
}
