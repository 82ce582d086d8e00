//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this path crate
//! implements the slice of the proptest 1.x API the workspace's
//! property tests use: the `proptest!` macro with
//! `#![proptest_config(..)]`, `prop_assert!`/`prop_assert_eq!`,
//! `prop_oneof!`, `Just`, `any`, integer-range / tuple / collection
//! strategies, `prop_map`, and `prop_recursive`.
//!
//! Differences from upstream: cases are generated from a fixed
//! deterministic seed (fully reproducible runs), there is **no
//! shrinking** (a failing case panics with the assertion message), and
//! `.proptest-regressions` files are ignored.

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;
    use std::rc::Rc;

    /// A value generator. Object-safe core (`generate`) plus sized
    /// combinators, mirroring proptest's `Strategy`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erase into a cheaply clonable handle.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }

        /// Recursive strategies: at each of `depth` levels, flip
        /// between the leaf strategy and one recursion step. The
        /// `_desired_size`/`_expected_branch_size` tuning knobs of
        /// upstream are accepted and ignored.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut cur = leaf.clone();
            for _ in 0..depth {
                let expanded = recurse(cur).boxed();
                cur = OneOf {
                    options: vec![leaf.clone(), expanded],
                }
                .boxed();
            }
            cur
        }
    }

    /// Clonable type-erased strategy (stands in for proptest's
    /// `BoxedStrategy`).
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct OneOf<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> OneOf<T> {
        /// Build from a non-empty list of alternatives.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (u128::from(rng.next_u64()) % span) as i128;
                    (self.start as i128 + off) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
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

    /// Types with a canonical strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        /// The canonical strategy type.
        type Strategy: Strategy<Value = Self>;
        /// Build the canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// Canonical strategy for `bool`.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for bool {
        type Strategy = AnyBool;
        fn arbitrary() -> AnyBool {
            AnyBool
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                type Strategy = Map<Range<$t>, fn($t) -> $t>;
                fn arbitrary() -> Self::Strategy {
                    (<$t>::MIN..<$t>::MAX).prop_map((|v| v) as fn($t) -> $t)
                }
            }
        )*};
    }

    impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }
}

pub mod collection {
    //! Collection strategies (`proptest::collection`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Half-open size specification accepted by the collection
    /// strategies: an exact `usize` or a `Range<usize>`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl SizeRange {
        fn pick(self, rng: &mut TestRng) -> usize {
            self.lo + rng.below(self.hi - self.lo)
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate vectors of values from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>`. Duplicate draws collapse, so
    /// the set may come out smaller than the drawn size (same
    /// observable contract as upstream for the sizes used here).
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate ordered sets of values from `element`.
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Test configuration and the deterministic case RNG.

    /// Per-test configuration (`cases` is the only knob the workspace
    /// uses).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run `cases` generated inputs per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// SplitMix64 case generator, seeded deterministically so failures
    /// reproduce run-to-run.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// The fixed-seed generator used by the `proptest!` macro.
        pub fn deterministic() -> Self {
            TestRng {
                state: 0x1D1F_F0CA_5EED_2026,
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

        /// Uniform in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Uniform choice among strategy arms (weights unsupported).
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Property assertion; panics (no shrinking in this stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Property equality assertion; panics (no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// The property-test macro: expands each `fn name(arg in strategy, ..)`
/// into a plain test that generates and runs `config.cases` inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $($(#[$meta:meta])* fn $name:ident(
        $($arg:ident in $strat:expr),+ $(,)?
    ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                let mut __rng = $crate::test_runner::TestRng::deterministic();
                for __case in 0..__config.cases {
                    let _ = __case;
                    $(
                        let $arg = $crate::strategy::Strategy::generate(
                            &($strat),
                            &mut __rng,
                        );
                    )+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::OneOf;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_tuples_and_maps_compose() {
        let mut rng = TestRng::deterministic();
        let strat = (0u8..4, -5i64..5).prop_map(|(a, b)| (a as i64) * 100 + b);
        for _ in 0..1_000 {
            let v = strat.generate(&mut rng);
            let (hi, lo) = (v.div_euclid(100), v.rem_euclid(100));
            let (hi, lo) = if lo > 50 { (hi + 1, lo - 100) } else { (hi, lo) };
            assert!((0..4).contains(&hi), "{v}");
            assert!((-5..5).contains(&lo), "{v}");
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = TestRng::deterministic();
        let strat: OneOf<i32> = prop_oneof![Just(1), Just(2), Just(3)];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(strat.generate(&mut rng));
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn collections_respect_sizes() {
        let mut rng = TestRng::deterministic();
        let v = crate::collection::vec(0i64..10, 4);
        let s = crate::collection::btree_set(0usize..3, 0..3);
        for _ in 0..200 {
            assert_eq!(v.generate(&mut rng).len(), 4);
            let set = s.generate(&mut rng);
            assert!(set.len() <= 2);
            assert!(set.iter().all(|&x| x < 3));
        }
    }

    #[test]
    fn recursion_terminates_and_nests() {
        #[derive(Debug, Clone)]
        #[allow(dead_code)]
        enum Tree {
            Leaf(i64),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(l, r) => 1 + depth(l).max(depth(r)),
            }
        }
        let strat = (0i64..10).prop_map(Tree::Leaf).prop_recursive(
            3,
            8,
            2,
            |inner| {
                (inner.clone(), inner)
                    .prop_map(|(l, r)| Tree::Node(Box::new(l), Box::new(r)))
            },
        );
        let mut rng = TestRng::deterministic();
        let mut max = 0;
        for _ in 0..500 {
            max = max.max(depth(&strat.generate(&mut rng)));
        }
        assert!(max >= 1, "recursion never fired");
        assert!(max <= 3, "depth bound exceeded: {max}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro itself: generated args are in range.
        #[test]
        fn macro_generates_cases(x in 0i64..100, v in crate::collection::vec(any::<bool>(), 0..5)) {
            prop_assert!((0..100).contains(&x));
            prop_assert!(v.len() < 5);
        }
    }
}
