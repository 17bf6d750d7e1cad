//! Value-generation strategies: ranges, tuples, `Just`, and `prop_map`.

use crate::test_runner::TestRng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values of one type.
///
/// This subset generates directly (no shrinking): `generate` draws one
/// value from the strategy's distribution using the case RNG.
pub trait Strategy {
    /// The generated type (must be `Debug` so failures can report it).
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// A strategy applying `map` to every generated value.
    fn prop_map<U, F>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { source: self, map }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    source: S,
    map: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    U: Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.map)(self.source.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.uniform_f64(self.start, self.end)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        // For floats the half-open draw is indistinguishable in practice.
        rng.uniform_f64(*self.start(), *self.end())
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
                {
                    let lo = self.start as i128;
                    let hi = self.end as i128;
                    assert!(lo < hi, "empty range");
                    let span = (hi - lo) as u64;
                    (lo + rng.uniform_u64(0, span) as i128) as $t
                }
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
                {
                    let lo = *self.start() as i128;
                    let hi = *self.end() as i128;
                    assert!(lo <= hi, "empty range");
                    let span = (hi - lo + 1) as u64;
                    (lo + rng.uniform_u64(0, span) as i128) as $t
                }
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn integer_ranges_cover_and_respect_bounds() {
        let mut rng = TestRng::for_case("cover", 0);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let v = (3u64..7).generate(&mut rng);
            assert!((3..7).contains(&v));
            seen.insert(v);
        }
        assert_eq!(seen.len(), 4, "all of 3..7 should appear: {seen:?}");
    }

    #[test]
    fn signed_ranges_work() {
        let mut rng = TestRng::for_case("signed", 0);
        for _ in 0..100 {
            let v = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn just_yields_the_value() {
        let mut rng = TestRng::for_case("just", 0);
        assert_eq!(Just(42u64).generate(&mut rng), 42);
    }
}
