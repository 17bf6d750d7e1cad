//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// A length distribution for generated collections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound.
    max: usize,
}

impl SizeRange {
    #[expect(
        clippy::expect_used,
        reason = "drawn value is bounded by a usize range"
    )]
    fn draw(&self, rng: &mut TestRng) -> usize {
        if self.min + 1 >= self.max {
            self.min
        } else {
            usize::try_from(rng.uniform_u64(self.min as u64, self.max as u64))
                .expect("length fits usize")
        }
    }
}

impl From<usize> for SizeRange {
    fn from(len: usize) -> Self {
        SizeRange {
            min: len,
            max: len + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(range: Range<usize>) -> Self {
        assert!(range.start < range.end, "empty size range");
        SizeRange {
            min: range.start,
            max: range.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(range: RangeInclusive<usize>) -> Self {
        assert!(range.start() <= range.end(), "empty size range");
        SizeRange {
            min: *range.start(),
            max: *range.end() + 1,
        }
    }
}

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.draw(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A strategy generating vectors whose elements come from `element` and
/// whose length is drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn fixed_length_vectors() {
        let mut rng = TestRng::for_case("fixed", 0);
        let v = vec(0.0f64..1.0, 5).generate(&mut rng);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn ranged_length_vectors() {
        let mut rng = TestRng::for_case("ranged", 0);
        let mut lens = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let v = vec(0u64..10, 1..4).generate(&mut rng);
            assert!((1..4).contains(&v.len()));
            lens.insert(v.len());
        }
        assert_eq!(lens.len(), 3);
    }
}
