//! Property-based tests of the mergeable-sketch layer the fleet report
//! is built on: merge associativity, grouping/order invariance of the
//! discrete state, the empty-histogram identity, and digest stability.
//!
//! One subtlety is load-bearing for the fleet determinism contract:
//! the *discrete* state (bin counts, totals) is exactly associative
//! under any grouping, while the float `sum` is a left fold — so a
//! **fixed** shard layout merged in a **fixed** order is byte-stable,
//! but regrouping shards may move the sum by an ULP. The properties
//! below pin down both halves of that contract.

#![expect(clippy::unwrap_used, reason = "test code asserts invariants directly")]

use dora_repro::sim::sketch::{Digest64, FixedHistogram};
use proptest::prelude::*;

const BINS: usize = 24;
const LO: f64 = 0.0;
const HI: f64 = 12.0;

fn histogram(values: &[f64]) -> FixedHistogram {
    let mut h = FixedHistogram::new(BINS, LO, HI).unwrap();
    for &v in values {
        h.record(v);
    }
    h
}

fn digest_of(h: &FixedHistogram) -> u64 {
    let mut d = Digest64::new();
    h.digest_into(&mut d);
    d.finish()
}

/// Sampled values straddle the histogram range so underflow and
/// overflow counters participate in every property.
fn values() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-3.0f64..18.0, 0..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Discrete state is exactly associative: `(a ⊕ b) ⊕ c` and
    /// `a ⊕ (b ⊕ c)` agree on every counter, and the float sums agree
    /// to within reassociation ULPs.
    #[test]
    fn merge_is_associative(a in values(), b in values(), c in values()) {
        let (ha, hb, hc) = (histogram(&a), histogram(&b), histogram(&c));

        let mut left = ha.clone();
        left.merge(&hb).unwrap();
        left.merge(&hc).unwrap();

        let mut bc = hb.clone();
        bc.merge(&hc).unwrap();
        let mut right = ha.clone();
        right.merge(&bc).unwrap();

        prop_assert_eq!(left.bin_counts(), right.bin_counts());
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.underflow(), right.underflow());
        prop_assert_eq!(left.overflow(), right.overflow());
        let tolerance = 1e-12 * left.sum().abs().max(1.0);
        prop_assert!((left.sum() - right.sum()).abs() <= tolerance);
    }

    /// A fixed partition merged in a fixed order is bitwise
    /// reproducible: recomputing the same sharded fold yields the same
    /// digest, float sum included. This — not grouping invariance — is
    /// the contract `--jobs 1/N` byte-identity rests on: the shard
    /// layout never changes with executor width, only shard ownership.
    #[test]
    fn fixed_partition_fold_is_bitwise_reproducible(xs in values(), cut in 0usize..64) {
        let cut = cut.min(xs.len());
        let fold = || {
            let mut h = histogram(&xs[..cut]);
            h.merge(&histogram(&xs[cut..])).unwrap();
            h
        };
        let (a, b) = (fold(), fold());
        prop_assert_eq!(a.sum().to_bits(), b.sum().to_bits());
        prop_assert_eq!(digest_of(&a), digest_of(&b));
        // And the discrete state of any partition matches the whole.
        let whole = histogram(&xs);
        prop_assert_eq!(a.bin_counts(), whole.bin_counts());
        prop_assert_eq!(a.count(), whole.count());
    }

    /// Merging singleton shards in sequence order IS the unsharded left
    /// fold, bit for bit — each one-sample histogram carries an exact
    /// sum, so the merge chain reassociates nothing.
    #[test]
    fn singleton_shard_fold_matches_whole_bitwise(xs in values()) {
        let whole = histogram(&xs);
        let mut folded = FixedHistogram::new(BINS, LO, HI).unwrap();
        for &x in &xs {
            folded.merge(&histogram(&[x])).unwrap();
        }
        prop_assert_eq!(folded.sum().to_bits(), whole.sum().to_bits());
        prop_assert_eq!(digest_of(&folded), digest_of(&whole));
    }

    /// The empty histogram is a two-sided identity, bitwise.
    #[test]
    fn empty_is_identity(xs in values()) {
        let h = histogram(&xs);
        let empty = FixedHistogram::new(BINS, LO, HI).unwrap();

        let mut left = empty.clone();
        left.merge(&h).unwrap();
        let mut right = h.clone();
        right.merge(&empty).unwrap();

        prop_assert_eq!(digest_of(&left), digest_of(&h));
        prop_assert_eq!(digest_of(&right), digest_of(&h));
        prop_assert_eq!(left.sum().to_bits(), h.sum().to_bits());
        prop_assert_eq!(right.sum().to_bits(), h.sum().to_bits());
    }

    /// Merging shards in a *different* order still agrees on all
    /// discrete state (commutativity of the counters).
    #[test]
    fn counters_commute(a in values(), b in values()) {
        let (ha, hb) = (histogram(&a), histogram(&b));
        let mut ab = ha.clone();
        ab.merge(&hb).unwrap();
        let mut ba = hb.clone();
        ba.merge(&ha).unwrap();
        prop_assert_eq!(ab.bin_counts(), ba.bin_counts());
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert_eq!(ab.underflow(), ba.underflow());
        prop_assert_eq!(ab.overflow(), ba.overflow());
    }

    /// Shape mismatches are merge errors, never silent corruption.
    #[test]
    fn shape_mismatch_is_rejected(xs in values()) {
        let h = histogram(&xs);
        let before = digest_of(&h);
        let mut target = h.clone();
        let narrow = FixedHistogram::new(BINS - 1, LO, HI).unwrap();
        prop_assert!(target.merge(&narrow).is_err());
        prop_assert_eq!(digest_of(&target), before, "failed merge must not mutate");
    }

    /// Recording a non-finite value is ignored; everything else lands in
    /// exactly one of (underflow | bins | overflow).
    #[test]
    fn every_finite_record_lands_once(xs in values()) {
        let mut h = histogram(&xs);
        let counted: u64 = h.bin_counts().iter().sum::<u64>() + h.underflow() + h.overflow();
        prop_assert_eq!(counted, xs.len() as u64);
        let before = digest_of(&h);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        prop_assert_eq!(digest_of(&h), before);
    }
}

/// `Running` is the third mergeable sketch the fleet report folds
/// (alongside `FixedHistogram` and `Digest64`); its parallel-Welford
/// merge is float-*approximate* rather than bitwise, so these
/// properties assert exactness on the discrete state (count, min, max)
/// and tolerance-bounded agreement on the moments (mean, variance).
mod running_merge {
    use dora_repro::sim::stats::Running;
    use proptest::prelude::*;

    fn running(values: &[f64]) -> Running {
        let mut r = Running::new();
        for &v in values {
            r.push(v);
        }
        r
    }

    fn close(a: f64, b: f64) -> bool {
        // Welford merges reassociate the second moment; allow a few
        // orders of magnitude over ULP noise, relative to magnitude.
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    fn values() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-3.0f64..18.0, 0..64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` agree exactly on count/min/
        /// max and to tolerance on mean/variance.
        #[test]
        fn merge_is_associative(a in values(), b in values(), c in values()) {
            let (ra, rb, rc) = (running(&a), running(&b), running(&c));

            let mut left = ra.clone();
            left.merge(&rb);
            left.merge(&rc);

            let mut bc = rb.clone();
            bc.merge(&rc);
            let mut right = ra.clone();
            right.merge(&bc);

            prop_assert_eq!(left.count(), right.count());
            prop_assert_eq!(left.min().to_bits(), right.min().to_bits());
            prop_assert_eq!(left.max().to_bits(), right.max().to_bits());
            prop_assert!(close(left.mean(), right.mean()),
                "mean {} vs {}", left.mean(), right.mean());
            prop_assert!(close(left.variance(), right.variance()),
                "variance {} vs {}", left.variance(), right.variance());
        }

        /// Shard order does not matter: `a ⊕ b` and `b ⊕ a` agree the
        /// same way, so shard *ownership* (which worker folds which) is
        /// free to change without moving the reported statistics.
        #[test]
        fn merge_is_order_insensitive(a in values(), b in values()) {
            let (ra, rb) = (running(&a), running(&b));
            let mut ab = ra.clone();
            ab.merge(&rb);
            let mut ba = rb.clone();
            ba.merge(&ra);

            prop_assert_eq!(ab.count(), ba.count());
            prop_assert_eq!(ab.min().to_bits(), ba.min().to_bits());
            prop_assert_eq!(ab.max().to_bits(), ba.max().to_bits());
            prop_assert!(close(ab.mean(), ba.mean()),
                "mean {} vs {}", ab.mean(), ba.mean());
            prop_assert!(close(ab.variance(), ba.variance()),
                "variance {} vs {}", ab.variance(), ba.variance());
        }

        /// Any two-way split merged back equals the unsharded stream to
        /// tolerance — merging loses no information relative to pushing
        /// every sample into one accumulator.
        #[test]
        fn split_merge_matches_whole(xs in values(), cut in 0usize..64) {
            let cut = cut.min(xs.len());
            let whole = running(&xs);
            let mut merged = running(&xs[..cut]);
            merged.merge(&running(&xs[cut..]));

            prop_assert_eq!(merged.count(), whole.count());
            prop_assert_eq!(merged.min().to_bits(), whole.min().to_bits());
            prop_assert_eq!(merged.max().to_bits(), whole.max().to_bits());
            prop_assert!(close(merged.mean(), whole.mean()),
                "mean {} vs {}", merged.mean(), whole.mean());
            prop_assert!(close(merged.variance(), whole.variance()),
                "variance {} vs {}", merged.variance(), whole.variance());
        }

        /// The empty accumulator is a two-sided merge identity.
        #[test]
        fn empty_is_identity(xs in values()) {
            let r = running(&xs);
            let mut left = Running::new();
            left.merge(&r);
            let mut right = r.clone();
            right.merge(&Running::new());
            for out in [&left, &right] {
                prop_assert_eq!(out.count(), r.count());
                prop_assert_eq!(out.mean().to_bits(), r.mean().to_bits());
                prop_assert_eq!(out.variance().to_bits(), r.variance().to_bits());
                prop_assert_eq!(out.min().to_bits(), r.min().to_bits());
                prop_assert_eq!(out.max().to_bits(), r.max().to_bits());
            }
        }
    }
}
