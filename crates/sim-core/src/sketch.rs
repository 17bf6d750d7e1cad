//! Mergeable sketches for fleet-scale streaming aggregation.
//!
//! A fleet campaign streams 10⁴–10⁶ device sessions through a sharded
//! executor. Retaining one `RunResult` per session would make memory
//! O(sessions); instead every shard reduces its sessions into *sketches*
//! — fixed-size summaries with an associative [`FixedHistogram::merge`]
//! — and the driver folds the shard sketches together in a fixed order.
//! Memory stays O(shards) and the merged output is byte-identical for
//! any worker count, because merging is a pure left fold over the shard
//! index (see `dora-campaign`'s fleet module).
//!
//! Two pieces live here, next to [`crate::stats`]:
//!
//! * [`FixedHistogram`] — a fixed-bin histogram over a closed range with
//!   underflow/overflow bins, exact count/sum bookkeeping, an empirical
//!   CDF and quantiles interpolated within bins. Merging two histograms
//!   with the same shape is exact (bin counts add), which is what makes
//!   the deadline-hit CDF and PPW distribution of a million sessions
//!   computable in a few kilobytes.
//! * [`Digest64`] — a canonical FNV-1a fold over the numbers a report
//!   contains, used to pin fleet outputs in determinism tests and CI
//!   golden files.
//!
//! [`crate::stats::Running`] already merges (parallel Welford); sketches
//! compose with it rather than duplicating it.

use std::fmt;

/// Errors from sketch operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchError {
    /// Two sketches with different shapes (bin count or range) cannot be
    /// merged exactly.
    ShapeMismatch {
        /// Shape of the left-hand sketch, `(bins, lo, hi)`.
        left: (usize, f64, f64),
        /// Shape of the right-hand sketch, `(bins, lo, hi)`.
        right: (usize, f64, f64),
    },
    /// A histogram needs at least one bin and a non-empty, finite range.
    BadShape {
        /// The rejected bin count.
        bins: usize,
        /// The rejected lower edge.
        lo: f64,
        /// The rejected upper edge.
        hi: f64,
    },
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::ShapeMismatch { left, right } => write!(
                f,
                "cannot merge histograms of different shapes: \
                 {} bins over [{}, {}) vs {} bins over [{}, {})",
                left.0, left.1, left.2, right.0, right.1, right.2
            ),
            SketchError::BadShape { bins, lo, hi } => {
                write!(f, "bad histogram shape: {bins} bins over [{lo}, {hi})")
            }
        }
    }
}

impl std::error::Error for SketchError {}

/// A fixed-bin histogram over `[lo, hi)` with exact merge.
///
/// Samples below `lo` land in the underflow bin, samples at or above
/// `hi` in the overflow bin, so every finite sample is counted and the
/// CDF is exact at bin edges. The exact sum and count ride along, so the
/// mean is exact even though the distribution is quantized.
///
/// # Example
///
/// ```
/// use dora_sim_core::sketch::FixedHistogram;
///
/// let mut h = FixedHistogram::new(10, 0.0, 10.0).unwrap();
/// for x in [0.5, 2.5, 2.6, 9.9] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.cdf_at(3.0), 0.75); // three of four samples below 3.0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
}

impl FixedHistogram {
    /// Creates an empty histogram with `bins` equal-width bins over
    /// `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// [`SketchError::BadShape`] when `bins == 0`, the range is empty,
    /// or an edge is not finite.
    pub fn new(bins: usize, lo: f64, hi: f64) -> Result<FixedHistogram, SketchError> {
        if bins == 0 || !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(SketchError::BadShape { bins, lo, hi });
        }
        Ok(FixedHistogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
        })
    }

    /// The histogram shape as `(bins, lo, hi)`.
    pub fn shape(&self) -> (usize, f64, f64) {
        (self.bins.len(), self.lo, self.hi)
    }

    /// Adds a sample. Non-finite samples are ignored, as in
    /// [`crate::stats::Running`].
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += x;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / width) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Number of recorded (finite) samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The exact arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The per-bin counts (excluding underflow/overflow), lowest bin
    /// first.
    pub fn bin_counts(&self) -> &[u64] {
        &self.bins
    }

    /// Samples that fell below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples that fell at or above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Fraction of samples `<= x`, interpolated linearly inside the bin
    /// containing `x` (exact at bin edges). Zero when empty.
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if x < self.lo {
            // The underflow mass is unlocated; count it only once x
            // reaches the range start.
            return 0.0;
        }
        if x >= self.hi {
            // Overflow mass is treated as located at `hi`.
            return 1.0;
        }
        let mut below = self.underflow as f64;
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let idx = (((x - self.lo) / width) as usize).min(self.bins.len() - 1);
        for &b in &self.bins[..idx] {
            below += b as f64;
        }
        let frac = ((x - self.lo) - idx as f64 * width) / width;
        below += self.bins[idx] as f64 * frac.clamp(0.0, 1.0);
        below / self.count as f64
    }

    /// The `q`-quantile for `q` in `[0, 1]`, interpolated within the bin
    /// where the cumulative count crosses `q`. Underflow mass reports
    /// `lo`, overflow mass reports `hi`. Zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` (a caller bug, as in
    /// [`crate::stats::Samples::quantile`]).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if self.count == 0 {
            return 0.0;
        }
        let target = q * self.count as f64;
        let mut cum = self.underflow as f64;
        if target <= cum {
            return self.lo;
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &b) in self.bins.iter().enumerate() {
            let next = cum + b as f64;
            if target <= next && b > 0 {
                let frac = (target - cum) / b as f64;
                return self.lo + (i as f64 + frac) * width;
            }
            cum = next;
        }
        self.hi
    }

    /// Adds every count of `other` into `self`. Exact and associative:
    /// merging shard histograms in any grouping yields identical bins,
    /// and a left fold in fixed shard order also makes the *float* `sum`
    /// bit-identical run to run.
    ///
    /// # Errors
    ///
    /// [`SketchError::ShapeMismatch`] when the shapes differ.
    pub fn merge(&mut self, other: &FixedHistogram) -> Result<(), SketchError> {
        // No `..`: a new field fails to compile until it is merged here.
        let FixedHistogram {
            // Shape key, not accumulated state: the shape check below
            // refuses a mismatch, so the edges are never transferred.
            lo: _,
            hi: _,
            bins,
            underflow,
            overflow,
            count,
            sum,
        } = other;
        if self.shape() != other.shape() {
            return Err(SketchError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        for (mine, theirs) in self.bins.iter_mut().zip(bins) {
            *mine += theirs;
        }
        self.underflow += underflow;
        self.overflow += overflow;
        self.count += count;
        self.sum += sum;
        Ok(())
    }

    /// Folds the histogram's canonical content into a digest.
    pub fn digest_into(&self, digest: &mut Digest64) {
        digest.write_f64(self.lo);
        digest.write_f64(self.hi);
        digest.write_u64(self.bins.len() as u64);
        for &b in &self.bins {
            digest.write_u64(b);
        }
        digest.write_u64(self.underflow);
        digest.write_u64(self.overflow);
        digest.write_u64(self.count);
        digest.write_f64(self.sum);
    }
}

/// A 64-bit FNV-1a fold with canonical encodings for the primitives a
/// report contains.
///
/// Not cryptographic — a change detector. Floats are folded by IEEE 754
/// bit pattern (little-endian), so a digest pins results *bitwise*: two
/// runs agree iff every folded number agrees to the last bit. Used by
/// the fleet determinism tests and the CI golden-digest smoke job.
///
/// # Example
///
/// ```
/// use dora_sim_core::sketch::Digest64;
///
/// let mut a = Digest64::new();
/// a.write_u64(7);
/// a.write_f64(1.5);
/// let mut b = Digest64::new();
/// b.write_u64(7);
/// b.write_f64(1.5);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Digest64 {
    fn default() -> Self {
        Digest64::new()
    }
}

impl Digest64 {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Digest64 {
        Digest64 { state: FNV_OFFSET }
    }

    /// Folds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by bit pattern. `-0.0` and `0.0` digest
    /// differently, as do distinct NaN payloads — bitwise means bitwise.
    pub fn write_f64(&mut self, v: f64) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    /// Folds a string (length-prefixed, so `"ab"+"c"` ≠ `"a"+"bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current 64-bit digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[f64]) -> FixedHistogram {
        let mut h = FixedHistogram::new(8, 0.0, 8.0).expect("shape ok");
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn bad_shapes_are_rejected() {
        assert!(FixedHistogram::new(0, 0.0, 1.0).is_err());
        assert!(FixedHistogram::new(4, 1.0, 1.0).is_err());
        assert!(FixedHistogram::new(4, 2.0, 1.0).is_err());
        assert!(FixedHistogram::new(4, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn records_route_to_bins_and_tails() {
        let h = hist(&[-1.0, 0.0, 0.5, 7.99, 8.0, 100.0, f64::NAN]);
        assert_eq!(h.count(), 6, "NaN ignored");
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bin_counts()[0], 2);
        assert_eq!(h.bin_counts()[7], 1);
    }

    #[test]
    fn mean_is_exact() {
        let h = hist(&[1.0, 2.0, 3.0]);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert_eq!(hist(&[]).mean(), 0.0);
    }

    #[test]
    fn cdf_is_exact_at_edges_and_interpolates() {
        let h = hist(&[0.5, 1.5, 2.5, 3.5]);
        assert_eq!(h.cdf_at(-1.0), 0.0);
        assert_eq!(h.cdf_at(2.0), 0.5);
        assert_eq!(h.cdf_at(4.0), 1.0);
        assert_eq!(h.cdf_at(100.0), 1.0);
        // Halfway into the first bin: half its single sample.
        assert!((h.cdf_at(0.5) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = hist(&[1.5, 2.5, 2.6, 6.5]);
        assert_eq!(h.quantile(0.0), 0.0); // empty prefix reports the lo edge
        let med = h.quantile(0.5);
        assert!((2.0..3.0).contains(&med), "median {med}");
        assert!(h.quantile(1.0) <= 8.0);
        let empty = FixedHistogram::new(4, 0.0, 1.0).expect("shape ok");
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn merge_is_exact_and_associative() {
        let a = hist(&[0.5, 1.5]);
        let b = hist(&[2.5, 9.0]);
        let c = hist(&[-3.0, 7.5]);
        // (a+b)+c
        let mut left = a.clone();
        left.merge(&b).expect("same shape");
        left.merge(&c).expect("same shape");
        // a+(b+c)
        let mut bc = b.clone();
        bc.merge(&c).expect("same shape");
        let mut right = a.clone();
        right.merge(&bc).expect("same shape");
        assert_eq!(left, right);
        assert_eq!(left.count(), 6);
        assert_eq!(left, hist(&[0.5, 1.5, 2.5, 9.0, -3.0, 7.5]));
    }

    #[test]
    fn merging_empty_is_identity() {
        let a = hist(&[0.5, 1.5, 7.0]);
        let empty = FixedHistogram::new(8, 0.0, 8.0).expect("shape ok");
        let mut merged = a.clone();
        merged.merge(&empty).expect("same shape");
        assert_eq!(merged, a);
        let mut other_way = empty;
        other_way.merge(&a).expect("same shape");
        assert_eq!(other_way, a);
    }

    #[test]
    fn mismatched_shapes_refuse_to_merge() {
        let mut a = FixedHistogram::new(8, 0.0, 8.0).expect("shape ok");
        let b = FixedHistogram::new(4, 0.0, 8.0).expect("shape ok");
        let err = a.merge(&b).expect_err("shape differs");
        assert!(matches!(err, SketchError::ShapeMismatch { .. }));
        assert!(err.to_string().contains("8 bins"));
    }

    #[test]
    fn digest_distinguishes_content_and_order() {
        let mut a = Digest64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Digest64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefix separates fields");

        let mut h1 = Digest64::new();
        hist(&[1.0, 2.0]).digest_into(&mut h1);
        let mut h2 = Digest64::new();
        hist(&[1.0, 2.5]).digest_into(&mut h2);
        assert_ne!(h1.finish(), h2.finish());

        let mut same = Digest64::new();
        hist(&[1.0, 2.0]).digest_into(&mut same);
        assert_eq!(h1.finish(), same.finish());
    }
}
