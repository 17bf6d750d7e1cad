//! Streaming statistics.
//!
//! Performance counters, power rails and the experiment harness all reduce
//! long simulations to a handful of summary numbers. This module provides
//! the reducers they share:
//!
//! * [`Running`] — Welford mean/variance/min/max without storing samples.
//! * [`Ema`] — exponential moving average, used by utilization tracking in
//!   the `interactive` governor model.
//! * [`Samples`] — a retained sample set with exact quantiles and an
//!   empirical CDF, used for the paper's error-CDF and load-time-CDF
//!   figures (Figs. 5 and 7b).

/// Welford-style running moments over a stream of `f64` samples.
///
/// # Example
///
/// ```
/// use dora_sim_core::stats::Running;
///
/// let mut r = Running::new();
/// for x in [2.0, 4.0, 6.0] {
///     r.push(x);
/// }
/// assert_eq!(r.count(), 3);
/// assert_eq!(r.mean(), 4.0);
/// assert_eq!(r.min(), 2.0);
/// assert_eq!(r.max(), 6.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Running {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample. Non-finite samples are ignored (a simulator NaN is a
    /// bug upstream, but must not poison a whole campaign's statistics).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of (finite) samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; zero when fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample; zero when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; zero when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Running) {
        // No `..`: a new field fails to compile until it is merged here.
        let Running {
            count,
            mean,
            m2,
            min,
            max,
        } = *other;
        if count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + count;
        let delta = mean - self.mean;
        self.m2 += m2 + delta * delta * (self.count as f64 * count as f64) / total as f64;
        self.mean += delta * count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }
}

/// Exponential moving average with a configurable smoothing factor.
///
/// # Example
///
/// ```
/// use dora_sim_core::stats::Ema;
///
/// let mut e = Ema::new(0.5);
/// e.push(10.0);
/// e.push(0.0);
/// assert_eq!(e.value(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ema {
    alpha: f64,
    value: Option<f64>,
}

impl Ema {
    /// Creates an EMA with smoothing factor `alpha` in `(0, 1]`; the first
    /// sample initializes the average directly.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha {alpha} outside (0, 1]");
        Ema { alpha, value: None }
    }

    /// Feeds a sample.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// The current average; zero before any sample.
    // The EMA is dimensionless machinery — it averages whatever
    // quantity its samples carry, so the scalar is the honest type here.
    pub fn value(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }
}

/// A retained sample set with exact order statistics.
///
/// Used where the paper reports distributions: the prediction-error CDFs of
/// Fig. 5 and the load-time CDF of Fig. 7(b).
///
/// # Example
///
/// ```
/// use dora_sim_core::stats::Samples;
///
/// let s: Samples = [4.0, 1.0, 3.0, 2.0].into_iter().collect();
/// assert_eq!(s.quantile(0.0), 1.0);
/// assert_eq!(s.quantile(1.0), 4.0);
/// assert_eq!(s.cdf_at(2.5), 0.5); // half the samples are <= 2.5
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    sorted: Vec<f64>,
    dirty: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample (non-finite values ignored).
    pub fn push(&mut self, x: f64) {
        if x.is_finite() {
            self.sorted.push(x);
            self.dirty = true;
        }
    }

    fn ensure_sorted(&mut self) {
        if self.dirty {
            self.sorted.sort_by(f64::total_cmp);
            self.dirty = false;
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile for `q` in `[0, 1]` using linear interpolation
    /// between order statistics. Returns zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        let mut me = self.clone();
        me.ensure_sorted();
        me.quantile_sorted(q)
    }

    fn quantile_sorted(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Fraction of samples `<= x` (the empirical CDF). Zero when empty.
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let mut me = self.clone();
        me.ensure_sorted();
        let count = me.sorted.partition_point(|&v| v <= x);
        count as f64 / me.sorted.len() as f64
    }

    /// The arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// `(x, F(x))` points of the empirical CDF, one per distinct sample —
    /// exactly the series plotted in the paper's CDF figures.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let mut me = self.clone();
        me.ensure_sorted();
        let n = me.sorted.len();
        let mut points = Vec::new();
        let mut i = 0;
        while i < n {
            let x = me.sorted[i];
            let mut j = i;
            while j + 1 < n && me.sorted[j + 1] == x {
                j += 1;
            }
            points.push((x, (j + 1) as f64 / n as f64));
            i = j + 1;
        }
        points
    }

    /// A read-only view of the samples in sorted order.
    pub fn sorted(&mut self) -> &[f64] {
        self.ensure_sorted();
        &self.sorted
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Samples::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_basic_moments() {
        let mut r = Running::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 5);
        assert!((r.mean() - 3.0).abs() < 1e-12);
        assert!((r.variance() - 2.0).abs() < 1e-12);
        assert_eq!(r.min(), 1.0);
        assert_eq!(r.max(), 5.0);
    }

    #[test]
    fn running_ignores_non_finite() {
        let mut r = Running::new();
        r.push(f64::NAN);
        r.push(f64::INFINITY);
        r.push(2.0);
        assert_eq!(r.count(), 1);
        assert_eq!(r.mean(), 2.0);
    }

    #[test]
    fn running_empty_is_zeroed() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
        assert_eq!(r.variance(), 0.0);
    }

    #[test]
    fn running_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Running::new();
        for &x in &data {
            whole.push(x);
        }
        let mut left = Running::new();
        let mut right = Running::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn ema_converges_to_constant_input() {
        let mut e = Ema::new(0.3);
        for _ in 0..100 {
            e.push(7.0);
        }
        assert!((e.value() - 7.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ema_rejects_zero_alpha() {
        let _ = Ema::new(0.0);
    }

    #[test]
    fn samples_quantiles_interpolate() {
        let s: Samples = [10.0, 20.0, 30.0, 40.0].into_iter().collect();
        assert_eq!(s.quantile(0.0), 10.0);
        assert_eq!(s.quantile(1.0), 40.0);
        assert!((s.quantile(0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn samples_cdf_and_points() {
        let s: Samples = [1.0, 1.0, 2.0, 4.0].into_iter().collect();
        assert_eq!(s.cdf_at(0.5), 0.0);
        assert_eq!(s.cdf_at(1.0), 0.5);
        assert_eq!(s.cdf_at(3.0), 0.75);
        assert_eq!(s.cdf_at(10.0), 1.0);
        assert_eq!(s.cdf_points(), vec![(1.0, 0.5), (2.0, 0.75), (4.0, 1.0)]);
    }

    #[test]
    fn samples_empty_behaviour() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.cdf_at(1.0), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.cdf_points().is_empty());
    }

    #[test]
    fn samples_extend_and_mean() {
        let mut s = Samples::new();
        s.extend([3.0, 1.0, 2.0]);
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.sorted(), &[1.0, 2.0, 3.0]);
    }
}
