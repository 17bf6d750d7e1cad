//! Order statistics for timed repetitions and traced call durations.

/// Sorts a copy of `values` (total order; the harness never produces NaN).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0..=1`) by linear interpolation between the order
/// statistics at rank `q·(n−1)`. Returns 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        }
    }
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The quartiles `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so spreads reported here match the ones an
/// external checker computes from the same values. Needs at least two
/// values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    // Integer arithmetic as in CPython; `delta` goes negative (and the
    // result extrapolates) for very short inputs, exactly as there.
    let n = 4i64;
    let ld = ld as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// A fixed-capacity uniform sample of a stream (Algorithm R), so traced
/// call durations keep exact measured values for percentiles in bounded
/// memory however many calls a run makes. The replacement stream is a
/// fixed xorshift, so which calls are kept does not depend on the host.
#[derive(Debug, Clone)]
pub struct Reservoir {
    capacity: usize,
    seen: u64,
    state: u64,
    samples: Vec<f64>,
}

impl Reservoir {
    /// An empty reservoir keeping at most `capacity` samples.
    pub fn new(capacity: usize) -> Reservoir {
        Reservoir {
            capacity: capacity.max(1),
            seen: 0,
            state: 0x9E37_79B9_7F4A_7C15,
            samples: Vec::new(),
        }
    }

    /// Offers one value.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
            return;
        }
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let slot = self.state % self.seen;
        if let Ok(slot) = usize::try_from(slot) {
            if slot < self.capacity {
                self.samples[slot] = value;
            }
        }
    }

    /// The `q`-quantile of the kept samples.
    pub fn percentile(&self, q: f64) -> f64 {
        percentile(&self.samples, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.5), 25.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reservoir_is_bounded_and_keeps_values() {
        let mut r = Reservoir::new(100);
        for i in 0..10_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.samples.len(), 100);
        let p50 = r.percentile(0.5);
        assert!((2_000.0..8_000.0).contains(&p50), "{p50}");
    }
}
