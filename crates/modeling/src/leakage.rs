//! Nonlinear fitting of the Eq. 5 leakage model.
//!
//! The paper adopts the empirical temperature/voltage leakage model of
//! Liao, He & Lepak:
//!
//! ```text
//! P_lkg(v, T) = k1·v·T²·e^((α·v + β)/T) + k2·e^(γ·v + δ)      (Eq. 5)
//! ```
//!
//! with `T` in kelvin, and notes its parameters "are determined using
//! non-linear numerical solutions and mean square error minimization".
//! This module implements that determination: Levenberg–Marquardt with a
//! numerical Jacobian, positivity enforced by optimizing `ln k1` / `ln k2`,
//! and randomized multi-start to escape poor basins.

use crate::linalg::{lu_solve, Matrix};
use crate::ModelError;
use dora_sim_core::units::{Celsius, Watts};
use dora_sim_core::Rng;

/// The six Eq. 5 parameters.
///
/// This mirrors the SoC power model's parameter set, but lives here so the
/// fitting machinery has no dependency on the simulator: it fits any
/// `(voltage, temperature, power)` observations from any source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eq5Params {
    /// Scale of the temperature-dependent subthreshold term.
    pub k1: f64,
    /// Voltage slope inside the exponential (kelvin per volt).
    pub alpha: f64,
    /// Offset inside the exponential (kelvin).
    pub beta: f64,
    /// Scale of the gate-leakage term.
    pub k2: f64,
    /// Voltage slope of the gate term.
    pub gamma: f64,
    /// Offset of the gate term.
    pub delta: f64,
}

impl Eq5Params {
    /// Evaluates Eq. 5 at supply `voltage` (volts) and temperature `temp`.
    pub fn eval(&self, voltage: f64, temp: Celsius) -> Watts {
        let t = temp.to_kelvin();
        if t <= 0.0 || voltage <= 0.0 {
            return Watts::ZERO;
        }
        let sub = self.k1 * voltage * t * t * ((self.alpha * voltage + self.beta) / t).exp();
        let gate = self.k2 * (self.gamma * voltage + self.delta).exp();
        Watts::new(sub + gate)
    }

    fn to_theta(self) -> [f64; 6] {
        [
            self.k1.max(1e-12).ln(),
            self.alpha,
            self.beta,
            self.k2.max(1e-12).ln(),
            self.gamma,
            self.delta,
        ]
    }

    fn from_theta(theta: &[f64; 6]) -> Eq5Params {
        Eq5Params {
            k1: theta[0].exp(),
            alpha: theta[1],
            beta: theta[2],
            k2: theta[3].exp(),
            gamma: theta[4],
            delta: theta[5],
        }
    }
}

/// One calibration measurement: leakage power at a voltage/temperature
/// operating condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageObservation {
    /// Supply voltage in volts.
    pub voltage: f64,
    /// Die temperature.
    pub temp: Celsius,
    /// Measured leakage power.
    pub power: Watts,
}

/// The result of a leakage fit.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageFit {
    /// The fitted parameters.
    pub params: Eq5Params,
    /// Final sum of squared residuals.
    pub sse: f64,
    /// Levenberg–Marquardt iterations spent by the winning start.
    pub iterations: usize,
}

impl LeakageFit {
    /// Root-mean-square residual in watts.
    pub fn rmse(&self, n_observations: usize) -> f64 {
        if n_observations == 0 {
            0.0
        } else {
            (self.sse / n_observations as f64).sqrt()
        }
    }
}

/// `model − measured` in watts as a raw number: the Levenberg–Marquardt
/// solver's residuals and Jacobian entries.
#[expect(
    clippy::disallowed_methods,
    reason = "least-squares fitting works on raw residuals and their squares"
)]
fn residual(model: Watts, measured: Watts) -> f64 {
    model.value() - measured.value()
}

fn sse(params: &Eq5Params, obs: &[LeakageObservation]) -> f64 {
    obs.iter()
        .map(|o| {
            let r = residual(params.eval(o.voltage, o.temp), o.power);
            r * r
        })
        .sum()
}

/// One Levenberg–Marquardt descent from `start`; returns the refined
/// parameters, their SSE, and iterations used.
fn lm_descend(
    start: Eq5Params,
    obs: &[LeakageObservation],
    max_iters: usize,
) -> (Eq5Params, f64, usize) {
    let n = obs.len();
    let mut theta = start.to_theta();
    let mut current = sse(&Eq5Params::from_theta(&theta), obs);
    let mut lambda = 1e-3;
    let mut iterations = 0;

    for iter in 0..max_iters {
        iterations = iter + 1;
        let params = Eq5Params::from_theta(&theta);
        // Residuals and numerical Jacobian.
        let residuals: Vec<f64> = obs
            .iter()
            .map(|o| residual(params.eval(o.voltage, o.temp), o.power))
            .collect();
        let mut jac = Matrix::zeros(n, 6);
        for j in 0..6 {
            let h = (theta[j].abs() * 1e-6).max(1e-7);
            let mut bumped = theta;
            bumped[j] += h;
            let p_bumped = Eq5Params::from_theta(&bumped);
            for (i, o) in obs.iter().enumerate() {
                let d = residual(
                    p_bumped.eval(o.voltage, o.temp),
                    params.eval(o.voltage, o.temp),
                ) / h;
                jac.set(i, j, if d.is_finite() { d } else { 0.0 });
            }
        }
        // Normal equations with LM damping.
        let jt = jac.transpose();
        let jtj = jt.matmul(&jac);
        let jtr = jt.matvec(&residuals);
        let mut improved = false;
        for _ in 0..8 {
            let mut damped = jtj.clone();
            for d in 0..6 {
                let v = damped.get(d, d);
                damped.set(d, d, v + lambda * v.max(1e-12));
            }
            let rhs: Vec<f64> = jtr.iter().map(|v| -v).collect();
            let Ok(step) = lu_solve(&damped, &rhs) else {
                lambda *= 10.0;
                continue;
            };
            let mut candidate = theta;
            for (t, s) in candidate.iter_mut().zip(&step) {
                *t += s;
            }
            let cand_sse = sse(&Eq5Params::from_theta(&candidate), obs);
            if cand_sse.is_finite() && cand_sse < current {
                let rel = (current - cand_sse) / current.max(1e-30);
                theta = candidate;
                current = cand_sse;
                lambda = (lambda * 0.3).max(1e-12);
                improved = true;
                if rel < 1e-12 {
                    return (Eq5Params::from_theta(&theta), current, iterations);
                }
                break;
            }
            lambda *= 10.0;
        }
        if !improved {
            break;
        }
    }
    (Eq5Params::from_theta(&theta), current, iterations)
}

/// Fits Eq. 5 to observations by multi-start Levenberg–Marquardt.
///
/// `seed` pins the randomized restarts; the fit is fully deterministic.
///
/// # Errors
///
/// [`ModelError::TooFewObservations`] with fewer than 6 observations (the
/// parameter count), or [`ModelError::NoConvergence`] if every start
/// diverges.
///
/// # Example
///
/// ```
/// use dora_modeling::leakage::{fit_leakage, Eq5Params, LeakageObservation};
/// use dora_sim_core::units::Celsius;
///
/// let truth = Eq5Params {
///     k1: 0.22, alpha: 800.0, beta: -4300.0,
///     k2: 0.05, gamma: 2.0, delta: -2.0,
/// };
/// let obs: Vec<LeakageObservation> = (0..40)
///     .map(|i| {
///         let v = 0.8 + 0.3 * (i % 8) as f64 / 7.0;
///         let t = Celsius::new(25.0 + 50.0 * (i / 8) as f64 / 4.0);
///         LeakageObservation { voltage: v, temp: t, power: truth.eval(v, t) }
///     })
///     .collect();
/// let fit = fit_leakage(&obs, 42)?;
/// // Noiseless synthetic data: the fit reproduces the curve closely.
/// let mid = Celsius::new(50.0);
/// assert!((fit.params.eval(1.0, mid) - truth.eval(1.0, mid)).value().abs() < 0.01);
/// # Ok::<(), dora_modeling::ModelError>(())
/// ```
pub fn fit_leakage(obs: &[LeakageObservation], seed: u64) -> Result<LeakageFit, ModelError> {
    if obs.len() < 6 {
        return Err(ModelError::TooFewObservations {
            got: obs.len(),
            need: 6,
        });
    }
    for o in obs {
        if o.voltage <= 0.0
            || !o.voltage.is_finite()
            || !o.temp.is_finite()
            || o.power < Watts::ZERO
            || !o.power.is_finite()
        {
            return Err(ModelError::ShapeMismatch(format!(
                "implausible observation {o:?}"
            )));
        }
    }
    let mut rng = Rng::seed_from_u64(seed);
    // A physically-motivated center plus randomized perturbations.
    let center = Eq5Params {
        k1: 0.1,
        alpha: 1000.0,
        beta: -4000.0,
        k2: 0.05,
        gamma: 2.0,
        delta: -2.0,
    };
    let mut best: Option<(Eq5Params, f64, usize)> = None;
    for attempt in 0..10 {
        let start = if attempt == 0 {
            center
        } else {
            Eq5Params {
                k1: center.k1 * rng.jitter(1.0),
                alpha: rng.range_f64(200.0, 2000.0),
                beta: rng.range_f64(-6500.0, -2500.0),
                k2: center.k2 * rng.jitter(1.0),
                gamma: rng.range_f64(0.5, 4.0),
                delta: rng.range_f64(-5.0, 1.0),
            }
        };
        let (params, sse, iters) = lm_descend(start, obs, 300);
        if !sse.is_finite() {
            continue;
        }
        if best.as_ref().is_none_or(|(_, b, _)| sse < *b) {
            best = Some((params, sse, iters));
        }
        // Early out on an essentially perfect fit.
        if sse < 1e-12 {
            break;
        }
    }
    let (params, sse, iterations) =
        best.ok_or_else(|| ModelError::NoConvergence("all starts diverged".into()))?;
    Ok(LeakageFit {
        params,
        sse,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Eq5Params {
        Eq5Params {
            k1: 0.22,
            alpha: 800.0,
            beta: -4300.0,
            k2: 0.05,
            gamma: 2.0,
            delta: -2.0,
        }
    }

    fn grid_observations(noise_sigma: f64, seed: u64) -> Vec<LeakageObservation> {
        let t = truth();
        let mut rng = Rng::seed_from_u64(seed);
        let mut obs = Vec::new();
        for vi in 0..8 {
            for ti in 0..6 {
                let v = 0.78 + 0.34 * vi as f64 / 7.0;
                let c = Celsius::new(20.0 + 55.0 * ti as f64 / 5.0);
                let p = t.eval(v, c) * rng.jitter(noise_sigma);
                obs.push(LeakageObservation {
                    voltage: v,
                    temp: c,
                    power: p,
                });
            }
        }
        obs
    }

    #[test]
    fn fits_noiseless_data_essentially_exactly() {
        let obs = grid_observations(0.0, 1);
        let fit = fit_leakage(&obs, 7).expect("fits");
        assert!(fit.rmse(obs.len()) < 1e-3, "rmse {}", fit.rmse(obs.len()));
        // Predictions match across the operating envelope, including
        // extrapolation to a hotter corner.
        let t = truth();
        for (v, c) in [(0.8, 30.0), (1.0, 55.0), (1.1, 80.0)] {
            let c = Celsius::new(c);
            let rel = (fit.params.eval(v, c) - t.eval(v, c)).value().abs() / t.eval(v, c).value();
            assert!(rel < 0.02, "rel error {rel} at ({v}, {c})");
        }
    }

    #[test]
    fn fits_noisy_data_within_tolerance() {
        let obs = grid_observations(0.03, 2);
        let fit = fit_leakage(&obs, 9).expect("fits");
        let t = truth();
        for (v, c) in [(0.85, 40.0), (1.05, 60.0)] {
            let c = Celsius::new(c);
            let rel = (fit.params.eval(v, c) - t.eval(v, c)).value().abs() / t.eval(v, c).value();
            assert!(rel < 0.08, "rel error {rel} at ({v}, {c})");
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let obs = grid_observations(0.02, 3);
        let a = fit_leakage(&obs, 11).expect("fits");
        let b = fit_leakage(&obs, 11).expect("fits");
        assert_eq!(a.params, b.params);
        assert_eq!(a.sse, b.sse);
    }

    #[test]
    fn too_few_observations_rejected() {
        let obs = grid_observations(0.0, 1);
        assert!(matches!(
            fit_leakage(&obs[..5], 1).unwrap_err(),
            ModelError::TooFewObservations { got: 5, need: 6 }
        ));
    }

    #[test]
    fn implausible_observations_rejected() {
        let mut obs = grid_observations(0.0, 1);
        obs[0].power = Watts::new(f64::NAN);
        assert!(matches!(
            fit_leakage(&obs, 1).unwrap_err(),
            ModelError::ShapeMismatch(_)
        ));
        let mut obs2 = grid_observations(0.0, 1);
        obs2[0].voltage = -1.0;
        assert!(fit_leakage(&obs2, 1).is_err());
    }

    #[test]
    fn eval_degenerate_inputs() {
        let t = truth();
        assert_eq!(t.eval(0.0, Celsius::new(50.0)), Watts::ZERO);
        assert_eq!(t.eval(1.0, Celsius::new(-300.0)), Watts::ZERO);
    }

    #[test]
    fn fitted_model_is_monotone_like_truth() {
        let obs = grid_observations(0.01, 5);
        let fit = fit_leakage(&obs, 13).expect("fits");
        let mut last = Watts::ZERO;
        for c in [25.0, 40.0, 55.0, 70.0] {
            let p = fit.params.eval(1.0, Celsius::new(c));
            assert!(p > last, "fitted leakage must rise with temperature");
            last = p;
        }
    }
}
