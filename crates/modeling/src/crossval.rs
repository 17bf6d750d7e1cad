//! K-fold cross-validation for response surfaces.
//!
//! The paper validates its models on held-out pages; during development
//! one also wants an estimate of generalization error *within* the
//! training campaign. This module shuffles the observations into `k`
//! folds, fits the surface on `k−1` of them, scores the held-out fold,
//! and aggregates — the standard protocol, deterministic under a seed.

use crate::metrics::mape;
use crate::surface::{ResponseSurface, SurfaceKind, MAX_INPUTS};
use crate::ModelError;
use dora_sim_core::Rng;

/// The outcome of one cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CvReport {
    /// Held-out MAPE per fold, in fold order.
    pub fold_mapes: Vec<f64>,
}

impl CvReport {
    /// Mean held-out MAPE across folds.
    pub fn mean_mape(&self) -> f64 {
        self.fold_mapes.iter().sum::<f64>() / self.fold_mapes.len() as f64
    }

    /// Standard deviation of the per-fold MAPEs (a stability signal).
    pub fn std_mape(&self) -> f64 {
        let mean = self.mean_mape();
        let var = self
            .fold_mapes
            .iter()
            .map(|m| (m - mean).powi(2))
            .sum::<f64>()
            / self.fold_mapes.len() as f64;
        var.sqrt()
    }
}

/// Runs `k`-fold cross-validation of a surface kind over observations.
///
/// # Errors
///
/// [`ModelError::ShapeMismatch`] for inconsistent inputs, rows of no or
/// more than [`MAX_INPUTS`] inputs, or `k < 2`;
/// [`ModelError::TooFewObservations`] when a training split cannot
/// identify the surface; fit errors propagate.
///
/// # Example
///
/// ```
/// use dora_modeling::crossval::cross_validate;
/// use dora_modeling::surface::SurfaceKind;
///
/// // y = 1 + 2a - b over a grid: linear CV error is ~zero.
/// let xs: Vec<Vec<f64>> = (0..60)
///     .map(|i| vec![(i % 8) as f64, (i % 5) as f64])
///     .collect();
/// let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 * x[0] - x[1]).collect();
/// let report = cross_validate(SurfaceKind::Linear, &xs, &ys, 5, 7)?;
/// assert!(report.mean_mape() < 1e-6);
/// # Ok::<(), dora_modeling::ModelError>(())
/// ```
pub fn cross_validate(
    kind: SurfaceKind,
    xs: &[Vec<f64>],
    ys: &[f64],
    k: usize,
    seed: u64,
) -> Result<CvReport, ModelError> {
    if xs.len() != ys.len() {
        return Err(ModelError::ShapeMismatch(format!(
            "{} inputs vs {} targets",
            xs.len(),
            ys.len()
        )));
    }
    if k < 2 {
        return Err(ModelError::ShapeMismatch(format!(
            "cross-validation needs k >= 2, got {k}"
        )));
    }
    if xs.len() < k {
        return Err(ModelError::TooFewObservations {
            got: xs.len(),
            need: k,
        });
    }
    let n_inputs = xs[0].len();
    if !(1..=MAX_INPUTS).contains(&n_inputs) {
        return Err(ModelError::ShapeMismatch(format!(
            "rows of {n_inputs} inputs; a surface takes 1 to {MAX_INPUTS}"
        )));
    }
    let surface = ResponseSurface::new(kind, n_inputs);

    let mut order: Vec<usize> = (0..xs.len()).collect();
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(&mut order);

    let mut fold_mapes = Vec::with_capacity(k);
    for fold in 0..k {
        let is_held = |pos: usize| pos % k == fold;
        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        let mut held_x = Vec::new();
        let mut held_y = Vec::new();
        for (pos, &idx) in order.iter().enumerate() {
            if is_held(pos) {
                held_x.push(xs[idx].clone());
                held_y.push(ys[idx]);
            } else {
                train_x.push(xs[idx].clone());
                train_y.push(ys[idx]);
            }
        }
        let fit = surface.fit(&train_x, &train_y)?;
        let predicted: Vec<f64> = held_x.iter().map(|x| fit.predict(x)).collect();
        fold_mapes.push(mape(&predicted, &held_y));
    }
    Ok(CvReport { fold_mapes })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 9) as f64 + 1.0, ((i * 3) % 7) as f64 + 1.0])
            .collect();
        let ys = xs.iter().map(|x| 2.0 + 0.5 * x[0] + 1.5 * x[1]).collect();
        (xs, ys)
    }

    #[test]
    fn linear_truth_scores_near_zero() {
        let (xs, ys) = grid(80);
        let r = cross_validate(SurfaceKind::Linear, &xs, &ys, 5, 1).expect("valid");
        assert_eq!(r.fold_mapes.len(), 5);
        assert!(r.mean_mape() < 1e-9, "mean {:.2e}", r.mean_mape());
        assert!(r.std_mape() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let (xs, ys) = grid(60);
        let a = cross_validate(SurfaceKind::Interaction, &xs, &ys, 4, 9).expect("valid");
        let b = cross_validate(SurfaceKind::Interaction, &xs, &ys, 4, 9).expect("valid");
        assert_eq!(a, b);
        let c = cross_validate(SurfaceKind::Interaction, &xs, &ys, 4, 10).expect("valid");
        // A different seed shuffles folds differently (values may differ).
        let _ = c;
    }

    #[test]
    fn overfit_kind_shows_higher_cv_error_on_noise() {
        // A noisy constant: more terms -> more variance -> worse CV.
        let mut rng = Rng::seed_from_u64(3);
        let xs: Vec<Vec<f64>> = (0..60)
            .map(|_| vec![rng.range_f64(0.5, 5.0), rng.range_f64(0.5, 5.0)])
            .collect();
        let ys: Vec<f64> = (0..60).map(|_| 10.0 * rng.jitter(0.05)).collect();
        let lin = cross_validate(SurfaceKind::Linear, &xs, &ys, 5, 4).expect("valid");
        let quad = cross_validate(SurfaceKind::Quadratic, &xs, &ys, 5, 4).expect("valid");
        assert!(
            quad.mean_mape() >= lin.mean_mape() * 0.9,
            "quadratic should not generalize better on pure noise: {:.4} vs {:.4}",
            quad.mean_mape(),
            lin.mean_mape()
        );
    }

    #[test]
    fn input_validation() {
        let (xs, ys) = grid(20);
        assert!(matches!(
            cross_validate(SurfaceKind::Linear, &xs, &ys[..10], 4, 1).unwrap_err(),
            ModelError::ShapeMismatch(_)
        ));
        assert!(matches!(
            cross_validate(SurfaceKind::Linear, &xs, &ys, 1, 1).unwrap_err(),
            ModelError::ShapeMismatch(_)
        ));
        let (xs2, ys2) = grid(3);
        assert!(matches!(
            cross_validate(SurfaceKind::Linear, &xs2, &ys2, 5, 1).unwrap_err(),
            ModelError::TooFewObservations { .. }
        ));
    }
}
