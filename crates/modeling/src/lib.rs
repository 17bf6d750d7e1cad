//! # dora-modeling
//!
//! The statistical substrate of the DORA reproduction: everything needed
//! to train the paper's load-time, power and leakage models from scratch,
//! with no external numerics dependency.
//!
//! * [`linalg`] — small dense matrices, LU solve with partial pivoting,
//!   and ridge-stabilized least squares.
//! * [`surface`] — the paper's three response surfaces (Eq. 2 linear,
//!   Eq. 3 quadratic, Eq. 4 interaction) over the Table I feature vector,
//!   with z-score standardization for conditioning.
//! * [`leakage`] — Levenberg–Marquardt fitting of the Eq. 5 leakage model
//!   `P = k1·v·T²·e^((αv+β)/T) + k2·e^(γv+δ)` ("determined using
//!   non-linear numerical solutions and mean square error minimization",
//!   Section III-B).
//! * [`metrics`] — MAPE, R², and empirical error CDFs (the paper reports
//!   2.5 % / 4 % average error and plots the CDFs in Fig. 5).
//! * [`crossval`] — deterministic k-fold cross-validation of surface
//!   kinds, for generalization estimates within a campaign.
//!
//! # Example
//!
//! ```
//! use dora_modeling::surface::{ResponseSurface, SurfaceKind};
//!
//! // y = 3 + 2·x0 − x1, recovered exactly by a linear surface.
//! let xs: Vec<Vec<f64>> = (0..20)
//!     .map(|i| vec![i as f64, (i * i % 7) as f64])
//!     .collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x[0] - x[1]).collect();
//! let fit = ResponseSurface::new(SurfaceKind::Linear, 2).fit(&xs, &ys)?;
//! let pred = fit.predict(&[4.0, 2.0]);
//! assert!((pred - 9.0).abs() < 1e-6);
//! # Ok::<(), dora_modeling::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "tests compare quantities against plain-number references"
    )
)]

pub mod crossval;
pub mod leakage;
pub mod linalg;
pub mod metrics;
pub mod surface;

/// Errors produced by model fitting and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The design matrix is singular (or numerically so) even after
    /// ridge stabilization.
    Singular,
    /// Input shapes disagree (e.g. `X` rows vs `y` length).
    ShapeMismatch(String),
    /// Not enough observations to identify the requested model.
    TooFewObservations {
        /// Observations provided.
        got: usize,
        /// Observations required (number of model terms).
        need: usize,
    },
    /// The optimizer failed to converge to a usable fit.
    NoConvergence(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Singular => f.write_str("design matrix is singular"),
            ModelError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            ModelError::TooFewObservations { got, need } => {
                write!(f, "{got} observations cannot identify {need} terms")
            }
            ModelError::NoConvergence(msg) => write!(f, "no convergence: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}
