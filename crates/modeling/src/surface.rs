//! Response-surface regression (Eqs. 2–4).
//!
//! The paper hypothesizes three parametric relationships between a
//! response `y` (load time or power) and independent variables
//! `X1..XN`:
//!
//! * **Eq. 2 — linear**: `y = c0 + Σ ci·Xi`
//! * **Eq. 3 — quadratic**: linear plus all products `Xi·Xj` including
//!   squares (`i = j` allowed);
//! * **Eq. 4 — interaction**: linear plus cross products only (`i ≠ j`).
//!
//! Coefficients are "estimated by minimizing the mean-square error between
//! a set of observed values and model predicted values" (Section III-A) —
//! ordinary least squares here. Inputs are z-score standardized before
//! expansion so the Table I features, which span five orders of magnitude
//! (thousands of DOM nodes vs. single-digit GHz), don't wreck the
//! conditioning of the normal equations.
//!
//! Prediction runs through one partial-evaluation kernel.
//! [`FittedSurface::bind`] fixes some inputs: it standardizes them once
//! and sums the terms that come before the first free input. The returned
//! [`BoundSurface`] then standardizes only the free inputs per call and
//! adds the remaining terms, with no heap allocation. Every term is the
//! same `term × coefficient` product added in the canonical order, so a
//! bound evaluation is bit-identical to the plain expand-then-dot formula.
//! Algorithm 1 binds X1–X6 and X9 once per decision and varies only X7
//! and X8 across its candidate frequencies.

use crate::linalg::{least_squares_ridge, Matrix};
use crate::ModelError;

/// The most raw inputs a surface may take: Table I's nine variables
/// (X1–X9). The prediction kernel sizes its stack buffers by it.
pub const MAX_INPUTS: usize = Feature::ALL.len();

/// The paper's nine independent variables (Table I), in order X1–X9.
///
/// Campaign code uses this enum to build observation vectors in a fixed,
/// documented order instead of passing anonymous arrays around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// X1 — number of DOM tree nodes.
    DomNodes,
    /// X2 — number of `class` attributes.
    ClassAttrs,
    /// X3 — number of `href` attributes.
    HrefAttrs,
    /// X4 — number of `<a>` tags.
    ATags,
    /// X5 — number of `<div>` tags.
    DivTags,
    /// X6 — shared L2 cache MPKI.
    L2Mpki,
    /// X7 — core frequency (GHz).
    CoreFrequency,
    /// X8 — memory bus frequency (MHz).
    BusFrequency,
    /// X9 — core utilization of the co-scheduled task.
    CoRunUtilization,
}

impl Feature {
    /// All nine features in Table I order.
    pub const ALL: [Feature; 9] = [
        Feature::DomNodes,
        Feature::ClassAttrs,
        Feature::HrefAttrs,
        Feature::ATags,
        Feature::DivTags,
        Feature::L2Mpki,
        Feature::CoreFrequency,
        Feature::BusFrequency,
        Feature::CoRunUtilization,
    ];

    /// The Table I label (X1..X9).
    pub fn label(self) -> &'static str {
        match self {
            Feature::DomNodes => "X1",
            Feature::ClassAttrs => "X2",
            Feature::HrefAttrs => "X3",
            Feature::ATags => "X4",
            Feature::DivTags => "X5",
            Feature::L2Mpki => "X6",
            Feature::CoreFrequency => "X7",
            Feature::BusFrequency => "X8",
            Feature::CoRunUtilization => "X9",
        }
    }

    /// The zero-based position of the feature in a Table I vector.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// A human-readable description matching Table I.
    pub fn description(self) -> &'static str {
        match self {
            Feature::DomNodes => "Number of DOM tree nodes",
            Feature::ClassAttrs => "Number of class attributes",
            Feature::HrefAttrs => "Number of href attributes",
            Feature::ATags => "Number of \"a\" tags",
            Feature::DivTags => "Number of \"div\" tags",
            Feature::L2Mpki => "Shared L2 cache MPKI",
            Feature::CoreFrequency => "Core frequency",
            Feature::BusFrequency => "Memory bus frequency",
            Feature::CoRunUtilization => "Core utilization of co-scheduled task",
        }
    }
}

/// Which of the paper's three response surfaces to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SurfaceKind {
    /// Eq. 2 — simple linear regression.
    Linear,
    /// Eq. 3 — linear plus all pairwise products including squares.
    Quadratic,
    /// Eq. 4 — linear plus cross products only ("linear regression with
    /// cross product terms", the paper's pick for load time).
    Interaction,
}

impl SurfaceKind {
    /// All three candidate surfaces.
    pub const ALL: [SurfaceKind; 3] = [
        SurfaceKind::Linear,
        SurfaceKind::Quadratic,
        SurfaceKind::Interaction,
    ];
}

impl std::fmt::Display for SurfaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SurfaceKind::Linear => "linear",
            SurfaceKind::Quadratic => "quadratic",
            SurfaceKind::Interaction => "interaction",
        })
    }
}

/// An (unfitted) response surface over `n` input variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseSurface {
    kind: SurfaceKind,
    n: usize,
}

impl ResponseSurface {
    /// A surface of the given kind over `n` inputs.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= MAX_INPUTS`.
    pub fn new(kind: SurfaceKind, n: usize) -> Self {
        assert!(
            (1..=MAX_INPUTS).contains(&n),
            "a surface takes 1 to {MAX_INPUTS} inputs, got {n}"
        );
        ResponseSurface { kind, n }
    }

    /// The surface kind.
    pub fn kind(&self) -> SurfaceKind {
        self.kind
    }

    /// Number of raw input variables.
    pub fn inputs(&self) -> usize {
        self.n
    }

    /// Number of model terms including the intercept.
    pub fn term_count(&self) -> usize {
        let n = self.n;
        match self.kind {
            SurfaceKind::Linear => 1 + n,
            SurfaceKind::Quadratic => 1 + n + n * (n + 1) / 2,
            SurfaceKind::Interaction => 1 + n + n * (n - 1) / 2,
        }
    }

    /// Expands a (standardized) input vector into the model's term vector,
    /// intercept first.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != inputs()`.
    pub fn expand(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "input length disagrees with surface");
        let mut terms = Vec::with_capacity(self.term_count());
        terms.push(1.0);
        terms.extend_from_slice(x);
        self.for_each_product(|i, j| terms.push(x[i] * x[j]));
        terms
    }

    /// Visits the product terms `(i, j)` in their canonical order, row by
    /// row. They follow the intercept and the `n` linear terms; fitting,
    /// [`ResponseSurface::expand`] and the prediction kernel all walk this
    /// one order.
    fn for_each_product(&self, mut visit: impl FnMut(usize, usize)) {
        let squares = match self.kind {
            SurfaceKind::Linear => return,
            SurfaceKind::Quadratic => true,
            SurfaceKind::Interaction => false,
        };
        for i in 0..self.n {
            let first = if squares { i } else { i + 1 };
            for j in first..self.n {
                visit(i, j);
            }
        }
    }

    /// Fits the surface to observations by least squares, standardizing
    /// inputs first.
    ///
    /// # Errors
    ///
    /// [`ModelError::ShapeMismatch`] for inconsistent inputs,
    /// [`ModelError::TooFewObservations`] when there are fewer rows than
    /// model terms, and [`ModelError::Singular`] for a degenerate design.
    pub fn fit(&self, xs: &[Vec<f64>], ys: &[f64]) -> Result<FittedSurface, ModelError> {
        if xs.len() != ys.len() {
            return Err(ModelError::ShapeMismatch(format!(
                "{} inputs vs {} targets",
                xs.len(),
                ys.len()
            )));
        }
        if xs.len() < self.term_count() {
            return Err(ModelError::TooFewObservations {
                got: xs.len(),
                need: self.term_count(),
            });
        }
        for row in xs {
            if row.len() != self.n {
                return Err(ModelError::ShapeMismatch(format!(
                    "row of length {} for surface over {} inputs",
                    row.len(),
                    self.n
                )));
            }
        }
        // Standardize each input column.
        let m = xs.len() as f64;
        let mut means = vec![0.0; self.n];
        let mut stds = vec![0.0; self.n];
        for j in 0..self.n {
            let mean = xs.iter().map(|r| r[j]).sum::<f64>() / m;
            let var = xs.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / m;
            means[j] = mean;
            stds[j] = if var.sqrt() > 1e-12 { var.sqrt() } else { 1.0 };
        }
        let design_rows: Vec<Vec<f64>> = xs
            .iter()
            .map(|r| {
                let z: Vec<f64> = r
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| (v - means[j]) / stds[j])
                    .collect();
                self.expand(&z)
            })
            .collect();
        let design = Matrix::from_rows(&design_rows);
        let coefficients = least_squares_ridge(&design, ys, 0.0)?;
        Ok(FittedSurface {
            surface: *self,
            means,
            stds,
            coefficients,
        })
    }
}

/// A fitted response surface: standardization constants plus coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedSurface {
    surface: ResponseSurface,
    means: Vec<f64>,
    stds: Vec<f64>,
    coefficients: Vec<f64>,
}

impl FittedSurface {
    /// Predicts the response for a raw (unstandardized) input vector.
    ///
    /// This binds every input and evaluates, so it runs the same
    /// arithmetic as a [`BoundSurface`] and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` disagrees with the surface's input count.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.bind(x, &[]).evaluate(&[])
    }

    /// Partially evaluates the surface with every input except `free`
    /// fixed at its value in `x` (the entries of `x` at `free` positions
    /// are ignored).
    ///
    /// Binding standardizes the fixed inputs once and sums every term
    /// before the first one that involves a free input: the intercept and
    /// the linear terms of the fixed inputs that precede it.
    /// [`BoundSurface::evaluate`] then standardizes only the free inputs
    /// and adds the remaining terms.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` disagrees with the surface's input count, or if
    /// `free` is not strictly ascending within it.
    pub fn bind<'a>(&'a self, x: &[f64], free: &'a [usize]) -> BoundSurface<'a> {
        let n = self.surface.n;
        assert_eq!(x.len(), n, "input length disagrees with surface");
        assert!(
            free.windows(2).all(|w| w[0] < w[1]) && free.last().is_none_or(|&i| i < n),
            "free inputs {free:?} must ascend within 0..{n}"
        );
        let mut z = [0.0; MAX_INPUTS];
        for i in (0..n).filter(|i| !free.contains(i)) {
            z[i] = self.standardize(i, x[i]);
        }
        // Terms are added left to right onto the intercept term `1 · c0`,
        // exactly as an iterator sum over the whole term vector adds them.
        let first_free = free.first().map_or(n, |&i| i);
        let c = &self.coefficients;
        let mut prefix = c[0];
        for i in 0..first_free {
            prefix += z[i] * c[1 + i];
        }
        BoundSurface {
            fit: self,
            z,
            free,
            first_free,
            prefix,
        }
    }

    /// The z-score of raw input `i`.
    fn standardize(&self, i: usize, v: f64) -> f64 {
        (v - self.means[i]) / self.stds[i]
    }

    /// Adds the terms from the linear term of input `from` on to `sum`, in
    /// canonical order: the remaining linear terms, then every product.
    fn fold_from(&self, z: &[f64; MAX_INPUTS], from: usize, mut sum: f64) -> f64 {
        let n = self.surface.n;
        let c = &self.coefficients;
        for i in from..n {
            sum += z[i] * c[1 + i];
        }
        let mut k = 1 + n;
        self.surface.for_each_product(|i, j| {
            sum += z[i] * z[j] * c[k];
            k += 1;
        });
        sum
    }

    /// The underlying surface definition.
    pub fn surface(&self) -> ResponseSurface {
        self.surface
    }

    /// The fitted coefficients (intercept first), in standardized space.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// The per-input standardization means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// The per-input standardization standard deviations.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Reassembles a fitted surface from its stored parts (the inverse of
    /// the accessors; used by model persistence).
    ///
    /// # Errors
    ///
    /// [`ModelError::ShapeMismatch`] when the part lengths disagree with
    /// the surface definition or a standard deviation is non-positive.
    pub fn from_parts(
        surface: ResponseSurface,
        means: Vec<f64>,
        stds: Vec<f64>,
        coefficients: Vec<f64>,
    ) -> Result<FittedSurface, ModelError> {
        if means.len() != surface.inputs() || stds.len() != surface.inputs() {
            return Err(ModelError::ShapeMismatch(format!(
                "{} means / {} stds for a surface over {} inputs",
                means.len(),
                stds.len(),
                surface.inputs()
            )));
        }
        if coefficients.len() != surface.term_count() {
            return Err(ModelError::ShapeMismatch(format!(
                "{} coefficients for a surface with {} terms",
                coefficients.len(),
                surface.term_count()
            )));
        }
        if stds.iter().any(|s| !(s.is_finite() && *s > 0.0)) {
            return Err(ModelError::ShapeMismatch(
                "standard deviations must be positive".into(),
            ));
        }
        if means.iter().chain(&coefficients).any(|v| !v.is_finite()) {
            return Err(ModelError::ShapeMismatch(
                "means and coefficients must be finite".into(),
            ));
        }
        Ok(FittedSurface {
            surface,
            means,
            stds,
            coefficients,
        })
    }
}

/// A [`FittedSurface`] with some inputs fixed, from [`FittedSurface::bind`].
///
/// Its buffers live on the stack, sized by [`MAX_INPUTS`], so evaluating
/// never allocates.
#[derive(Debug, Clone)]
pub struct BoundSurface<'a> {
    fit: &'a FittedSurface,
    /// Standardized inputs; the free slots are filled per evaluation.
    z: [f64; MAX_INPUTS],
    /// The free inputs, ascending.
    free: &'a [usize],
    /// The lowest free input (the input count when none is free): its
    /// linear term is the first term the prefix leaves out.
    first_free: usize,
    /// Sum of the terms before the first free one.
    prefix: f64,
}

impl BoundSurface<'_> {
    /// Predicts the response with the free inputs set to `free_values`
    /// (raw, in the order they were passed to [`FittedSurface::bind`]).
    ///
    /// The result is bit-identical to the expand-then-dot formula on the
    /// full input vector: every term is the same `term × coefficient`
    /// product, added in canonical order onto the stored prefix, and no
    /// sum is reassociated.
    ///
    /// # Panics
    ///
    /// Panics if `free_values.len()` differs from the number of free inputs.
    pub fn evaluate(&self, free_values: &[f64]) -> f64 {
        assert_eq!(
            free_values.len(),
            self.free.len(),
            "one value per free input"
        );
        let mut z = self.z;
        for (&i, &v) in self.free.iter().zip(free_values) {
            z[i] = self.fit.standardize(i, v);
        }
        self.fit.fold_from(&z, self.first_free, self.prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n_points: usize) -> Vec<Vec<f64>> {
        // A deterministic, well-spread 3-input grid.
        (0..n_points)
            .map(|i| {
                vec![
                    (i % 7) as f64,
                    ((i * 3) % 11) as f64 * 0.5,
                    ((i * 5) % 13) as f64 * 2.0,
                ]
            })
            .collect()
    }

    #[test]
    fn term_counts() {
        assert_eq!(
            ResponseSurface::new(SurfaceKind::Linear, 9).term_count(),
            10
        );
        assert_eq!(
            ResponseSurface::new(SurfaceKind::Interaction, 9).term_count(),
            1 + 9 + 36
        );
        assert_eq!(
            ResponseSurface::new(SurfaceKind::Quadratic, 9).term_count(),
            1 + 9 + 45
        );
        assert_eq!(
            ResponseSurface::new(SurfaceKind::Interaction, 1).term_count(),
            2
        );
    }

    #[test]
    fn expand_orders_terms_intercept_first() {
        let s = ResponseSurface::new(SurfaceKind::Interaction, 2);
        assert_eq!(s.expand(&[2.0, 3.0]), vec![1.0, 2.0, 3.0, 6.0]);
        let q = ResponseSurface::new(SurfaceKind::Quadratic, 2);
        assert_eq!(q.expand(&[2.0, 3.0]), vec![1.0, 2.0, 3.0, 4.0, 6.0, 9.0]);
    }

    #[test]
    fn linear_surface_recovers_linear_truth() {
        let xs = grid(60);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 5.0 + 2.0 * x[0] - x[1] + 0.5 * x[2])
            .collect();
        let fit = ResponseSurface::new(SurfaceKind::Linear, 3)
            .fit(&xs, &ys)
            .expect("well posed");
        for x in &xs {
            let truth = 5.0 + 2.0 * x[0] - x[1] + 0.5 * x[2];
            assert!((fit.predict(x) - truth).abs() < 1e-6);
        }
        // And generalizes off-grid.
        assert!((fit.predict(&[1.5, 2.5, 3.5]) - (5.0 + 3.0 - 2.5 + 1.75)).abs() < 1e-6);
    }

    #[test]
    fn interaction_surface_captures_cross_terms() {
        let xs = grid(80);
        let truth = |x: &[f64]| 1.0 + x[0] + 0.3 * x[1] * x[2] - 0.2 * x[0] * x[1];
        let ys: Vec<f64> = xs.iter().map(|x| truth(x)).collect();
        // Linear fit cannot represent the cross terms...
        let lin = ResponseSurface::new(SurfaceKind::Linear, 3)
            .fit(&xs, &ys)
            .expect("well posed");
        let lin_err: f64 = xs
            .iter()
            .map(|x| (lin.predict(x) - truth(x)).abs())
            .fold(0.0, f64::max);
        // ...but the interaction fit nails them.
        let inter = ResponseSurface::new(SurfaceKind::Interaction, 3)
            .fit(&xs, &ys)
            .expect("well posed");
        let inter_err: f64 = xs
            .iter()
            .map(|x| (inter.predict(x) - truth(x)).abs())
            .fold(0.0, f64::max);
        assert!(inter_err < 1e-6, "interaction residual {inter_err}");
        assert!(lin_err > 0.1, "linear should visibly miss: {lin_err}");
    }

    #[test]
    fn quadratic_surface_captures_squares() {
        let xs = grid(80);
        let truth = |x: &[f64]| 2.0 + x[0] * x[0] - 0.5 * x[2] * x[2];
        let ys: Vec<f64> = xs.iter().map(|x| truth(x)).collect();
        let quad = ResponseSurface::new(SurfaceKind::Quadratic, 3)
            .fit(&xs, &ys)
            .expect("well posed");
        let err: f64 = xs
            .iter()
            .map(|x| (quad.predict(x) - truth(x)).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "quadratic residual {err}");
        // Interaction (no squares) cannot represent this.
        let inter = ResponseSurface::new(SurfaceKind::Interaction, 3)
            .fit(&xs, &ys)
            .expect("well posed");
        let inter_err: f64 = xs
            .iter()
            .map(|x| (inter.predict(x) - truth(x)).abs())
            .fold(0.0, f64::max);
        assert!(inter_err > 0.1);
    }

    #[test]
    fn standardization_survives_wildly_scaled_features() {
        // DOM nodes in thousands next to GHz in single digits.
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![1000.0 + 100.0 * (i % 10) as f64, 0.3 + 0.2 * (i % 8) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.001 * x[0] + 2.0 / x[1]).collect();
        let fit = ResponseSurface::new(SurfaceKind::Quadratic, 2)
            .fit(&xs, &ys)
            .expect("conditioned by standardization");
        let worst: f64 = xs
            .iter()
            .map(|x| (fit.predict(x) - (0.001 * x[0] + 2.0 / x[1])).abs())
            .fold(0.0, f64::max);
        // 1/x isn't exactly representable, but the fit must be sane.
        assert!(worst < 0.6, "worst residual {worst}");
    }

    #[test]
    fn too_few_observations_rejected() {
        let s = ResponseSurface::new(SurfaceKind::Quadratic, 3);
        let xs = grid(5);
        let ys = vec![0.0; 5];
        assert!(matches!(
            s.fit(&xs, &ys).unwrap_err(),
            ModelError::TooFewObservations { .. }
        ));
    }

    #[test]
    fn shape_mismatches_rejected() {
        let s = ResponseSurface::new(SurfaceKind::Linear, 3);
        let xs = grid(10);
        assert!(matches!(
            s.fit(&xs, &[0.0; 9]).unwrap_err(),
            ModelError::ShapeMismatch(_)
        ));
        let bad_row = vec![vec![1.0, 2.0]; 10];
        assert!(matches!(
            s.fit(&bad_row, &[0.0; 10]).unwrap_err(),
            ModelError::ShapeMismatch(_)
        ));
    }

    #[test]
    fn feature_labels_match_table1() {
        assert_eq!(Feature::ALL.len(), 9);
        assert_eq!(Feature::DomNodes.label(), "X1");
        assert_eq!(Feature::CoRunUtilization.label(), "X9");
        assert_eq!(Feature::L2Mpki.description(), "Shared L2 cache MPKI");
    }
}
