//! The partial-evaluation kernel against the textbook formula.
//!
//! `FittedSurface::predict` and `BoundSurface::evaluate` must return the
//! same bits as z-scoring the whole input, expanding it into the term
//! vector and summing `term × coefficient` left to right. The reference
//! below spells that formula out on its own, term order included, so a
//! kernel that drifts from it in any term, product or summation order
//! fails here.

#![expect(clippy::expect_used, reason = "test code asserts invariants directly")]

use dora_modeling::surface::{FittedSurface, ResponseSurface, SurfaceKind, MAX_INPUTS};
use dora_sim_core::Rng;
use proptest::prelude::*;

/// The expand-then-dot prediction, written out independently of the
/// kernel.
fn reference_predict(fit: &FittedSurface, x: &[f64]) -> f64 {
    let n = x.len();
    let z: Vec<f64> = (0..n)
        .map(|j| (x[j] - fit.means()[j]) / fit.stds()[j])
        .collect();
    let mut terms = vec![1.0];
    terms.extend_from_slice(&z);
    match fit.surface().kind() {
        SurfaceKind::Linear => {}
        SurfaceKind::Quadratic => {
            for i in 0..n {
                for j in i..n {
                    terms.push(z[i] * z[j]);
                }
            }
        }
        SurfaceKind::Interaction => {
            for i in 0..n {
                for j in i + 1..n {
                    terms.push(z[i] * z[j]);
                }
            }
        }
    }
    terms
        .iter()
        .zip(fit.coefficients())
        .map(|(t, c)| t * c)
        .sum()
}

/// A surface with random standardization constants and coefficients.
fn random_fit(rng: &mut Rng, kind: SurfaceKind, n: usize) -> FittedSurface {
    let surface = ResponseSurface::new(kind, n);
    let means = (0..n).map(|_| rng.range_f64(-1e3, 1e3)).collect();
    let stds = (0..n).map(|_| rng.range_f64(1e-3, 1e3)).collect();
    let coefficients = (0..surface.term_count())
        .map(|_| rng.range_f64(-1e2, 1e2))
        .collect();
    FittedSurface::from_parts(surface, means, stds, coefficients).expect("valid parts")
}

fn random_input(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.range_f64(-2e3, 2e3)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every kind, every input count up to the cap and a random free
    /// subset: binding then evaluating is the reference, bit for bit, and
    /// so is the bind-everything `predict`.
    #[test]
    fn bound_evaluation_is_the_reference_formula(seed in 0u64..u64::MAX) {
        let mut rng = Rng::seed_from_u64(seed);
        for kind in SurfaceKind::ALL {
            for n in 1..=MAX_INPUTS {
                let fit = random_fit(&mut rng, kind, n);
                let free: Vec<usize> = (0..n).filter(|_| rng.chance(0.3)).collect();
                let mut x = random_input(&mut rng, n);
                prop_assert_eq!(
                    fit.predict(&x).to_bits(),
                    reference_predict(&fit, &x).to_bits(),
                    "predict, {} over {}", kind, n
                );
                // The free slots of the bound vector are ignored: poison
                // them to prove it.
                let mut bound_x = x.clone();
                for &i in &free {
                    bound_x[i] = f64::NAN;
                }
                let bound = fit.bind(&bound_x, &free);
                for _ in 0..4 {
                    let values: Vec<f64> =
                        free.iter().map(|_| rng.range_f64(-2e3, 2e3)).collect();
                    for (&i, &v) in free.iter().zip(&values) {
                        x[i] = v;
                    }
                    prop_assert_eq!(
                        bound.evaluate(&values).to_bits(),
                        reference_predict(&fit, &x).to_bits(),
                        "{} over {} with free inputs {:?}", kind, n, free
                    );
                }
            }
        }
    }
}

#[test]
fn the_nine_input_interaction_surface_with_frequency_inputs_free() {
    // Algorithm 1's exact shape: X7 and X8 free on Table I's nine inputs.
    let mut rng = Rng::seed_from_u64(11);
    let fit = random_fit(&mut rng, SurfaceKind::Interaction, 9);
    let mut x = random_input(&mut rng, 9);
    let bound = fit.bind(&x, &[6, 7]);
    for (ghz, bus_mhz) in [(0.3, 200.0), (1.4976, 800.0), (2.2656, 800.0)] {
        x[6] = ghz;
        x[7] = bus_mhz;
        assert_eq!(
            bound.evaluate(&[ghz, bus_mhz]).to_bits(),
            reference_predict(&fit, &x).to_bits()
        );
    }
}

#[test]
#[should_panic(expected = "must ascend")]
fn unordered_free_inputs_are_rejected() {
    let mut rng = Rng::seed_from_u64(3);
    let fit = random_fit(&mut rng, SurfaceKind::Linear, 3);
    let _ = fit.bind(&[0.0; 3], &[2, 1]);
}

#[test]
#[should_panic(expected = "one value per free input")]
fn evaluate_needs_one_value_per_free_input() {
    let mut rng = Rng::seed_from_u64(3);
    let fit = random_fit(&mut rng, SurfaceKind::Linear, 3);
    let _ = fit.bind(&[0.0; 3], &[1]).evaluate(&[]);
}

#[test]
#[should_panic(expected = "1 to 9 inputs")]
fn surfaces_over_more_than_table_one_are_rejected() {
    let _ = ResponseSurface::new(SurfaceKind::Linear, MAX_INPUTS + 1);
}

#[test]
#[should_panic(expected = "1 to 9 inputs")]
fn surfaces_over_no_inputs_are_rejected() {
    let _ = ResponseSurface::new(SurfaceKind::Linear, 0);
}
