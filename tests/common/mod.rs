//! Test fixtures shared by the root package's integration suites.

#![expect(clippy::expect_used, reason = "test code asserts invariants directly")]

use dora_repro::browser::PageFeatures;
use dora_repro::dora::models::{DoraModels, FrequencyEncoding, PiecewiseSurface, PredictorInputs};
use dora_repro::modeling::leakage::Eq5Params;
use dora_repro::modeling::surface::{ResponseSurface, SurfaceKind};
use dora_repro::soc::DvfsTable;
use dora_repro::units::{Mpki, Utilization};

/// Builds a trained bundle from a randomized physical ground truth:
/// `T = work/f·(1 + k·mpki)`, `P = floor + c·v²·f`, in the paper's shapes.
pub fn synth_models(work: f64, mpki_k: f64, floor: f64, c: f64) -> DoraModels {
    synth_models_with(
        work,
        mpki_k,
        floor,
        c,
        [FrequencyEncoding::Period, FrequencyEncoding::Natural],
        0,
    )
}

/// [`synth_models`] with the load-time and power surfaces presenting
/// X7/X8 in `encodings`, and bus tier `i` carrying its own fit (to a
/// slightly different truth than the global one) when bit `i` of
/// `tier_mask` is set.
pub fn synth_models_with(
    work: f64,
    mpki_k: f64,
    floor: f64,
    c: f64,
    encodings: [FrequencyEncoding; 2],
    tier_mask: u64,
) -> DoraModels {
    let dvfs = DvfsTable::default();
    let page = PageFeatures::new(2000, 1200, 500, 550, 600).expect("valid");
    let mut xs = Vec::new();
    let mut t_ys = Vec::new();
    let mut p_ys = Vec::new();
    for f in dvfs.frequencies() {
        let v = dvfs.voltage_of(f).expect("table entry");
        for mpki in [0.5f64, 4.0, 9.0, 16.0] {
            for util in [0.2f64, 0.6, 1.0] {
                let inputs = PredictorInputs::for_frequency(
                    page,
                    f,
                    &dvfs,
                    Mpki::clamped(mpki),
                    Utilization::clamped(util),
                );
                xs.push(inputs.to_vector());
                t_ys.push(work / f.as_ghz() * (1.0 + mpki_k * mpki));
                p_ys.push(floor + c * v * v * f.as_ghz());
            }
        }
    }
    // One surface fit to `scale · ys`, with X7/X8 in `encoding`.
    let fit = |kind: SurfaceKind, encoding: FrequencyEncoding, ys: &[f64], scale: f64| {
        let design: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                let mut x = x.clone();
                encoding.encode(&mut x);
                x
            })
            .collect();
        let ys: Vec<f64> = ys.iter().map(|y| y * scale).collect();
        ResponseSurface::new(kind, 9)
            .fit(&design, &ys)
            .expect("well posed")
    };
    let piecewise = |kind: SurfaceKind, encoding: FrequencyEncoding, ys: &[f64]| {
        let tiers = std::array::from_fn(|i| {
            (tier_mask & (1 << i) != 0)
                .then(|| fit(kind, encoding, ys, 1.0 + 0.05 * (i + 1) as f64))
        });
        PiecewiseSurface::new(tiers, fit(kind, encoding, ys, 1.0), encoding)
    };
    DoraModels {
        load_time: piecewise(SurfaceKind::Interaction, encodings[0], &t_ys),
        power: piecewise(SurfaceKind::Linear, encodings[1], &p_ys),
        leakage: Eq5Params {
            k1: 0.22,
            alpha: 800.0,
            beta: -4300.0,
            k2: 0.05,
            gamma: 2.0,
            delta: -2.0,
        },
        dvfs,
    }
}
