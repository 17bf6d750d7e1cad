//! Property-based tests of Algorithm 1 and model persistence, over
//! randomized (but physically shaped) trained model bundles.

// Test code asserts invariants directly; the panic ratchet covers libraries.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dora_repro::browser::PageFeatures;
use dora_repro::dora::models::{DoraModels, FrequencyEncoding, PiecewiseSurface, PredictorInputs};
use dora_repro::dora::{
    from_text, select_frequency, select_operating_point, to_text, ClusterModel,
};
use dora_repro::modeling::leakage::Eq5Params;
use dora_repro::modeling::surface::{ResponseSurface, SurfaceKind};
use dora_repro::soc::{ClusterId, DvfsTable, MigrationCost, OperatingPoint, SocProfile};
use dora_repro::units::{Celsius, Mpki, Ppw, Seconds, Utilization};
use proptest::prelude::*;

/// Builds a trained bundle from a randomized physical ground truth:
/// `T = work/f·(1 + k·mpki)`, `P = floor + c·v²·f`, in the paper's shapes.
fn synth_models(work: f64, mpki_k: f64, floor: f64, c: f64) -> DoraModels {
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
fn synth_models_with(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chosen frequency is always a table entry, and the reported
    /// feasibility matches the curve's contents.
    #[test]
    fn decision_is_well_formed(
        work in 0.5f64..6.0,
        mpki in 0.0f64..20.0,
        util in 0.0f64..1.0,
        temp in 25.0f64..75.0,
        deadline in 0.3f64..8.0,
    ) {
        let page = PageFeatures::new(2000, 1200, 500, 550, 600).expect("valid");
        let models = synth_models(work, 0.03, 1.5, 0.8);
        let d = select_frequency(
            &models,
            page,
            Seconds::new(deadline),
            Mpki::clamped(mpki),
            Utilization::clamped(util),
            Celsius::new(temp),
            true,
        );
        prop_assert!(models.dvfs.index_of(d.chosen).is_some());
        prop_assert_eq!(d.curve.len(), models.dvfs.len());
        let any_feasible = d.curve.iter().any(|p| p.feasible);
        prop_assert_eq!(d.feasible, any_feasible);
        if !d.feasible {
            prop_assert_eq!(d.chosen, models.dvfs.max_frequency());
        } else {
            let chosen = d.curve.iter().find(|p| p.frequency == d.chosen).expect("in curve");
            prop_assert!(chosen.feasible);
        }
        // Every prediction is positive and finite.
        for p in &d.curve {
            prop_assert!(p.load_time.value() > 0.0 && p.load_time.is_finite());
            prop_assert!(p.power.value() > 0.0 && p.power.is_finite());
            prop_assert!(p.ppw.is_finite());
        }
    }

    /// Relaxing the deadline never lowers the achievable predicted PPW.
    #[test]
    fn relaxing_deadline_is_monotone_in_ppw(
        work in 0.5f64..6.0,
        mpki in 0.0f64..20.0,
        d1 in 0.3f64..8.0,
        extra in 0.1f64..4.0,
    ) {
        let page = PageFeatures::new(2000, 1200, 500, 550, 600).expect("valid");
        let models = synth_models(work, 0.03, 1.5, 0.8);
        let tight = select_frequency(
            &models,
            page,
            Seconds::new(d1),
            Mpki::clamped(mpki),
            Utilization::clamped(0.6),
            Celsius::new(45.0),
            true,
        );
        let loose = select_frequency(
            &models,
            page,
            Seconds::new(d1 + extra),
            Mpki::clamped(mpki),
            Utilization::clamped(0.6),
            Celsius::new(45.0),
            true,
        );
        if tight.feasible {
            prop_assert!(loose.feasible);
            prop_assert!(loose.predicted_ppw.value() >= tight.predicted_ppw.value() - 1e-12);
        }
    }

    /// fD (lowest feasible) never exceeds fopt, and Eq. 1 holds.
    #[test]
    fn equation_one_structure(
        work in 0.5f64..6.0,
        mpki in 0.0f64..20.0,
        deadline in 0.3f64..8.0,
    ) {
        let page = PageFeatures::new(2000, 1200, 500, 550, 600).expect("valid");
        let models = synth_models(work, 0.03, 1.5, 0.8);
        let d = select_frequency(
            &models,
            page,
            Seconds::new(deadline),
            Mpki::clamped(mpki),
            Utilization::clamped(0.6),
            Celsius::new(45.0),
            true,
        );
        if let Some(fd) = d.f_deadline() {
            prop_assert!(fd <= d.chosen, "fD {fd} above chosen {}", d.chosen);
            let fe = d.f_energy();
            let expected = if fd <= fe { fe } else { fd };
            prop_assert_eq!(d.chosen, expected);
        }
    }

    /// The 2-D (cluster, F) search is exactly the exhaustive argmax over
    /// its own predicted product space: the feasible PPW maximizer in
    /// cluster-major order, or — when nothing is feasible — fmax of the
    /// cluster whose flat-out load time is smallest.
    #[test]
    fn cluster_search_is_the_product_space_argmax(
        work in 0.5f64..6.0,
        mpki in 0.0f64..20.0,
        util in 0.0f64..1.0,
        temp in 25.0f64..75.0,
        deadline in 0.3f64..8.0,
    ) {
        let page = PageFeatures::new(2000, 1200, 500, 550, 600).expect("valid");
        let models = synth_models(work, 0.03, 1.5, 0.8);
        let board = SocProfile::biglittle_a15a7().board_config();
        let clusters = ClusterModel::from_profile(&models, &board);
        let current = OperatingPoint {
            cluster: ClusterId::PRIMARY,
            frequency: clusters[0].models.dvfs.max_frequency(),
        };
        let d = select_operating_point(
            &clusters,
            current,
            MigrationCost::biglittle(),
            page,
            Seconds::new(deadline),
            Mpki::clamped(mpki),
            Utilization::clamped(util),
            Celsius::new(temp),
            true,
        );
        prop_assert_eq!(
            d.curve.len(),
            clusters.iter().map(|c| c.models.dvfs.len()).sum::<usize>()
        );
        // Re-derive the winner by brute force over the curve, with the
        // same strictly-greater, cluster-major-first-wins tie-break.
        let mut best: Option<usize> = None;
        for (i, p) in d.curve.iter().enumerate() {
            if p.feasible && best.is_none_or(|b| p.ppw.value() > d.curve[b].ppw.value()) {
                best = Some(i);
            }
        }
        match best {
            Some(b) => {
                prop_assert!(d.feasible);
                prop_assert_eq!(d.chosen, d.curve[b].point);
                prop_assert_eq!(
                    d.predicted_ppw.value().to_bits(),
                    d.curve[b].ppw.value().to_bits()
                );
            }
            None => {
                prop_assert!(!d.feasible);
                let fastest = clusters
                    .iter()
                    .filter_map(|cm| {
                        d.curve.iter().rfind(|p| p.point.cluster == cm.cluster)
                    })
                    .min_by(|a, b| a.load_time.value().total_cmp(&b.load_time.value()))
                    .expect("non-empty product space");
                prop_assert_eq!(d.chosen, fastest.point);
                prop_assert_eq!(
                    d.chosen.frequency,
                    clusters[d.chosen.cluster.index()].models.dvfs.max_frequency()
                );
            }
        }
    }

    /// With zero migration cost the product-space search decomposes into
    /// independent per-cluster 1-D searches: each cluster's curve rows
    /// are bit-identical to the rows of a search over that cluster alone,
    /// and the winner is the cluster-major argmax of the solo winners.
    #[test]
    fn zero_migration_reduces_to_per_cluster_search(
        work in 0.5f64..6.0,
        mpki in 0.0f64..20.0,
        deadline in 0.3f64..8.0,
    ) {
        let page = PageFeatures::new(2000, 1200, 500, 550, 600).expect("valid");
        let models = synth_models(work, 0.03, 1.5, 0.8);
        let board = SocProfile::biglittle_a15a7().board_config();
        let clusters = ClusterModel::from_profile(&models, &board);
        let current = OperatingPoint {
            cluster: ClusterId::PRIMARY,
            frequency: clusters[0].models.dvfs.max_frequency(),
        };
        let full = select_operating_point(
            &clusters,
            current,
            MigrationCost::none(),
            page,
            Seconds::new(deadline),
            Mpki::clamped(mpki),
            Utilization::clamped(0.6),
            Celsius::new(45.0),
            true,
        );
        for cm in &clusters {
            let solo = select_operating_point(
                std::slice::from_ref(cm),
                OperatingPoint {
                    cluster: cm.cluster,
                    frequency: cm.models.dvfs.max_frequency(),
                },
                MigrationCost::none(),
                page,
                Seconds::new(deadline),
                Mpki::clamped(mpki),
                Utilization::clamped(0.6),
                Celsius::new(45.0),
                true,
            );
            let rows: Vec<_> = full
                .curve
                .iter()
                .filter(|p| p.point.cluster == cm.cluster)
                .collect();
            prop_assert_eq!(rows.len(), solo.curve.len());
            for (a, b) in rows.iter().zip(&solo.curve) {
                prop_assert_eq!(a.point, b.point);
                prop_assert_eq!(a.load_time.value().to_bits(), b.load_time.value().to_bits());
                prop_assert_eq!(a.power.value().to_bits(), b.power.value().to_bits());
                prop_assert_eq!(a.ppw.value().to_bits(), b.ppw.value().to_bits());
                prop_assert_eq!(a.feasible, b.feasible);
            }
            if full.feasible && solo.feasible {
                prop_assert!(full.predicted_ppw.value() >= solo.predicted_ppw.value());
            }
        }
    }

    /// A single-cluster product-space search is the 1-D Algorithm 1,
    /// bit for bit — the homogeneous profile reproduces legacy decisions
    /// exactly.
    #[test]
    fn single_cluster_point_search_matches_select_frequency(
        work in 0.5f64..6.0,
        mpki in 0.0f64..20.0,
        util in 0.0f64..1.0,
        temp in 25.0f64..75.0,
        deadline in 0.3f64..8.0,
    ) {
        let page = PageFeatures::new(2000, 1200, 500, 550, 600).expect("valid");
        let models = synth_models(work, 0.03, 1.5, 0.8);
        let flat = select_frequency(
            &models,
            page,
            Seconds::new(deadline),
            Mpki::clamped(mpki),
            Utilization::clamped(util),
            Celsius::new(temp),
            true,
        );
        let current = OperatingPoint {
            cluster: ClusterId::PRIMARY,
            frequency: models.dvfs.max_frequency(),
        };
        let point = select_operating_point(
            &[ClusterModel::primary(models)],
            current,
            MigrationCost::none(),
            page,
            Seconds::new(deadline),
            Mpki::clamped(mpki),
            Utilization::clamped(util),
            Celsius::new(temp),
            true,
        );
        prop_assert_eq!(point.chosen.cluster, ClusterId::PRIMARY);
        prop_assert_eq!(point.chosen.frequency, flat.chosen);
        prop_assert_eq!(point.feasible, flat.feasible);
        prop_assert_eq!(
            point.predicted_ppw.value().to_bits(),
            flat.predicted_ppw.value().to_bits()
        );
        prop_assert_eq!(point.curve.len(), flat.curve.len());
        for (p2, p1) in point.curve.iter().zip(&flat.curve) {
            prop_assert_eq!(p2.point.frequency, p1.frequency);
            prop_assert_eq!(p2.load_time.value().to_bits(), p1.load_time.value().to_bits());
            prop_assert_eq!(p2.power.value().to_bits(), p1.power.value().to_bits());
            prop_assert_eq!(p2.ppw.value().to_bits(), p1.ppw.value().to_bits());
            prop_assert_eq!(p2.feasible, p1.feasible);
            prop_assert!(!p2.migrating);
        }
    }

    /// Every curve row of both searches is exactly what the point
    /// predictions give for that candidate, whatever the encodings, with
    /// leakage on or off and with or without per-tier fits: the bound
    /// candidate sweep changes how the rows are computed, not one bit of
    /// what they are.
    #[test]
    fn curve_rows_are_the_point_predictions(
        work in 0.5f64..6.0,
        mpki in 0.0f64..20.0,
        util in 0.0f64..1.0,
        temp in 25.0f64..75.0,
        deadline in 0.3f64..8.0,
        encoding_bits in 0usize..4,
        tier_mask in 0u64..8,
        leakage in 0u64..2,
    ) {
        let page = PageFeatures::new(2000, 1200, 500, 550, 600).expect("valid");
        let encoding = [FrequencyEncoding::Natural, FrequencyEncoding::Period];
        let models = synth_models_with(
            work,
            0.03,
            1.5,
            0.8,
            [encoding[encoding_bits & 1], encoding[encoding_bits >> 1]],
            tier_mask,
        );
        let include_leakage = leakage == 1;
        let (mpki, util, temp) = (Mpki::clamped(mpki), Utilization::clamped(util), Celsius::new(temp));
        let point = |m: &DoraModels, f| {
            let inputs = PredictorInputs::for_frequency(page, f, &m.dvfs, mpki, util);
            (m.predict_load_time(&inputs), m.predict_total_power(&inputs, temp, include_leakage))
        };

        let flat = select_frequency(&models, page, Seconds::new(deadline), mpki, util, temp, include_leakage);
        prop_assert_eq!(flat.curve.len(), models.dvfs.len());
        for (row, f) in flat.curve.iter().zip(models.dvfs.frequencies()) {
            let (t, p) = point(&models, f);
            prop_assert_eq!(row.frequency, f);
            prop_assert_eq!(row.load_time.value().to_bits(), t.value().to_bits());
            prop_assert_eq!(row.power.value().to_bits(), p.value().to_bits());
            prop_assert_eq!(row.ppw.value().to_bits(), Ppw::from_time_power(t, p).value().to_bits());
            prop_assert_eq!(row.feasible, t <= Seconds::new(deadline));
        }

        let board = SocProfile::biglittle_a15a7().board_config();
        let clusters = ClusterModel::from_profile(&models, &board);
        let migration = MigrationCost::biglittle();
        let current = OperatingPoint {
            cluster: ClusterId::PRIMARY,
            frequency: clusters[0].models.dvfs.max_frequency(),
        };
        let d = select_operating_point(
            &clusters, current, migration, page, Seconds::new(deadline), mpki, util, temp,
            include_leakage,
        );
        let candidates: Vec<_> = clusters
            .iter()
            .flat_map(|cm| cm.models.dvfs.frequencies().map(move |f| (cm, f)))
            .collect();
        prop_assert_eq!(d.curve.len(), candidates.len());
        for (row, (cm, f)) in d.curve.iter().zip(candidates) {
            let (t, p) = point(&cm.models, f);
            let mut t = t * cm.time_scale;
            let p = p * cm.power_scale;
            let mut energy = p * t;
            if row.migrating {
                t += Seconds::new(migration.latency.as_secs_f64());
                energy = p * t + migration.energy;
            }
            prop_assert_eq!(row.point, OperatingPoint { cluster: cm.cluster, frequency: f });
            prop_assert_eq!(row.migrating, cm.cluster != current.cluster);
            prop_assert_eq!(row.load_time.value().to_bits(), t.value().to_bits());
            prop_assert_eq!(row.power.value().to_bits(), p.value().to_bits());
            prop_assert_eq!(row.ppw.value().to_bits(), Ppw::from_energy(energy).value().to_bits());
            prop_assert_eq!(row.feasible, t <= Seconds::new(deadline));
        }
    }

    /// Persistence round-trips arbitrary synthesized bundles bit-exactly.
    #[test]
    fn persist_roundtrip_random_bundles(
        work in 0.5f64..6.0,
        mpki_k in 0.0f64..0.1,
        floor in 1.0f64..2.0,
        c in 0.3f64..1.2,
    ) {
        let models = synth_models(work, mpki_k, floor, c);
        let text = to_text(&models);
        let parsed = from_text(&text).expect("round trip parses");
        prop_assert_eq!(&models, &parsed);
        // And a re-serialization is byte-identical (canonical form).
        prop_assert_eq!(text, to_text(&parsed));
    }
}
