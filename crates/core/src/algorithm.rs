//! Algorithm 1 — the energy-efficient, QoS-aware frequency selection.
//!
//! ```text
//! function DORA(QoS_Target, Page_Complexity, Core_Utilization,
//!               Core_Temperature, L2_MPKI)
//!     max_PPW <- 0; optimal_freq <- 0
//!     for F in AllFrequencies:
//!         pred_time <- PredictLoadTime(F)
//!         if pred_time <= QoS_target:
//!             pred_power <- PredictTotalPower(F)
//!             pred_PPW <- 1 / (pred_time * pred_power)
//!             if pred_PPW > max_PPW:
//!                 max_PPW <- pred_PPW; optimal_freq <- F
//!     SetCoreFrequency(optimal_freq)
//! ```
//!
//! When no frequency meets the target, "DORA prioritizes for QoS and
//! chooses the highest frequency setting to ensure that the web pages are
//! loaded as fast as possible" (Section V-D).
//!
//! There is one candidate loop. It sweeps (cluster, F) operating points,
//! so a heterogeneous SoC searches every cluster's table with migration
//! cost in the model ([`select_operating_point`]), and the paper's
//! homogeneous SoC is its one-cluster case ([`select_frequency`]).

use crate::models::{BoundModels, DoraModels};
use dora_browser::PageFeatures;
use dora_sim_core::units::{Celsius, Mpki, Ppw, Seconds, Utilization};
use dora_soc::{BoardConfig, ClusterId, MigrationCost, OperatingPoint};

/// The prediction machinery for one cluster of a heterogeneous SoC.
///
/// The trained [`DoraModels`] describe the *primary* cluster (the one the
/// training measurements ran on). A sibling cluster reuses the same
/// surfaces over its own DVFS table, corrected by two first-order ratios:
/// `time_scale` (the clusters' base-CPI ratio — an in-order A7 retires the
/// same work in more cycles than an out-of-order A15) and `power_scale`
/// (their effective-capacitance ratio). This mirrors how the heterogeneous
/// relatives of the paper transfer one cluster's model to the other
/// (1710.03559 Section 3; 1906.08689 Section 2.1) instead of training per
/// cluster.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    /// Which cluster these predictions describe.
    pub cluster: ClusterId,
    /// The model bundle, with `models.dvfs` holding this cluster's table.
    pub models: DoraModels,
    /// Predicted load time multiplier relative to the trained cluster.
    pub time_scale: f64,
    /// Predicted power multiplier relative to the trained cluster.
    pub power_scale: f64,
}

impl ClusterModel {
    /// Wraps trained models as the primary cluster, scales exactly `1.0`.
    ///
    /// Predictions through this wrapper are bit-identical to calling the
    /// models directly (an IEEE multiply by `1.0` is exact), which is what
    /// makes a one-cluster [`select_operating_point`] the paper's
    /// Algorithm 1 on homogeneous profiles.
    pub fn primary(models: DoraModels) -> Self {
        ClusterModel {
            cluster: ClusterId::PRIMARY,
            models,
            time_scale: 1.0,
            power_scale: 1.0,
        }
    }

    /// Builds one model per cluster of `board`, scaling the trained
    /// (primary-cluster) models by each cluster's CPI and effective-
    /// capacitance ratios and swapping in its DVFS table.
    ///
    /// # Panics
    ///
    /// Panics if `board` has no clusters (a validated [`BoardConfig`]
    /// always has at least one).
    pub fn from_profile(models: &DoraModels, board: &BoardConfig) -> Vec<ClusterModel> {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: validated configs are non-empty"
        )]
        let primary = board.clusters.first().expect("validated config");
        board
            .clusters
            .iter()
            .enumerate()
            .map(|(i, cluster)| {
                let mut scaled = models.clone();
                scaled.dvfs = cluster.dvfs.clone();
                ClusterModel {
                    cluster: ClusterId::new(i),
                    models: scaled,
                    time_scale: cluster.cpi_scale / primary.cpi_scale,
                    power_scale: cluster.ceff_core_f / primary.ceff_core_f,
                }
            })
            .collect()
    }
}

/// One row of the 2-D predicted curve: what the models expect at a
/// candidate (cluster, frequency) operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedOperatingPoint {
    /// The candidate operating point.
    pub point: OperatingPoint,
    /// Predicted page load time, *including* the one-shot migration
    /// latency when the candidate sits on a different cluster than the
    /// current one.
    pub load_time: Seconds,
    /// Predicted total device power.
    pub power: dora_sim_core::units::Watts,
    /// Predicted energy efficiency `1/(T·P + E_migration)`.
    pub ppw: Ppw,
    /// Whether the predicted load time (with migration) meets the target.
    pub feasible: bool,
    /// Whether choosing this point implies a cluster migration.
    pub migrating: bool,
}

/// The outcome of one 2-D (cluster, frequency) Algorithm 1 evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPointDecision {
    /// The chosen operating point (or the fastest cluster's `fmax` when
    /// no point is feasible).
    pub chosen: OperatingPoint,
    /// Whether any operating point met the QoS target.
    pub feasible: bool,
    /// The predicted PPW at the chosen point.
    pub predicted_ppw: Ppw,
    /// The full predicted curve, cluster-major with frequencies ascending
    /// within each cluster.
    pub curve: Vec<PredictedOperatingPoint>,
}

impl OperatingPointDecision {
    /// The first feasible point in cluster-major, frequency-ascending
    /// order — the 2-D generalization of `fD` (on one cluster this is
    /// exactly the lowest deadline-meeting frequency).
    pub fn point_deadline(&self) -> Option<OperatingPoint> {
        self.curve.iter().find(|p| p.feasible).map(|p| p.point)
    }

    /// The unconstrained PPW-optimal point (`fE` generalized), deadline
    /// disregarded. Returns the chosen point on an empty curve (which
    /// [`select_operating_point`] never produces).
    pub fn point_energy(&self) -> OperatingPoint {
        self.curve
            .iter()
            .max_by(|a, b| a.ppw.total_cmp(&b.ppw))
            .map_or(self.chosen, |p| p.point)
    }
}

/// Runs Algorithm 1 over every frequency in the model's DVFS table: the
/// one-cluster case of [`select_operating_point`], searched over the
/// trained cluster with no migration candidates.
///
/// * `qos_target` — the load-time deadline.
/// * `l2_mpki`, `corun_utilization`, `temp` — the sampled dynamic
///   conditions.
/// * `include_leakage` — `false` reproduces `DORA_no_lkg`.
///
/// Every returned point is on [`ClusterId::PRIMARY`]; when no frequency
/// meets the target the choice is `fmax`, at the last row's PPW.
///
/// # Panics
///
/// Panics if `qos_target` is not positive and finite.
pub fn select_frequency(
    models: &DoraModels,
    page: PageFeatures,
    qos_target: Seconds,
    l2_mpki: Mpki,
    corun_utilization: Utilization,
    temp: Celsius,
    include_leakage: bool,
) -> OperatingPointDecision {
    sweep(
        std::iter::once((ClusterId::PRIMARY, models, 1.0, 1.0)),
        ClusterId::PRIMARY,
        MigrationCost::none(),
        page,
        qos_target,
        l2_mpki,
        corun_utilization,
        temp,
        include_leakage,
    )
}

/// Runs Algorithm 1 over the full (cluster, frequency) product space.
///
/// For every cluster model and every frequency in its table, the
/// predicted load time and power are scaled by the cluster's ratios;
/// candidates on a different cluster than `current` additionally pay the
/// migration cost — `migration.latency` is added to the predicted load
/// time (and counts against the QoS target) and `migration.energy` enters
/// the efficiency denominator: `PPW = 1/(T·P + E_migration)`. Among
/// feasible points the PPW maximum wins, ties resolved toward the
/// earliest cluster and lowest frequency; when nothing is feasible the
/// search prioritizes QoS and picks `fmax` of the cluster with the
/// smallest predicted load time.
///
/// With a single [`ClusterModel::primary`] entry this is the paper's
/// Algorithm 1 exactly: scales of `1.0` are exact and no candidate
/// migrates.
///
/// # Panics
///
/// Panics if `qos_target` is not positive and finite, or if `clusters`
/// is empty.
#[allow(clippy::too_many_arguments)] // the 2-D inputs plus the sampled conditions
pub fn select_operating_point(
    clusters: &[ClusterModel],
    current: OperatingPoint,
    migration: MigrationCost,
    page: PageFeatures,
    qos_target: Seconds,
    l2_mpki: Mpki,
    corun_utilization: Utilization,
    temp: Celsius,
    include_leakage: bool,
) -> OperatingPointDecision {
    assert!(!clusters.is_empty(), "need at least one cluster model");
    sweep(
        clusters
            .iter()
            .map(|cm| (cm.cluster, &cm.models, cm.time_scale, cm.power_scale)),
        current.cluster,
        migration,
        page,
        qos_target,
        l2_mpki,
        corun_utilization,
        temp,
        include_leakage,
    )
}

/// The one Algorithm 1 candidate loop behind both entry points.
///
/// `clusters` yields `(cluster, models, time_scale, power_scale)` per
/// cluster, in search order; candidates off `current` migrate.
#[allow(clippy::too_many_arguments)] // the search space plus the sampled conditions
fn sweep<'a>(
    clusters: impl Iterator<Item = (ClusterId, &'a DoraModels, f64, f64)> + Clone,
    current: ClusterId,
    migration: MigrationCost,
    page: PageFeatures,
    qos_target: Seconds,
    l2_mpki: Mpki,
    corun_utilization: Utilization,
    temp: Celsius,
    include_leakage: bool,
) -> OperatingPointDecision {
    assert!(
        qos_target.is_finite() && qos_target > Seconds::ZERO,
        "bad QoS target {qos_target}"
    );
    let mut curve = Vec::with_capacity(clusters.clone().map(|(_, m, ..)| m.dvfs.len()).sum());
    let mut best: Option<(OperatingPoint, Ppw)> = None;
    // The fmax row with the smallest load time so far, for the fallback.
    let mut fastest: Option<PredictedOperatingPoint> = None;
    for (cluster, models, time_scale, power_scale) in clusters {
        let migrating = cluster != current;
        let bound = BoundModels::new(
            models,
            page,
            l2_mpki,
            corun_utilization,
            temp,
            include_leakage,
        );
        for (f, load_time, power) in bound.candidates() {
            let mut load_time = load_time * time_scale;
            let power = power * power_scale;
            let mut energy = power * load_time;
            if migrating {
                load_time += Seconds::new(migration.latency.as_secs_f64());
                energy = power * load_time + migration.energy;
            }
            let ppw = Ppw::from_energy(energy);
            let feasible = load_time <= qos_target;
            let point = OperatingPoint {
                cluster,
                frequency: f,
            };
            if feasible && best.as_ref().is_none_or(|&(_, b)| ppw > b) {
                best = Some((point, ppw));
            }
            curve.push(PredictedOperatingPoint {
                point,
                load_time,
                power,
                ppw,
                feasible,
                migrating,
            });
        }
        // Infeasible fallback: the fastest finisher, flat out. Only a
        // strictly smaller load time replaces the earlier cluster's row,
        // so ties go to the earlier cluster and one cluster is plain fmax.
        let fmax_row = curve[curve.len() - 1];
        if fastest.is_none_or(|row| fmax_row.load_time.total_cmp(&row.load_time).is_lt()) {
            fastest = Some(fmax_row);
        }
    }
    match best {
        Some((chosen, predicted_ppw)) => OperatingPointDecision {
            chosen,
            feasible: true,
            predicted_ppw,
            curve,
        },
        None => {
            #[expect(
                clippy::expect_used,
                reason = "documented panic: callers pass at least one cluster"
            )]
            let fastest = fastest.expect("at least one cluster");
            OperatingPointDecision {
                chosen: fastest.point,
                feasible: false,
                predicted_ppw: fastest.ppw,
                curve,
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::models::{FrequencyEncoding, PiecewiseSurface, PredictorInputs};
    use dora_modeling::leakage::Eq5Params;
    use dora_modeling::surface::{FittedSurface, ResponseSurface, SurfaceKind};
    use dora_sim_core::units::Watts;
    use dora_soc::{DvfsTable, Frequency};

    fn page() -> PageFeatures {
        PageFeatures::new(2100, 1300, 620, 680, 590).expect("valid")
    }

    /// Fits a 9-input surface to a synthetic function of (mpki, freq).
    fn surface_of(f: impl Fn(f64, f64) -> f64) -> FittedSurface {
        let dvfs = DvfsTable::default();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for freq in dvfs.frequencies() {
            for mpki in [0.0f64, 2.0, 5.0, 10.0, 20.0] {
                for util in [0.0f64, 0.5, 1.0] {
                    let inputs = PredictorInputs::for_frequency(
                        page(),
                        freq,
                        &dvfs,
                        Mpki::clamped(mpki),
                        Utilization::clamped(util),
                    );
                    xs.push(inputs.to_vector());
                    ys.push(f(mpki, freq.as_ghz()));
                }
            }
        }
        ResponseSurface::new(SurfaceKind::Quadratic, 9)
            .fit(&xs, &ys)
            .expect("well posed")
    }

    /// A model bundle with physically-shaped synthetic truths:
    /// T = work/(f) + mpki penalty; P = floor + k·f².
    fn physical_models() -> DoraModels {
        let time = surface_of(|mpki, ghz| 2.2 / ghz + 0.05 * mpki);
        let power = surface_of(|_mpki, ghz| 1.4 + 0.35 * ghz * ghz);
        DoraModels {
            load_time: PiecewiseSurface::new([None, None, None], time, FrequencyEncoding::Natural),
            power: PiecewiseSurface::new([None, None, None], power, FrequencyEncoding::Natural),
            leakage: Eq5Params {
                k1: 0.22,
                alpha: 800.0,
                beta: -4300.0,
                k2: 0.05,
                gamma: 2.0,
                delta: -2.0,
            },
            dvfs: DvfsTable::default(),
        }
    }

    #[test]
    fn picks_a_feasible_ppw_maximizer() {
        let m = physical_models();
        let d = select_frequency(
            &m,
            page(),
            Seconds::new(3.0),
            Mpki::clamped(2.0),
            Utilization::clamped(0.5),
            Celsius::new(40.0),
            true,
        );
        assert!(d.feasible);
        // The chosen point's predicted PPW is the max over feasible points.
        let best_feasible = d
            .curve
            .iter()
            .filter(|p| p.feasible)
            .map(|p| p.ppw)
            .fold(Ppw::ZERO, Ppw::max);
        assert!((d.predicted_ppw.value() - best_feasible.value()).abs() < 1e-12);
        let chosen_point = d
            .curve
            .iter()
            .find(|p| p.point == d.chosen)
            .expect("chosen is in curve");
        assert!(chosen_point.feasible);
    }

    #[test]
    fn tight_deadline_forces_high_frequency() {
        let m = physical_models();
        let relaxed = select_frequency(
            &m,
            page(),
            Seconds::new(10.0),
            Mpki::clamped(2.0),
            Utilization::clamped(0.5),
            Celsius::new(40.0),
            true,
        );
        let tight = select_frequency(
            &m,
            page(),
            Seconds::new(1.3),
            Mpki::clamped(2.0),
            Utilization::clamped(0.5),
            Celsius::new(40.0),
            true,
        );
        assert!(tight.chosen.frequency >= relaxed.chosen.frequency);
        assert!(tight.feasible);
    }

    #[test]
    fn impossible_deadline_falls_back_to_fmax() {
        let m = physical_models();
        // 0.1 s is unreachable: T >= 2.2/2.2656 ~ 0.97 s.
        let d = select_frequency(
            &m,
            page(),
            Seconds::new(0.1),
            Mpki::clamped(2.0),
            Utilization::clamped(0.5),
            Celsius::new(40.0),
            true,
        );
        assert!(!d.feasible);
        assert_eq!(d.chosen.cluster, ClusterId::PRIMARY);
        assert_eq!(d.chosen.frequency, m.dvfs.max_frequency());
    }

    #[test]
    fn fopt_is_max_of_fd_fe_rule() {
        // Equation 1: fopt = fE if fD <= fE else fD.
        let m = physical_models();
        let d = select_frequency(
            &m,
            page(),
            Seconds::new(3.0),
            Mpki::clamped(2.0),
            Utilization::clamped(0.5),
            Celsius::new(40.0),
            true,
        );
        let fd = d.point_deadline().expect("feasible").frequency;
        let fe = d.point_energy().frequency;
        let expected = if fd <= fe { fe } else { fd };
        assert_eq!(d.chosen.frequency, expected, "fD={fd} fE={fe}");
    }

    #[test]
    fn interference_shifts_fd_upward() {
        let m = physical_models();
        let calm = select_frequency(
            &m,
            page(),
            Seconds::new(3.0),
            Mpki::clamped(0.5),
            Utilization::clamped(0.2),
            Celsius::new(40.0),
            true,
        );
        let noisy = select_frequency(
            &m,
            page(),
            Seconds::new(3.0),
            Mpki::clamped(18.0),
            Utilization::clamped(1.0),
            Celsius::new(40.0),
            true,
        );
        let fd_calm = calm.point_deadline().expect("feasible").frequency;
        let fd_noisy = noisy
            .point_deadline()
            .expect("feasible under pressure")
            .frequency;
        assert!(
            fd_noisy >= fd_calm,
            "more interference cannot lower fD: {fd_calm} -> {fd_noisy}"
        );
        assert!(
            fd_noisy > fd_calm,
            "18 MPKI should move fD at a 3s deadline"
        );
    }

    #[test]
    fn curve_is_complete_and_ascending() {
        let m = physical_models();
        let d = select_frequency(
            &m,
            page(),
            Seconds::new(3.0),
            Mpki::clamped(2.0),
            Utilization::clamped(0.5),
            Celsius::new(40.0),
            true,
        );
        assert_eq!(d.curve.len(), m.dvfs.len());
        for pair in d.curve.windows(2) {
            assert!(pair[0].point.frequency < pair[1].point.frequency);
        }
        // The fitted surface may wiggle locally (a polynomial approximating
        // 1/f), but end-to-end the trend must hold and times stay positive.
        let first = d.curve.first().expect("non-empty");
        let last = d.curve.last().expect("non-empty");
        assert!(first.load_time > last.load_time);
        assert!(d.curve.iter().all(|p| p.load_time > Seconds::ZERO));
    }

    #[test]
    #[should_panic(expected = "bad QoS target")]
    fn rejects_nonpositive_target() {
        let m = physical_models();
        let _ = select_frequency(
            &m,
            page(),
            Seconds::new(0.0),
            Mpki::clamped(1.0),
            Utilization::clamped(0.5),
            Celsius::new(40.0),
            true,
        );
    }

    fn biglittle_models() -> Vec<ClusterModel> {
        let board = dora_soc::SocProfile::biglittle_a15a7().board_config();
        ClusterModel::from_profile(&physical_models(), &board)
    }

    fn at(cluster: usize, mhz: f64) -> OperatingPoint {
        OperatingPoint {
            cluster: ClusterId::new(cluster),
            frequency: Frequency::from_mhz(mhz),
        }
    }

    /// Asserts, bit for bit, that `d` is the paper's Algorithm 1 over
    /// `table` written out literally from the point predictions
    /// `predict(F) = (T, P)`: a strict `>` PPW argmax over the feasible
    /// frequencies (the lowest F wins a tie), else `fmax` at the last
    /// row's PPW; every row on the primary cluster, none migrating.
    pub(crate) fn assert_paper_algorithm_one(
        d: &OperatingPointDecision,
        table: &DvfsTable,
        target: Seconds,
        predict: impl Fn(Frequency) -> (Seconds, Watts),
    ) {
        assert_eq!(d.curve.len(), table.len());
        let mut max_ppw: Option<(Frequency, Ppw)> = None;
        let mut last_ppw = Ppw::ZERO;
        for (row, f) in d.curve.iter().zip(table.frequencies()) {
            let (pred_time, pred_power) = predict(f);
            let pred_ppw = Ppw::from_time_power(pred_time, pred_power);
            let feasible = pred_time <= target;
            if feasible && max_ppw.is_none_or(|(_, best)| pred_ppw > best) {
                max_ppw = Some((f, pred_ppw));
            }
            last_ppw = pred_ppw;
            let bits = |x: f64| x.to_bits();
            assert_eq!(row.point.cluster, ClusterId::PRIMARY);
            assert_eq!(row.point.frequency, f);
            assert_eq!(bits(row.load_time.value()), bits(pred_time.value()));
            assert_eq!(bits(row.power.value()), bits(pred_power.value()));
            assert_eq!(bits(row.ppw.value()), bits(pred_ppw.value()));
            assert_eq!(row.feasible, feasible);
            assert!(!row.migrating);
        }
        let (chosen, ppw) = max_ppw.unwrap_or((table.max_frequency(), last_ppw));
        assert_eq!(d.chosen.cluster, ClusterId::PRIMARY);
        assert_eq!(d.chosen.frequency, chosen);
        assert_eq!(d.feasible, max_ppw.is_some());
        assert_eq!(d.predicted_ppw.value().to_bits(), ppw.value().to_bits());
    }

    #[test]
    fn single_cluster_search_is_the_paper_algorithm_bitwise() {
        let m = physical_models();
        let util = Utilization::clamped(0.5);
        for (deadline, mpki, temp) in [(3.0, 2.0, 40.0), (1.3, 12.0, 70.0), (0.1, 2.0, 40.0)] {
            let (target, mpki, temp) = (
                Seconds::new(deadline),
                Mpki::clamped(mpki),
                Celsius::new(temp),
            );
            let flat = select_frequency(&m, page(), target, mpki, util, temp, true);
            let point = select_operating_point(
                &[ClusterModel::primary(m.clone())],
                at(0, 960.0),
                MigrationCost::none(),
                page(),
                target,
                mpki,
                util,
                temp,
                true,
            );
            assert_eq!(flat, point);
            assert_paper_algorithm_one(&point, &m.dvfs, target, |f| {
                let inputs = PredictorInputs::for_frequency(page(), f, &m.dvfs, mpki, util);
                (
                    m.predict_load_time(&inputs),
                    m.predict_total_power(&inputs, temp, true),
                )
            });
        }
    }

    #[test]
    fn chosen_point_is_the_feasible_ppw_argmax_of_the_product_space() {
        let clusters = biglittle_models();
        let d = select_operating_point(
            &clusters,
            at(0, 1000.0),
            dora_soc::MigrationCost::biglittle(),
            page(),
            Seconds::new(4.0),
            Mpki::clamped(2.0),
            Utilization::clamped(0.5),
            Celsius::new(40.0),
            true,
        );
        assert!(d.feasible);
        // Exhaustive check over the returned curve: nothing feasible beats
        // the chosen point, and the chosen row matches the reported PPW.
        let chosen_row = d
            .curve
            .iter()
            .find(|p| p.point == d.chosen)
            .expect("chosen is in curve");
        assert!(chosen_row.feasible);
        assert_eq!(chosen_row.ppw, d.predicted_ppw);
        for p in d.curve.iter().filter(|p| p.feasible) {
            assert!(p.ppw <= d.predicted_ppw, "{:?} beats chosen", p.point);
        }
    }

    #[test]
    fn zero_migration_cost_reduces_to_per_cluster_argmax() {
        let clusters = biglittle_models();
        let current = at(0, 1000.0);
        let run = |models: &[ClusterModel]| {
            select_operating_point(
                models,
                current,
                MigrationCost::none(),
                page(),
                Seconds::new(4.0),
                Mpki::clamped(2.0),
                Utilization::clamped(0.5),
                Celsius::new(40.0),
                true,
            )
        };
        let full = run(&clusters);
        // Each cluster searched alone, then the per-cluster winners
        // compared: with zero migration cost the 2-D search must agree
        // (earlier cluster wins exact ties).
        let mut expected: Option<(OperatingPoint, Ppw)> = None;
        for cm in &clusters {
            let solo = run(std::slice::from_ref(cm));
            if solo.feasible
                && expected
                    .as_ref()
                    .is_none_or(|&(_, b)| solo.predicted_ppw > b)
            {
                expected = Some((solo.chosen, solo.predicted_ppw));
            }
        }
        let (point, ppw) = expected.expect("feasible somewhere");
        assert_eq!(full.chosen, point);
        assert_eq!(full.predicted_ppw, ppw);
    }

    #[test]
    fn migration_cost_only_penalizes_cross_cluster_candidates() {
        let clusters = biglittle_models();
        let current = at(0, 1000.0);
        let run = |migration: MigrationCost| {
            select_operating_point(
                &clusters,
                current,
                migration,
                page(),
                Seconds::new(4.0),
                Mpki::clamped(2.0),
                Utilization::clamped(0.5),
                Celsius::new(40.0),
                true,
            )
        };
        let free = run(MigrationCost::none());
        let paid = run(dora_soc::MigrationCost::biglittle());
        for (f, p) in free.curve.iter().zip(paid.curve.iter()) {
            assert_eq!(f.point, p.point);
            if p.migrating {
                assert!(p.load_time > f.load_time, "{:?}", p.point);
                assert!(p.ppw < f.ppw, "{:?}", p.point);
            } else {
                // Same-cluster rows are untouched by the migration model.
                assert_eq!(f.load_time, p.load_time);
                assert_eq!(f.ppw, p.ppw);
            }
        }
    }

    #[test]
    fn infeasible_product_space_runs_the_fastest_cluster_flat_out() {
        let clusters = biglittle_models();
        let d = select_operating_point(
            &clusters,
            at(0, 1000.0),
            dora_soc::MigrationCost::biglittle(),
            page(),
            Seconds::new(0.01),
            Mpki::clamped(2.0),
            Utilization::clamped(0.5),
            Celsius::new(40.0),
            true,
        );
        assert!(!d.feasible);
        // The A15 cluster at its fmax finishes first (the A7 pays a 1.6x
        // CPI scale), so QoS prioritization lands there.
        assert_eq!(d.chosen.cluster, ClusterId::new(0));
        assert_eq!(d.chosen.frequency, clusters[0].models.dvfs.max_frequency());
        let fallback_row = d
            .curve
            .iter()
            .find(|p| p.point == d.chosen)
            .expect("in curve");
        assert_eq!(d.predicted_ppw, fallback_row.ppw);
    }

    #[test]
    fn point_helpers_generalize_fd_and_fe() {
        let clusters = biglittle_models();
        let d = select_operating_point(
            &clusters,
            at(0, 1000.0),
            MigrationCost::none(),
            page(),
            Seconds::new(4.0),
            Mpki::clamped(2.0),
            Utilization::clamped(0.5),
            Celsius::new(40.0),
            true,
        );
        let fd = d.point_deadline().expect("feasible");
        let first_feasible = d.curve.iter().find(|p| p.feasible).expect("feasible");
        assert_eq!(fd, first_feasible.point);
        let fe = d.point_energy();
        let best = d
            .curve
            .iter()
            .max_by(|a, b| a.ppw.total_cmp(&b.ppw))
            .expect("non-empty");
        assert_eq!(fe, best.point);
    }
}
