//! DORA as a runtime frequency governor.
//!
//! The paper implements DORA "as a light-weight user space frequency
//! governor within the Android OS" with a 100 ms decision interval
//! (Section IV-C: 250 ms is too slow to track page phases, 50 ms and
//! 100 ms perform similarly, so the less intrusive 100 ms wins). Each
//! interval it re-runs Algorithm 1 with freshly sampled MPKI, co-runner
//! utilization and temperature, and reprograms the clock only when `fopt`
//! moved.

use crate::algorithm::{select_operating_point, ClusterModel, OperatingPointDecision};
use crate::models::DoraModels;
use dora_browser::PageFeatures;
use dora_governors::{Governor, GovernorObservation};
use dora_sim_core::units::{Ppw, Seconds};
use dora_sim_core::SimDuration;
use dora_soc::{BoardConfig, ClusterId, Frequency, MigrationCost, OperatingPoint};

/// Which frequency the governor extracts from each Algorithm 1 sweep.
///
/// The paper compares DORA against "two hypothetical governors —
/// `Deadline (DL)` and `Energy Efficient (EE)`" (Section V-C) that share
/// DORA's prediction machinery but optimize only one half of the
/// objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DoraPolicy {
    /// Full Algorithm 1: the PPW-optimal deadline-meeting frequency.
    #[default]
    Dora,
    /// `DL` — the lowest predicted-feasible frequency (`fD`), energy
    /// efficiency disregarded; `fmax` when infeasible.
    DeadlineOnly,
    /// `EE` — the predicted PPW-optimal frequency (`fE`), deadline
    /// disregarded.
    EnergyOnly,
}

/// Configuration of the DORA governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoraConfig {
    /// The web-page load-time QoS target (the paper's default
    /// user-satisfaction deadline is 3 s, from a user survey).
    pub qos_target: Seconds,
    /// Decision cadence (paper default: 100 ms).
    pub decision_interval: SimDuration,
    /// Whether the power prediction includes the Eq. 5 leakage term;
    /// `false` yields the paper's `DORA_no_lkg` ablation (Fig. 10a).
    pub include_leakage: bool,
    /// Which frequency to extract from the predicted curve.
    pub policy: DoraPolicy,
    /// Safety margin on the QoS check: a frequency counts as feasible
    /// only when the predicted load time is below
    /// `(1 − qos_margin) · qos_target`. Small model errors on
    /// borderline workloads otherwise turn into real deadline misses.
    pub qos_margin: f64,
    /// Switch hysteresis: stay at the current frequency when it is still
    /// feasible and its predicted PPW is within this relative margin of
    /// the new optimum. Section V-H: DORA "decides to change the frequency
    /// setting only when the system performance conditions have changed
    /// significantly enough to alter fopt" — each switch costs a real
    /// stall, so marginal improvements are not worth chasing.
    pub switch_margin: f64,
}

impl Default for DoraConfig {
    fn default() -> Self {
        DoraConfig {
            qos_target: Seconds::new(3.0),
            decision_interval: SimDuration::from_millis(100),
            include_leakage: true,
            policy: DoraPolicy::Dora,
            qos_margin: 0.03,
            switch_margin: 0.03,
        }
    }
}

impl DoraConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.qos_target.is_finite() && self.qos_target > Seconds::ZERO) {
            return Err(format!("bad QoS target {}", self.qos_target));
        }
        if self.decision_interval.is_zero() {
            return Err("decision interval must be positive".into());
        }
        if !(self.qos_margin.is_finite() && (0.0..=0.5).contains(&self.qos_margin)) {
            return Err(format!("qos_margin {} outside [0, 0.5]", self.qos_margin));
        }
        if !(self.switch_margin.is_finite() && (0.0..=0.5).contains(&self.switch_margin)) {
            return Err(format!(
                "switch_margin {} outside [0, 0.5]",
                self.switch_margin
            ));
        }
        Ok(())
    }
}

/// The DORA governor: statically-trained models + Algorithm 1, run every
/// decision interval over the (cluster, frequency) operating points of
/// the SoC.
///
/// A homogeneous SoC is the one-cluster case ([`DoraGovernor::new`]); a
/// heterogeneous (big.LITTLE) one gets one [`ClusterModel`] per cluster
/// and the profile's cited migration-cost model
/// ([`DoraGovernor::from_profile`]). Candidates on the currently governed
/// cluster are scored as the paper scores frequencies; a candidate on
/// another cluster must additionally amortize the migration latency
/// (against the QoS target) and energy (in the PPW denominator) before it
/// can win.
///
/// # Example
///
/// Construction requires a trained [`DoraModels`] bundle; see the
/// `trainer` module and `examples/quickstart.rs` for the full pipeline.
#[derive(Debug, Clone)]
pub struct DoraGovernor {
    clusters: Vec<ClusterModel>,
    migration: MigrationCost,
    config: DoraConfig,
    page: PageFeatures,
    name: String,
    last_decision: Option<OperatingPointDecision>,
    decision_count: u64,
}

/// The per-cluster governor's name from before the homogeneous and
/// heterogeneous governors merged, kept so code written against it (the
/// benchmark harness calls `HeterogeneousDoraGovernor::from_profile`)
/// still builds.
pub type HeterogeneousDoraGovernor = DoraGovernor;

impl DoraGovernor {
    /// Creates a DORA governor for loading `page` under the given trained
    /// models and configuration, searching the models' own DVFS table as
    /// a single cluster with no migration candidates.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(models: DoraModels, page: PageFeatures, config: DoraConfig) -> Self {
        DoraGovernor::with_clusters(
            vec![ClusterModel::primary(models)],
            MigrationCost::none(),
            page,
            config,
        )
    }

    /// Creates the governor for a board profile: one scaled model per
    /// cluster ([`ClusterModel::from_profile`]), each searching its
    /// cluster's DVFS table, and the profile's migration-cost model.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation or `board` has no clusters.
    pub fn from_profile(
        models: &DoraModels,
        board: &BoardConfig,
        page: PageFeatures,
        config: DoraConfig,
    ) -> Self {
        DoraGovernor::with_clusters(
            ClusterModel::from_profile(models, board),
            board.migration,
            page,
            config,
        )
    }

    /// Validates `config` and names the governor after its policy.
    fn with_clusters(
        clusters: Vec<ClusterModel>,
        migration: MigrationCost,
        page: PageFeatures,
        config: DoraConfig,
    ) -> Self {
        #[allow(clippy::expect_used)] // constructor contract: documented panic
        config.validate().expect("invalid DORA configuration");
        let name = match (config.policy, config.include_leakage) {
            (DoraPolicy::Dora, true) => "DORA".to_string(),
            (DoraPolicy::Dora, false) => "DORA_no_lkg".to_string(),
            (DoraPolicy::DeadlineOnly, _) => "DL".to_string(),
            (DoraPolicy::EnergyOnly, _) => "EE".to_string(),
        };
        DoraGovernor {
            clusters,
            migration,
            config,
            page,
            name,
            last_decision: None,
            decision_count: 0,
        }
    }

    /// The governor's configuration.
    pub fn config(&self) -> DoraConfig {
        self.config
    }

    /// The page the governor is optimizing for. The paper reads the page
    /// complexity "before a page is rendered"; re-targeting a new page is
    /// a [`DoraGovernor::retarget`] call, not a retrain.
    pub fn page(&self) -> PageFeatures {
        self.page
    }

    /// Points the governor at a new page (models are page-independent).
    pub fn retarget(&mut self, page: PageFeatures) {
        self.page = page;
        self.last_decision = None;
    }

    /// The most recent Algorithm 1 outcome, if any — exposes the full
    /// predicted curve for diagnosis and for the Fig. 6/11 experiments.
    pub fn last_decision(&self) -> Option<&OperatingPointDecision> {
        self.last_decision.as_ref()
    }

    /// How many Algorithm 1 evaluations have run (for overhead accounting,
    /// Section V-H).
    pub fn decision_count(&self) -> u64 {
        self.decision_count
    }

    /// The per-cluster models the governor searches over.
    pub fn cluster_models(&self) -> &[ClusterModel] {
        &self.clusters
    }

    /// The point of the governed cluster/frequency pair in `obs`, clamped
    /// to a cluster the governor actually has a model for.
    fn current_point(&self, observation: &GovernorObservation) -> OperatingPoint {
        let cluster = if observation.cluster < self.clusters.len() {
            ClusterId::new(observation.cluster)
        } else {
            ClusterId::PRIMARY
        };
        OperatingPoint {
            cluster,
            frequency: observation.frequency,
        }
    }

    /// Runs the sweep over `clusters` and applies policy extraction plus
    /// switch hysteresis against `current`.
    fn sweep(
        &mut self,
        clusters_range: std::ops::Range<usize>,
        current: OperatingPoint,
        observation: &GovernorObservation,
    ) -> OperatingPoint {
        self.decision_count += 1;
        let decision = select_operating_point(
            &self.clusters[clusters_range],
            current,
            self.migration,
            self.page,
            self.config.qos_target * (1.0 - self.config.qos_margin),
            observation.shared_l2_mpki,
            observation.corun_utilization,
            observation.temperature,
            self.config.include_leakage,
        );
        let mut chosen = match self.config.policy {
            DoraPolicy::Dora => decision.chosen,
            // DL when infeasible: the sweep's fallback is already the
            // QoS-prioritizing fastest point (`fmax` on one cluster).
            DoraPolicy::DeadlineOnly => decision.point_deadline().unwrap_or(decision.chosen),
            DoraPolicy::EnergyOnly => decision.point_energy(),
        };
        // Hysteresis: keep the programmed point when it is predicted to
        // stay feasible (irrelevant for EE) and its PPW is within the
        // configured margin of the new optimum — a DVFS write costs a
        // stall and a migration far more, so marginal wins are not worth
        // chasing. DL optimizes feasibility alone, so hysteresis does not
        // apply.
        if chosen != current && self.config.policy != DoraPolicy::DeadlineOnly {
            let current_row = decision.curve.iter().find(|p| p.point == current);
            let target_row = decision.curve.iter().find(|p| p.point == chosen);
            if let (Some(current_row), Some(target_row)) = (current_row, target_row) {
                let feasible_enough =
                    current_row.feasible || self.config.policy == DoraPolicy::EnergyOnly;
                let close_enough = if target_row.ppw > Ppw::ZERO {
                    (target_row.ppw.value() - current_row.ppw.value()) / target_row.ppw.value()
                        < self.config.switch_margin
                } else {
                    false
                };
                if feasible_enough && close_enough {
                    chosen = current;
                }
            }
        }
        self.last_decision = Some(decision);
        chosen
    }
}

impl Governor for DoraGovernor {
    fn name(&self) -> &str {
        &self.name
    }

    fn decision_interval(&self) -> SimDuration {
        self.config.decision_interval
    }

    fn decide(&mut self, observation: &GovernorObservation) -> Frequency {
        // The single-knob entry point may not migrate, so the sweep is
        // restricted to the observed cluster's slice of the model list.
        let current = self.current_point(observation);
        let i = current.cluster.index();
        self.sweep(i..i + 1, current, observation).frequency
    }

    fn decide_point(&mut self, observation: &GovernorObservation) -> OperatingPoint {
        let current = self.current_point(observation);
        self.sweep(0..self.clusters.len(), current, observation)
    }

    fn reset(&mut self) {
        self.last_decision = None;
        self.decision_count = 0;
    }

    fn page_changed(&mut self, page: &PageFeatures) {
        self.retarget(*page);
    }

    fn decision_curve(&self) -> Option<Vec<dora_sim_core::probe::CandidatePrediction>> {
        self.last_decision.as_ref().map(|d| {
            d.curve
                .iter()
                .map(|p| dora_sim_core::probe::CandidatePrediction {
                    cluster: p.point.cluster.index(),
                    frequency_khz: p.point.frequency.as_khz(),
                    load_time: p.load_time,
                    power: p.power,
                    ppw: p.ppw,
                    feasible: p.feasible,
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::tests::assert_paper_algorithm_one;
    use crate::models::{FrequencyEncoding, PiecewiseSurface, PredictorInputs};
    use dora_modeling::leakage::Eq5Params;
    use dora_modeling::surface::{ResponseSurface, SurfaceKind};
    use dora_sim_core::units::{Celsius, Mpki, Utilization};
    use dora_sim_core::SimTime;
    use dora_soc::DvfsTable;

    fn page() -> PageFeatures {
        PageFeatures::new(2100, 1300, 620, 680, 590).expect("valid")
    }

    fn physical_models() -> DoraModels {
        let dvfs = DvfsTable::default();
        let mut xs = Vec::new();
        let mut t_ys = Vec::new();
        let mut p_ys = Vec::new();
        for freq in dvfs.frequencies() {
            for mpki in [0.0f64, 3.0, 8.0, 16.0] {
                for util in [0.0f64, 0.6, 1.0] {
                    let inputs = PredictorInputs::for_frequency(
                        page(),
                        freq,
                        &dvfs,
                        Mpki::clamped(mpki),
                        Utilization::clamped(util),
                    );
                    xs.push(inputs.to_vector());
                    t_ys.push(2.2 / freq.as_ghz() + 0.05 * mpki);
                    p_ys.push(1.4 + 0.35 * freq.as_ghz() * freq.as_ghz());
                }
            }
        }
        let time = ResponseSurface::new(SurfaceKind::Quadratic, 9)
            .fit(&xs, &t_ys)
            .expect("well posed");
        let power = ResponseSurface::new(SurfaceKind::Quadratic, 9)
            .fit(&xs, &p_ys)
            .expect("well posed");
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
            dvfs,
        }
    }

    fn obs(mpki: f64, temp_c: f64) -> GovernorObservation {
        GovernorObservation {
            now: SimTime::from_millis(100),
            interval: SimDuration::from_millis(100),
            frequency: Frequency::from_mhz(960.0),
            cluster: 0,
            per_core_utilization: [0.9, 0.5, 0.8, 0.0].map(Utilization::clamped).to_vec(),
            shared_l2_mpki: Mpki::clamped(mpki),
            corun_utilization: Utilization::clamped(0.8),
            temperature: Celsius::new(temp_c),
        }
    }

    #[test]
    fn name_reflects_leakage_flag() {
        let m = physical_models();
        let with = DoraGovernor::new(m.clone(), page(), DoraConfig::default());
        assert_eq!(with.name(), "DORA");
        let without = DoraGovernor::new(
            m,
            page(),
            DoraConfig {
                include_leakage: false,
                ..DoraConfig::default()
            },
        );
        assert_eq!(without.name(), "DORA_no_lkg");
    }

    #[test]
    fn decides_and_records_curve() {
        let m = physical_models();
        let mut g = DoraGovernor::new(m.clone(), page(), DoraConfig::default());
        let f = g.decide(&obs(2.0, 40.0));
        assert!(m.dvfs.index_of(f).is_some(), "must return a table entry");
        let d = g.last_decision().expect("recorded");
        assert_eq!(d.curve.len(), m.dvfs.len());
        assert_eq!(g.decision_count(), 1);
        // The probe-facing curve mirrors the decision, point for point.
        let probe_curve = g.decision_curve().expect("recorded");
        assert_eq!(probe_curve.len(), d.curve.len());
        for (traced, predicted) in probe_curve.iter().zip(d.curve.iter()) {
            assert_eq!(traced.frequency_khz, predicted.point.frequency.as_khz());
            assert_eq!(traced.load_time, predicted.load_time);
            assert_eq!(traced.ppw, predicted.ppw);
            assert_eq!(traced.feasible, predicted.feasible);
        }
    }

    #[test]
    fn interference_raises_chosen_frequency_when_deadline_binds() {
        let m = physical_models();
        let tight = DoraConfig {
            qos_target: Seconds::new(1.5),
            ..DoraConfig::default()
        };
        let mut g = DoraGovernor::new(m, page(), tight);
        let calm = g.decide(&obs(0.5, 40.0));
        g.reset();
        let noisy = g.decide(&obs(12.0, 40.0));
        assert!(noisy >= calm, "interference cannot lower fopt here");
        assert!(noisy > calm, "12 MPKI at a 1.5s target should move fopt");
    }

    #[test]
    fn hot_die_shifts_away_from_top_frequency() {
        // With leakage enabled, a hot die makes the top settings less
        // efficient; under a relaxed deadline DORA should not pick them.
        let m = physical_models();
        let relaxed = DoraConfig {
            qos_target: Seconds::new(10.0),
            ..DoraConfig::default()
        };
        let mut g = DoraGovernor::new(m.clone(), page(), relaxed);
        let hot = g.decide(&obs(1.0, 75.0));
        assert!(
            hot < m.dvfs.max_frequency(),
            "relaxed deadline + hot die should avoid fmax, got {hot}"
        );
    }

    #[test]
    fn retarget_clears_decision_state() {
        let m = physical_models();
        let mut g = DoraGovernor::new(m, page(), DoraConfig::default());
        let _ = g.decide(&obs(2.0, 40.0));
        assert!(g.last_decision().is_some());
        g.retarget(PageFeatures::new(900, 540, 150, 180, 230).expect("valid"));
        assert!(g.last_decision().is_none());
        assert_eq!(g.page().dom_nodes(), 900);
    }

    #[test]
    #[should_panic(expected = "invalid DORA configuration")]
    fn rejects_bad_config() {
        let m = physical_models();
        let _ = DoraGovernor::new(
            m,
            page(),
            DoraConfig {
                qos_target: Seconds::new(-1.0),
                ..DoraConfig::default()
            },
        );
    }

    #[test]
    fn dl_policy_tracks_lowest_feasible_frequency() {
        let m = physical_models();
        let mut dl = DoraGovernor::new(
            m.clone(),
            page(),
            DoraConfig {
                policy: DoraPolicy::DeadlineOnly,
                ..DoraConfig::default()
            },
        );
        assert_eq!(dl.name(), "DL");
        let f = dl.decide(&obs(2.0, 40.0));
        let d = dl.last_decision().expect("recorded").clone();
        assert_eq!(Some(f), d.point_deadline().map(|p| p.frequency));
        // DL never picks above DORA's fopt when fE >= fD... but it always
        // picks the *lowest* feasible, so it is <= the full policy's pick.
        let mut full = DoraGovernor::new(m, page(), DoraConfig::default());
        let f_full = full.decide(&obs(2.0, 40.0));
        assert!(f <= f_full);
    }

    #[test]
    fn ee_policy_ignores_the_deadline() {
        let m = physical_models();
        let mut ee = DoraGovernor::new(
            m.clone(),
            page(),
            DoraConfig {
                qos_target: Seconds::new(0.01), // impossible
                policy: DoraPolicy::EnergyOnly,
                ..DoraConfig::default()
            },
        );
        assert_eq!(ee.name(), "EE");
        let f = ee.decide(&obs(2.0, 40.0));
        // EE still picks its PPW optimum rather than falling back to fmax.
        let d = ee.last_decision().expect("recorded").clone();
        assert_eq!(f, d.point_energy().frequency);
        assert!(f < m.dvfs.max_frequency());
    }

    #[test]
    fn dl_falls_back_to_fmax_when_infeasible() {
        let m = physical_models();
        let mut dl = DoraGovernor::new(
            m.clone(),
            page(),
            DoraConfig {
                qos_target: Seconds::new(0.01),
                policy: DoraPolicy::DeadlineOnly,
                ..DoraConfig::default()
            },
        );
        assert_eq!(dl.decide(&obs(2.0, 40.0)), m.dvfs.max_frequency());
    }

    #[test]
    fn decision_interval_is_100ms_by_default() {
        let m = physical_models();
        let g = DoraGovernor::new(m, page(), DoraConfig::default());
        assert_eq!(g.decision_interval(), SimDuration::from_millis(100));
    }

    fn biglittle_governor(config: DoraConfig) -> DoraGovernor {
        let board = dora_soc::SocProfile::biglittle_a15a7().board_config();
        DoraGovernor::from_profile(&physical_models(), &board, page(), config)
    }

    #[test]
    fn single_cluster_governors_run_the_paper_algorithm_bitwise() {
        // Both one-cluster constructions, with the margins zeroed so the
        // decision is Algorithm 1's own, against the paper's loop written
        // out from the point predictions.
        let m = physical_models();
        let board = dora_soc::SocProfile::msm8974().board_config();
        let config = DoraConfig {
            qos_margin: 0.0,
            switch_margin: 0.0,
            ..DoraConfig::default()
        };
        let mut governors = [
            DoraGovernor::new(m.clone(), page(), config),
            DoraGovernor::from_profile(&m, &board, page(), config),
        ];
        for mpki in [0.5, 2.0, 8.0, 16.0, 40.0] {
            let o = obs(mpki, 42.0);
            for g in &mut governors {
                let point = g.decide_point(&o);
                let d = g.last_decision().expect("recorded");
                assert_eq!(point, d.chosen, "mpki={mpki}");
                assert_paper_algorithm_one(d, &m.dvfs, config.qos_target, |f| {
                    let inputs = PredictorInputs::for_frequency(
                        page(),
                        f,
                        &m.dvfs,
                        o.shared_l2_mpki,
                        o.corun_utilization,
                    );
                    (
                        m.predict_load_time(&inputs),
                        m.predict_total_power(&inputs, o.temperature, true),
                    )
                });
            }
        }
    }

    #[test]
    fn relaxed_deadline_migrates_to_the_little_cluster() {
        // Under a loose deadline the A7's far smaller effective
        // capacitance dominates its 1.6x CPI penalty, so the 2-D search
        // should leave the big cluster.
        let mut g = biglittle_governor(DoraConfig {
            qos_target: Seconds::new(10.0),
            ..DoraConfig::default()
        });
        let p = g.decide_point(&obs(1.0, 40.0));
        assert_eq!(p.cluster, ClusterId::new(1), "expected LITTLE, got {p}");
        let d = g.last_decision().expect("recorded");
        assert!(d.feasible);
    }

    #[test]
    fn tight_deadline_keeps_the_big_cluster() {
        // At a deadline near the big cluster's best case, the A7 (1.6x
        // slower plus migration latency) cannot be feasible.
        let mut g = biglittle_governor(DoraConfig {
            qos_target: Seconds::new(1.45),
            ..DoraConfig::default()
        });
        let p = g.decide_point(&obs(1.0, 40.0));
        assert_eq!(p.cluster, ClusterId::new(0), "expected big, got {p}");
    }

    #[test]
    fn decide_restricts_to_the_observed_cluster() {
        let mut g = biglittle_governor(DoraConfig {
            qos_target: Seconds::new(10.0),
            ..DoraConfig::default()
        });
        // The plain decide() entry point may not migrate: even though the
        // full search would pick the LITTLE cluster, the frequency must
        // come from the observed (big) cluster's table.
        let f = g.decide(&obs(1.0, 40.0));
        assert!(
            g.cluster_models()[0].models.dvfs.index_of(f).is_some(),
            "{f} not in the big cluster's table"
        );
        let d = g.last_decision().expect("recorded");
        assert!(d.curve.iter().all(|p| p.point.cluster == ClusterId::new(0)));
    }

    #[test]
    fn heterogeneous_curve_reaches_probes_with_cluster_identities() {
        let mut g = biglittle_governor(DoraConfig::default());
        let _ = g.decide_point(&obs(2.0, 40.0));
        let curve = g.decision_curve().expect("recorded");
        let d = g.last_decision().expect("recorded");
        assert_eq!(curve.len(), d.curve.len());
        assert!(curve.iter().any(|p| p.cluster == 0));
        assert!(curve.iter().any(|p| p.cluster == 1));
        for (traced, predicted) in curve.iter().zip(d.curve.iter()) {
            assert_eq!(traced.cluster, predicted.point.cluster.index());
            assert_eq!(traced.frequency_khz, predicted.point.frequency.as_khz());
            assert_eq!(traced.ppw, predicted.ppw);
        }
    }

    #[test]
    fn heterogeneous_policies_and_names_mirror_the_flat_governor() {
        let dl = biglittle_governor(DoraConfig {
            policy: DoraPolicy::DeadlineOnly,
            ..DoraConfig::default()
        });
        assert_eq!(dl.name(), "DL");
        let mut ee = biglittle_governor(DoraConfig {
            qos_target: Seconds::new(0.01), // impossible
            policy: DoraPolicy::EnergyOnly,
            ..DoraConfig::default()
        });
        assert_eq!(ee.name(), "EE");
        // EE ignores the deadline: it still picks the global PPW optimum.
        let p = ee.decide_point(&obs(2.0, 40.0));
        let d = ee.last_decision().expect("recorded").clone();
        assert_eq!(p, d.point_energy());
    }

    #[test]
    fn migration_hysteresis_resists_marginal_cross_cluster_wins() {
        // With a huge switch margin, any cross-cluster improvement is
        // "marginal", so the governor stays put on its current feasible
        // point rather than paying a migration.
        let mut g = biglittle_governor(DoraConfig {
            qos_target: Seconds::new(10.0),
            switch_margin: 0.5,
            ..DoraConfig::default()
        });
        let o = GovernorObservation {
            frequency: Frequency::from_mhz(1000.0),
            ..obs(1.0, 40.0)
        };
        let sticky = g.decide_point(&o);
        let mut eager = biglittle_governor(DoraConfig {
            qos_target: Seconds::new(10.0),
            switch_margin: 0.0,
            ..DoraConfig::default()
        });
        let moved = eager.decide_point(&o);
        assert_eq!(moved.cluster, ClusterId::new(1));
        assert!(
            sticky.cluster == ClusterId::new(0) || sticky == moved,
            "hysteresis may only keep the current cluster, got {sticky}"
        );
    }
}
