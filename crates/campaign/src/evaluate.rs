//! Governor evaluation across the 54 workloads.
//!
//! Reproduces the comparison methodology of Section V: every workload is
//! loaded under every policy, PPW is normalized to the `interactive`
//! baseline per workload, and results are summarized over the
//! Webpage-Inclusive, Webpage-Neutral and combined sets (Fig. 7), per
//! workload (Fig. 8), and per page × intensity (Fig. 9).

use crate::executor::Executor;
use crate::runner::{
    oracle_from_sweep, run_scenario, sweep_frequencies_with, OracleFrequencies, RunResult,
    ScenarioConfig, SweepPoint,
};
use crate::workload::{Workload, WorkloadSet};
use dora::DoraModels;
use dora_sim_core::units::{Ppw, Seconds};
use dora_soc::Frequency;
use std::collections::BTreeMap;
use std::fmt;

pub use crate::policy::{Policy, PolicyName};

/// Evaluation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvaluateError {
    /// A requested policy needs trained models but none were provided.
    ModelsRequired(&'static str),
    /// A policy pinned to oracle frequencies was instantiated without the
    /// workload's oracle sweep.
    MissingOracle(&'static str),
}

impl fmt::Display for EvaluateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvaluateError::ModelsRequired(name) => {
                write!(f, "policy {name} requires trained DORA models")
            }
            EvaluateError::MissingOracle(name) => {
                write!(
                    f,
                    "policy {name} requires the workload's oracle frequency sweep"
                )
            }
        }
    }
}

impl std::error::Error for EvaluateError {}

/// Which workload subset a summary covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subset {
    /// All 54 workloads.
    All,
    /// The 42 Webpage-Inclusive (training-page) workloads.
    Inclusive,
    /// The 12 Webpage-Neutral (held-out) workloads.
    Neutral,
}

impl Subset {
    fn admits(self, r: &RunResult) -> bool {
        match self {
            Subset::All => true,
            Subset::Inclusive => r.training,
            Subset::Neutral => !r.training,
        }
    }
}

/// The complete evaluation output: every run result plus the oracle
/// frequencies that backed the pinned policies.
#[derive(Debug, Clone)]
pub struct Evaluation {
    results: Vec<RunResult>,
    oracles: BTreeMap<String, OracleFrequencies>,
}

/// The evaluation grid behind [`crate::driver::CampaignDriver::evaluate`].
///
/// Two flat fan-outs: first the oracle sweeps (one task per unique
/// workload × table frequency, computed only when an oracle policy is
/// requested), then the evaluation grid (one task per workload × policy).
/// Every task is an independent seeded simulation, so the returned
/// [`Evaluation`] is **bit-identical** to the sequential one — results in
/// workload-major, policy-minor order, exactly as the classic loop
/// produced them.
pub(crate) fn evaluate_impl(
    set: &WorkloadSet,
    policies: &[Policy],
    models: Option<&DoraModels>,
    config: &ScenarioConfig,
    executor: &Executor,
) -> Result<Evaluation, EvaluateError> {
    for p in policies {
        if p.needs_models() && models.is_none() {
            return Err(EvaluateError::ModelsRequired(p.name()));
        }
    }

    // Phase 1: oracle sweeps, one task per (unique workload, frequency).
    let need_oracle = policies.iter().any(|p| p.needs_oracle());
    let mut oracles: BTreeMap<String, OracleFrequencies> = BTreeMap::new();
    if need_oracle {
        // First occurrence wins, matching the sequential loop's
        // `entry(..).or_insert_with(..)` on duplicate workload ids.
        let mut unique: Vec<&Workload> = Vec::new();
        for workload in set.workloads() {
            if !unique.iter().any(|w| w.id() == workload.id()) {
                unique.push(workload);
            }
        }
        let freqs: Vec<Frequency> = config.board.dvfs.frequencies().collect();
        let tasks: Vec<(usize, Frequency)> = unique
            .iter()
            .enumerate()
            .flat_map(|(i, _)| freqs.iter().map(move |&f| (i, f)))
            .collect();
        let points: Vec<SweepPoint> = executor
            .map(&tasks, |&(i, f)| {
                sweep_frequencies_with(unique[i], config, &[f], &Executor::sequential())
            })
            .into_iter()
            .flatten()
            .collect();
        for (workload, sweep) in unique.iter().zip(points.chunks(freqs.len())) {
            oracles.insert(workload.id(), oracle_from_sweep(sweep.to_vec(), config));
        }
    }

    // Phase 2: the evaluation grid, one task per (workload, policy), in
    // the sequential loop's workload-major order.
    let grid: Vec<(&Workload, Policy)> = set
        .workloads()
        .iter()
        .flat_map(|w| policies.iter().map(move |&p| (w, p)))
        .collect();
    let results = executor.map(&grid, |&(workload, policy)| {
        let oracle_freqs = oracles.get(&workload.id());
        let mut governor = policy.governor(
            &config.board,
            config.deadline,
            workload.page.features,
            models,
            oracle_freqs,
        )?;
        Ok(run_scenario(workload, governor.as_mut(), config))
    });
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Evaluation { results, oracles })
}

impl Evaluation {
    /// All raw results.
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// The oracle frequencies per workload id (empty when no oracle
    /// policy was evaluated).
    pub fn oracles(&self) -> &BTreeMap<String, OracleFrequencies> {
        &self.oracles
    }

    /// Results of one governor, in workload order.
    pub fn results_for(&self, governor: &str) -> Vec<&RunResult> {
        self.results
            .iter()
            .filter(|r| r.governor == governor)
            .collect()
    }

    /// Per-workload PPW of `governor` normalized to `baseline`
    /// (workload id, ratio), in workload order. Workloads the baseline
    /// did not run are skipped.
    pub fn normalized_ppw(&self, governor: &str, baseline: &str) -> Vec<(String, f64)> {
        let base: BTreeMap<&str, Ppw> = self
            .results
            .iter()
            .filter(|r| r.governor == baseline)
            .map(|r| (r.workload_id.as_str(), r.ppw))
            .collect();
        self.results
            .iter()
            .filter(|r| r.governor == governor)
            .filter_map(|r| {
                base.get(r.workload_id.as_str())
                    .map(|&b| (r.workload_id.clone(), r.ppw / b))
            })
            .collect()
    }

    /// Mean normalized PPW of a governor over a subset — the bars of
    /// Fig. 7(a).
    pub fn mean_normalized_ppw(&self, governor: &str, baseline: &str, subset: Subset) -> f64 {
        let base: BTreeMap<&str, Ppw> = self
            .results
            .iter()
            .filter(|r| r.governor == baseline)
            .map(|r| (r.workload_id.as_str(), r.ppw))
            .collect();
        let ratios: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.governor == governor && subset.admits(r))
            .filter_map(|r| base.get(r.workload_id.as_str()).map(|&b| r.ppw / b))
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }

    /// Fraction of a governor's workloads that met the deadline.
    pub fn deadline_met_fraction(&self, governor: &str) -> f64 {
        let rows = self.results_for(governor);
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().filter(|r| r.met_deadline).count() as f64 / rows.len() as f64
    }

    /// The load times of a governor's runs, in workload order — the
    /// sample set behind the CDF of Fig. 7(b).
    pub fn load_time_samples(&self, governor: &str) -> Vec<Seconds> {
        self.results_for(governor)
            .iter()
            .map(|r| r.load_time)
            .collect()
    }

    /// Governors present in the results, in first-seen order.
    pub fn governors(&self) -> Vec<PolicyName> {
        let mut seen = Vec::new();
        for r in &self.results {
            if !seen.contains(&r.governor) {
                seen.push(r.governor.clone());
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CampaignDriver;
    use dora_coworkloads::Intensity;
    use dora_sim_core::stats::Samples;
    use dora_sim_core::SimDuration;

    fn evaluate(
        set: &WorkloadSet,
        policies: &[Policy],
        models: Option<&DoraModels>,
        config: &ScenarioConfig,
    ) -> Result<Evaluation, EvaluateError> {
        CampaignDriver::new().evaluate(set, policies, models, config)
    }

    fn small_set() -> WorkloadSet {
        let all = WorkloadSet::paper54();
        WorkloadSet::from_workloads(vec![
            all.find_by_class("Amazon", Intensity::Low)
                .expect("ok")
                .clone(),
            all.find_by_class("Alibaba", Intensity::High)
                .expect("ok")
                .clone(),
        ])
    }

    fn quick() -> ScenarioConfig {
        ScenarioConfig::builder()
            .warmup(SimDuration::from_secs(3))
            .build()
    }

    #[test]
    fn baseline_only_evaluation() {
        let eval = evaluate(
            &small_set(),
            &[Policy::Interactive, Policy::Performance],
            None,
            &quick(),
        )
        .expect("no models needed");
        assert_eq!(eval.results().len(), 4);
        assert_eq!(eval.governors(), vec!["interactive", "performance"]);
        // Normalizing the baseline to itself is identically 1.
        for (_, ratio) in eval.normalized_ppw("interactive", "interactive") {
            assert!((ratio - 1.0).abs() < 1e-12);
        }
        assert!(eval.oracles().is_empty());
    }

    #[test]
    fn oracle_policies_compute_and_beat_performance() {
        let eval = evaluate(
            &small_set(),
            &[Policy::Interactive, Policy::Performance, Policy::OfflineOpt],
            None,
            &quick(),
        )
        .expect("no models needed");
        assert_eq!(eval.oracles().len(), 2);
        // Offline-opt is the feasible PPW maximizer: it must beat (or tie)
        // the performance governor on PPW for each workload.
        let perf: BTreeMap<String, f64> = eval
            .results_for("performance")
            .iter()
            .map(|r| (r.workload_id.clone(), r.ppw.value()))
            .collect();
        for r in eval.results_for("offline_opt") {
            let p = perf[&r.workload_id];
            assert!(
                r.ppw.value() >= p * 0.98,
                "{}: offline_opt {:.4} vs performance {:.4}",
                r.workload_id,
                r.ppw.value(),
                p
            );
        }
    }

    #[test]
    fn models_required_error() {
        let err = evaluate(&small_set(), &[Policy::Dora], None, &quick()).unwrap_err();
        assert_eq!(err, EvaluateError::ModelsRequired("DORA"));
    }

    #[test]
    fn missing_oracle_is_an_error_not_a_panic() {
        let set = small_set();
        let config = quick();
        let err = Policy::OfflineOpt
            .governor(
                &config.board,
                config.deadline,
                set.workloads()[0].page.features,
                None,
                None,
            )
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, EvaluateError::MissingOracle("offline_opt"));
        assert!(err.to_string().contains("oracle frequency sweep"));
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_sequential() {
        use crate::executor::{Executor, Parallelism};
        let set = small_set();
        let policies = [Policy::Interactive, Policy::OfflineOpt];
        let sequential = evaluate(&set, &policies, None, &quick()).expect("runs");
        let parallel = CampaignDriver::new()
            .executor(Executor::new(Parallelism::Fixed(4)))
            .evaluate(&set, &policies, None, &quick())
            .expect("runs");
        assert_eq!(sequential.results(), parallel.results());
        assert_eq!(sequential.oracles(), parallel.oracles());
    }

    #[test]
    fn subset_filters_split_by_training_flag() {
        // Amazon is a training page; Alibaba is held out.
        let eval = evaluate(&small_set(), &[Policy::Interactive], None, &quick())
            .expect("no models needed");
        let inc = eval.mean_normalized_ppw("interactive", "interactive", Subset::Inclusive);
        let neu = eval.mean_normalized_ppw("interactive", "interactive", Subset::Neutral);
        assert!((inc - 1.0).abs() < 1e-12);
        assert!((neu - 1.0).abs() < 1e-12);
        let inc_rows: Vec<_> = eval
            .results()
            .iter()
            .filter(|r| Subset::Inclusive.admits(r))
            .collect();
        assert_eq!(inc_rows.len(), 1);
        assert_eq!(inc_rows[0].page, "Amazon");
    }

    #[test]
    fn load_time_samples_build_cdf() {
        let eval = evaluate(&small_set(), &[Policy::Performance], None, &quick())
            .expect("no models needed");
        let samples: Samples = eval
            .load_time_samples("performance")
            .iter()
            .map(|t| t.value())
            .collect();
        assert_eq!(samples.len(), 2);
        assert!(samples.cdf_at(60.0) == 1.0);
    }
}
