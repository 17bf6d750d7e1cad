//! The campaign driver: execution context for every campaign entry point.
//!
//! Historically each campaign function came in a pair — `evaluate` /
//! `evaluate_with(.., &Executor)`, `oracle` / `oracle_with`, and so on —
//! and probe attachment and warm-up policy were threaded separately
//! through [`ScenarioConfig`] and `*_observed` variants. Fleet-scale
//! work multiplies entry points, so the pairs collapse into one context
//! object: a [`CampaignDriver`] owns the executor (how wide to fan out),
//! an optional warm-up policy override (how boards are warmed), and an
//! optional probe (who watches single runs), and every campaign
//! operation is a method on it.
//!
//! # Example
//!
//! ```no_run
//! use dora_campaign::driver::CampaignDriver;
//! use dora_campaign::executor::{Executor, Parallelism};
//! use dora_campaign::policy::Policy;
//! use dora_campaign::runner::ScenarioConfig;
//! use dora_campaign::workload::WorkloadSet;
//!
//! let driver = CampaignDriver::new().executor(Executor::new(Parallelism::Auto));
//! let eval = driver
//!     .evaluate(
//!         &WorkloadSet::paper54(),
//!         &[Policy::Interactive, Policy::Performance],
//!         None,
//!         &ScenarioConfig::default(),
//!     )
//!     .expect("no models needed");
//! println!("{} runs", eval.results().len());
//! ```

use crate::evaluate::{evaluate_impl, EvaluateError, Evaluation};
use crate::executor::Executor;
use crate::fleet::{self, FleetConfig, FleetError, FleetReport};
use crate::policy::Policy;
use crate::runner::{
    oracle_impl, run_scenario, run_scenario_observed, sweep_frequencies_with, OracleFrequencies,
    RunResult, ScenarioConfig, SweepPoint, WarmupPolicy,
};
use crate::training::{leakage_calibration_impl, training_campaign_impl, TrainingCampaignConfig};
use crate::workload::{Workload, WorkloadSet};
use dora::trainer::TrainingObservation;
use dora::DoraModels;
use dora_governors::Governor;
use dora_modeling::leakage::LeakageObservation;
use dora_sim_core::probe::Probe;
use dora_sim_core::units::Celsius;
use dora_soc::board::BoardConfig;
use dora_soc::Frequency;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Execution context for campaign operations: executor, warm-up policy
/// and probe in one object. Construct with [`CampaignDriver::new`] and
/// chain the builder-style setters.
pub struct CampaignDriver {
    executor: Executor,
    warmup: Option<WarmupPolicy>,
    probe: Option<Rc<RefCell<dyn Probe>>>,
}

impl fmt::Debug for CampaignDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignDriver")
            .field("jobs", &self.executor.jobs())
            .field("warmup", &self.warmup)
            .field("probe", &self.probe.is_some())
            .finish()
    }
}

impl Default for CampaignDriver {
    fn default() -> Self {
        CampaignDriver::new()
    }
}

impl CampaignDriver {
    /// A sequential driver with no warm-up override and no probe — the
    /// behaviour of the old plain (non-`_with`) entry points.
    pub fn new() -> CampaignDriver {
        CampaignDriver {
            executor: Executor::sequential(),
            warmup: None,
            probe: None,
        }
    }

    /// Sets the executor campaign grids fan out across. The output of
    /// every method is bit-identical at any width, so this is purely a
    /// wall-clock knob.
    #[must_use]
    pub fn executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Overrides the warm-up policy of every [`ScenarioConfig`] passed to
    /// this driver (e.g. [`WarmupPolicy::Pinned`] to enable
    /// fork-at-warmup sweeps without editing each config).
    #[must_use]
    pub fn warmup_policy(mut self, policy: WarmupPolicy) -> Self {
        self.warmup = Some(policy);
        self
    }

    /// Attaches a probe to single-run methods ([`CampaignDriver::run`]).
    /// Grid methods ignore it: probes are not `Send`, and observing one
    /// run of a parallel grid is meaningless.
    #[must_use]
    pub fn probe(mut self, probe: Rc<RefCell<dyn Probe>>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// The configured fan-out width.
    pub fn jobs(&self) -> usize {
        self.executor.jobs()
    }

    /// A copy of `config` with the driver's warm-up override applied.
    fn scenario(&self, config: &ScenarioConfig) -> ScenarioConfig {
        match self.warmup {
            Some(policy) => config.to_builder().warmup_policy(policy).build(),
            None => config.clone(),
        }
    }

    /// Runs every workload under every policy (the Section V comparison
    /// grid).
    ///
    /// # Errors
    ///
    /// [`EvaluateError::ModelsRequired`] when a DORA-family policy is
    /// requested without trained models.
    pub fn evaluate(
        &self,
        set: &WorkloadSet,
        policies: &[Policy],
        models: Option<&DoraModels>,
        config: &ScenarioConfig,
    ) -> Result<Evaluation, EvaluateError> {
        evaluate_impl(
            set,
            policies,
            models,
            &self.scenario(config),
            &self.executor,
        )
    }

    /// Exhaustively determines `fD`, `fE` and `fopt` for a workload by
    /// sweeping every table frequency.
    pub fn oracle(&self, workload: &Workload, config: &ScenarioConfig) -> OracleFrequencies {
        oracle_impl(workload, &self.scenario(config), &self.executor)
    }

    /// Measures a workload at each pinned frequency, with fork-at-warmup
    /// when the (possibly overridden) warm-up policy is pinned.
    pub fn sweep_frequencies(
        &self,
        workload: &Workload,
        config: &ScenarioConfig,
        frequencies: &[Frequency],
    ) -> Vec<SweepPoint> {
        sweep_frequencies_with(
            workload,
            &self.scenario(config),
            frequencies,
            &self.executor,
        )
    }

    /// The offline training sweep over the Webpage-Inclusive workloads.
    pub fn training_campaign(
        &self,
        set: &WorkloadSet,
        config: &TrainingCampaignConfig,
    ) -> Vec<TrainingObservation> {
        let config = TrainingCampaignConfig {
            scenario: self.scenario(&config.scenario),
            frequencies: config.frequencies.clone(),
        };
        training_campaign_impl(set, &config, &self.executor)
    }

    /// Idle thermal-soak leakage measurements across operating points and
    /// ambients.
    pub fn leakage_calibration(
        &self,
        base: &BoardConfig,
        ambients: &[Celsius],
    ) -> Vec<LeakageObservation> {
        leakage_calibration_impl(base, ambients, &self.executor)
    }

    /// Streams a fleet of sampled device sessions through the driver's
    /// executor and folds them into mergeable per-governor sketches (see
    /// [`crate::fleet`]). Memory is O(shards); the report is
    /// byte-identical at any executor width.
    ///
    /// Fleet warm-up is always pinned — that is what makes the
    /// warm-once/fork-per-session scheme sound — so a
    /// [`WarmupPolicy::Pinned`] driver override replaces
    /// [`FleetConfig::warmup_pin`], while a [`WarmupPolicy::Measured`]
    /// override is rejected. Probes are ignored, as for other grid
    /// methods.
    ///
    /// # Errors
    ///
    /// [`FleetError::ModelsRequired`] for a DORA-family policy without
    /// models, [`FleetError::NoPolicies`] for an empty comparison, and
    /// [`FleetError::MeasuredWarmup`] for a measured warm-up override.
    pub fn fleet(
        &self,
        config: &FleetConfig,
        models: Option<&DoraModels>,
    ) -> Result<FleetReport, FleetError> {
        let mut config = config.clone();
        match self.warmup {
            Some(WarmupPolicy::Pinned(f)) => config.warmup_pin = f,
            Some(WarmupPolicy::Measured) => return Err(FleetError::MeasuredWarmup),
            None => {}
        }
        fleet::run_fleet(&config, models, &self.executor)
    }

    /// Runs one workload under one governor. When a probe is attached it
    /// observes the measured window, exactly as `run_scenario_observed`
    /// did.
    ///
    /// # Panics
    ///
    /// Panics if the governor returns a frequency outside the board's
    /// DVFS table (a policy bug, not an environmental condition).
    pub fn run(
        &self,
        workload: &Workload,
        governor: &mut dyn Governor,
        config: &ScenarioConfig,
    ) -> RunResult {
        let config = self.scenario(config);
        match &self.probe {
            Some(probe) => run_scenario_observed(workload, governor, &config, probe.clone()),
            None => run_scenario(workload, governor, &config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Parallelism;
    use dora_coworkloads::Intensity;
    use dora_sim_core::probe::{ProbeEvent, ProbeRing};
    use dora_sim_core::SimDuration;

    fn small_set() -> WorkloadSet {
        let all = WorkloadSet::paper54();
        WorkloadSet::from_workloads(vec![all
            .find_by_class("Amazon", Intensity::Low)
            .expect("present")
            .clone()])
    }

    fn quick() -> ScenarioConfig {
        ScenarioConfig::builder()
            .warmup(SimDuration::from_secs(2))
            .build()
    }

    #[test]
    fn driver_matches_across_widths() {
        let set = small_set();
        let policies = [Policy::Interactive, Policy::Performance];
        let sequential = CampaignDriver::new()
            .evaluate(&set, &policies, None, &quick())
            .expect("runs");
        let parallel = CampaignDriver::new()
            .executor(Executor::new(Parallelism::Fixed(4)))
            .evaluate(&set, &policies, None, &quick())
            .expect("runs");
        assert_eq!(sequential.results(), parallel.results());
    }

    #[test]
    fn warmup_override_applies_to_configs() {
        let set = small_set();
        let w = &set.workloads()[0];
        let pinned = WarmupPolicy::Pinned(Frequency::from_mhz(1190.4));
        let driver = CampaignDriver::new().warmup_policy(pinned);
        // Oracle through the driver (override) must equal oracle on a
        // config that sets the policy explicitly.
        let via_driver = driver.oracle(w, &quick());
        let explicit =
            CampaignDriver::new().oracle(w, &quick().to_builder().warmup_policy(pinned).build());
        assert_eq!(via_driver.fd, explicit.fd);
        assert_eq!(via_driver.fe, explicit.fe);
        assert_eq!(via_driver.fopt, explicit.fopt);
        assert_eq!(via_driver.sweep, explicit.sweep);
    }

    #[test]
    fn probe_observes_single_runs() {
        let set = small_set();
        let w = &set.workloads()[0];
        let ring = ProbeRing::shared(1 << 16);
        let driver = CampaignDriver::new().probe(ring.clone());
        let mut g = dora_governors::InteractiveGovernor::new(dora_soc::DvfsTable::default());
        let r = driver.run(w, &mut g, &quick());
        let switches = ring
            .borrow()
            .to_vec()
            .iter()
            .filter(|e| matches!(e.event, ProbeEvent::DvfsSwitch { .. }))
            .count() as u64;
        assert_eq!(switches, r.switches);
    }

    #[test]
    fn debug_shows_context() {
        let d = CampaignDriver::new().executor(Executor::new(Parallelism::Fixed(3)));
        let s = format!("{d:?}");
        assert!(s.contains("jobs: 3"), "{s}");
        assert!(s.contains("probe: false"), "{s}");
    }
}
