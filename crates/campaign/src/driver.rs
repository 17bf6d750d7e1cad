//! The campaign driver: the execution context every campaign grid runs
//! through.
//!
//! A [`CampaignDriver`] owns the [`Executor`] that fans a grid out
//! across worker threads; every campaign operation is a method on it.
//! Results are bit-identical at any executor width. Single runs that
//! need a probe go through [`crate::runner::run_page_observed`].
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
use crate::runner::{oracle_impl, run_scenario, OracleFrequencies, RunResult, ScenarioConfig};
use crate::training::{leakage_calibration_impl, training_campaign_impl, TrainingCampaignConfig};
use crate::workload::{Workload, WorkloadSet};
use dora::trainer::TrainingObservation;
use dora::DoraModels;
use dora_governors::Governor;
use dora_modeling::leakage::LeakageObservation;
use dora_sim_core::units::Celsius;
use dora_soc::board::BoardConfig;

/// Execution context for campaign operations: the executor grids fan out
/// across. Construct with [`CampaignDriver::new`] and set the executor
/// with [`CampaignDriver::executor`].
#[derive(Debug)]
pub struct CampaignDriver {
    executor: Executor,
}

impl Default for CampaignDriver {
    fn default() -> Self {
        CampaignDriver::new()
    }
}

impl CampaignDriver {
    /// A sequential driver.
    pub fn new() -> CampaignDriver {
        CampaignDriver {
            executor: Executor::sequential(),
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
        evaluate_impl(set, policies, models, config, &self.executor)
    }

    /// Exhaustively determines `fD`, `fE` and `fopt` for a workload by
    /// sweeping every table frequency.
    pub fn oracle(&self, workload: &Workload, config: &ScenarioConfig) -> OracleFrequencies {
        oracle_impl(workload, config, &self.executor)
    }

    /// The offline training sweep over the Webpage-Inclusive workloads.
    pub fn training_campaign(
        &self,
        set: &WorkloadSet,
        config: &TrainingCampaignConfig,
    ) -> Vec<TrainingObservation> {
        training_campaign_impl(set, config, &self.executor)
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
    /// # Errors
    ///
    /// [`FleetError::ModelsRequired`] for a DORA-family policy without
    /// models, and [`FleetError::NoPolicies`] for an empty comparison.
    pub fn fleet(
        &self,
        config: &FleetConfig,
        models: Option<&DoraModels>,
    ) -> Result<FleetReport, FleetError> {
        fleet::run_fleet(config, models, &self.executor)
    }

    /// Runs one workload under one governor: [`run_scenario`].
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
        run_scenario(workload, governor, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Parallelism;
    use dora_coworkloads::Intensity;
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
}
