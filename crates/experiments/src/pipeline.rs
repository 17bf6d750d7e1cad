//! The shared train-once pipeline.
//!
//! Every DORA-family experiment needs the trained model bundle. This
//! module runs the paper's offline methodology end to end:
//!
//! 1. the training campaign — Webpage-Inclusive workloads × the DVFS
//!    table at pinned frequencies (Section IV-C's "over 300
//!    measurements"; the full grid is 42 × 14 = 588);
//! 2. the idle leakage calibration across operating points and ambient
//!    temperatures;
//! 3. the trainer — interaction surface for load time, linear for power,
//!    Levenberg–Marquardt for Eq. 5 (the paper's Section V-A picks).

use dora::trainer::{train, TrainerConfig, TrainingObservation};
use dora::DoraModels;
use dora_campaign::driver::CampaignDriver;
use dora_campaign::training::TrainingCampaignConfig;
use dora_campaign::workload::WorkloadSet;
use dora_campaign::{Executor, ScenarioConfig};
use dora_modeling::leakage::LeakageObservation;
use dora_soc::Frequency;

/// How much of the measurement grid to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full grid: all 42 training workloads × 14 frequencies.
    Full,
    /// A reduced grid for fast tests: every other training workload ×
    /// seven frequencies.
    Quick,
}

/// The trained pipeline artifacts shared by the experiments.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// The trained DORA model bundle.
    pub models: DoraModels,
    /// The raw training observations (for Fig. 5's error analysis).
    pub observations: Vec<TrainingObservation>,
    /// The leakage calibration points.
    pub leakage_observations: Vec<LeakageObservation>,
    /// The scenario configuration the campaign ran with (reuse it for
    /// evaluations so conditions match training).
    pub scenario: ScenarioConfig,
    /// The workload set.
    pub workloads: WorkloadSet,
    /// The executor the campaign ran on (reuse it for evaluations).
    pub executor: Executor,
}

impl Pipeline {
    /// Runs the campaign and trains the models at the given scale, on
    /// all available cores.
    ///
    /// Campaign fan-out is deterministic (see
    /// [`dora_campaign::executor`]), so the trained models are identical
    /// to a sequential build.
    ///
    /// # Panics
    ///
    /// Panics if training fails — with the built-in campaign grids the
    /// design is always identifiable, so a failure indicates a broken
    /// build rather than an environmental condition.
    pub fn build(scale: Scale, seed: u64) -> Self {
        Pipeline::build_with(scale, seed, &Executor::auto())
    }

    /// [`Pipeline::build`] on a caller-chosen executor (what the CLI's
    /// `--jobs` flag feeds).
    ///
    /// # Panics
    ///
    /// Panics if training fails, as for [`Pipeline::build`].
    #[expect(
        clippy::expect_used,
        reason = "the campaign grids are identifiable by construction"
    )]
    pub fn build_with(scale: Scale, seed: u64, executor: &Executor) -> Self {
        let scenario = ScenarioConfig::builder().seed(seed).build();
        let workloads = WorkloadSet::paper54();
        let (set_for_training, frequencies) = match scale {
            Scale::Full => (workloads.clone(), None),
            Scale::Quick => {
                let subset = WorkloadSet::from_workloads(
                    workloads
                        .workloads()
                        .iter()
                        .enumerate()
                        .filter(|(i, w)| w.is_training() && i % 2 == 0)
                        .map(|(_, w)| w.clone())
                        .collect(),
                );
                let freqs: Vec<Frequency> = scenario.board.dvfs.frequencies().step_by(2).collect();
                (subset, Some(freqs))
            }
        };
        let campaign_config = TrainingCampaignConfig {
            scenario: scenario.clone(),
            frequencies,
        };
        let driver = CampaignDriver::new().executor(*executor);
        let observations = driver.training_campaign(&set_for_training, &campaign_config);
        let leakage_observations = driver.leakage_calibration(
            &scenario.board,
            &[5.0, 15.0, 25.0, 35.0, 45.0].map(dora::units::Celsius::new),
        );
        let models = train(
            &observations,
            &leakage_observations,
            &scenario.board.dvfs,
            TrainerConfig::default(),
        )
        .expect("campaign grids are identifiable by construction");
        Pipeline {
            models,
            observations,
            leakage_observations,
            scenario,
            workloads,
            executor: *executor,
        }
    }

    /// The paper's full-scale pipeline with the default seed.
    pub fn full() -> Self {
        Pipeline::build(Scale::Full, 42)
    }

    /// The reduced pipeline for tests and smoke runs.
    pub fn quick() -> Self {
        Pipeline::build(Scale::Quick, 42)
    }
}
