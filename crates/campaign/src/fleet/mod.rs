//! Fleet-scale simulation: millions of device sessions, streamed.
//!
//! Where [`crate::driver::CampaignDriver::evaluate`] answers "how do
//! these governors compare on the paper's 54 workloads", the fleet layer
//! answers the deployment question: across a *population* of devices —
//! mixed hardware tiers, ambient temperatures, battery states, page and
//! co-runner mixes — how much battery life does each governor buy?
//!
//! Three design rules keep that tractable at 10⁴–10⁶ sessions:
//!
//! 1. **Streaming aggregation.** No per-session results are kept. Each
//!    shard of sessions folds into mergeable sketches
//!    ([`report::GovernorSheet`]), so memory is O(shards), not
//!    O(sessions).
//! 2. **Warm once per archetype.** The thermal warm-up is driven by a
//!    pinned governor ([`WarmupPolicy::Pinned`]) with no co-runner, so
//!    the prefix is archetype-invariant: it is simulated once per
//!    [`DeviceArchetype`], snapshotted, and every session forks the
//!    snapshot before attaching its own sampled co-runner and page.
//! 3. **Fixed merge order.** Sessions are sampled independently by
//!    global index, grouped into shards by index, and shard reports are
//!    folded left-to-right in shard order. The executor reassembles
//!    results in input order, so the merged report — including every
//!    floating-point sum — is byte-identical at any `--jobs` width.
//!
//! The layer is deliberately consumable by future online-learning
//! telemetry: sheets are plain mergeable sketches, and
//! [`report::FleetReport::digest`] gives a cheap fingerprint for
//! cross-run comparison.

pub mod archetype;
pub mod report;
pub mod sampler;

pub use archetype::{DeviceArchetype, DeviceClass};
pub use report::{FleetReport, GovernorSheet};
pub use sampler::{SessionSampler, SessionSpec};

use crate::evaluate::EvaluateError;
use crate::executor::Executor;
use crate::policy::Policy;
use crate::runner::{
    measured_load, oracle_grid, warmed_board, OracleFrequencies, ScenarioConfig, WarmupPolicy,
    CORUN_CORE,
};
use crate::workload::Workload;
use dora::DoraModels;
use dora_governors::PinnedGovernor;
use dora_sim_core::sketch::SketchError;
use dora_sim_core::units::Seconds;
use dora_sim_core::SimDuration;
use dora_soc::board::Board;
use dora_soc::Frequency;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Device sessions to simulate.
    pub sessions: u64,
    /// Fleet seed: fixes the sampled population and every session's
    /// jitter.
    pub seed: u64,
    /// Sessions per shard (the unit of work distribution and of
    /// aggregation memory).
    pub shard_size: u64,
    /// Governors to compare; the first is the baseline deltas are quoted
    /// against.
    pub policies: Vec<Policy>,
    /// The device population.
    pub archetypes: Vec<DeviceArchetype>,
    /// QoS deadline for the met/missed verdict.
    pub deadline: Seconds,
    /// Thermal warm-up simulated once per archetype.
    pub warmup: SimDuration,
    /// The pinned frequency driving that warm-up.
    pub warmup_pin: Frequency,
    /// Per-session load timeout.
    pub timeout: SimDuration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            sessions: 1000,
            seed: 42,
            shard_size: 256,
            policies: vec![Policy::Interactive, Policy::Performance],
            archetypes: DeviceArchetype::default_population(),
            deadline: Seconds::new(3.0),
            warmup: SimDuration::from_secs(20),
            warmup_pin: Frequency::from_mhz(1190.4),
            timeout: SimDuration::from_secs(60),
        }
    }
}

/// Fleet-run failures.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A DORA-family policy was requested without trained models.
    ModelsRequired(&'static str),
    /// The policy list was empty.
    NoPolicies,
    /// A warmed-archetype snapshot failed to restore onto a session
    /// board (structural mismatch).
    Snapshot(String),
    /// A session board rejected the sampled co-runner assignment.
    Assign(String),
    /// Sketch shapes diverged during the shard merge.
    Sketch(SketchError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::ModelsRequired(name) => {
                write!(f, "policy {name} requires trained DORA models")
            }
            FleetError::NoPolicies => write!(f, "fleet needs at least one policy"),
            FleetError::Snapshot(e) => write!(f, "archetype snapshot fork failed: {e}"),
            FleetError::Assign(e) => write!(f, "co-runner assignment failed: {e}"),
            FleetError::Sketch(e) => write!(f, "shard merge failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<SketchError> for FleetError {
    fn from(e: SketchError) -> FleetError {
        FleetError::Sketch(e)
    }
}

impl From<EvaluateError> for FleetError {
    fn from(e: EvaluateError) -> FleetError {
        match e {
            EvaluateError::ModelsRequired(name) | EvaluateError::MissingOracle(name) => {
                FleetError::ModelsRequired(name)
            }
        }
    }
}

/// The base scenario of one archetype (fleet seed; per-session runs
/// derive from it with the session's own seed) and the frequency pinned
/// for its warm-up. The pin is snapped to the archetype's own
/// primary-cluster table, so one fleet config can span SoC profiles whose
/// OPP grids differ (the default 1190.4 MHz pin is already on the MSM8974
/// grid, so the snap is a no-op there).
fn archetype_scenario(
    config: &FleetConfig,
    archetype: &DeviceArchetype,
) -> (ScenarioConfig, Frequency) {
    let pin = archetype.board.dvfs.nearest(config.warmup_pin);
    let scenario = ScenarioConfig::builder()
        .seed(config.seed)
        .board(archetype.board.clone())
        .deadline(config.deadline)
        .warmup(config.warmup)
        .warmup_policy(WarmupPolicy::Pinned(pin))
        .timeout(config.timeout)
        .build();
    (scenario, pin)
}

/// The oracle table: `fopt`/`fd`/`fe` per (archetype index, workload id),
/// computed at the fleet seed. Sessions jitter around that seed, so the
/// table plays the role it would in deployment — an offline lookup, not a
/// per-session re-enumeration. Each archetype's sweeps run as one
/// [`crate::runner::pinned_grid`] under its pinned warm-up, so the
/// warm-up is simulated once per (archetype, kernel), not per workload.
/// Sweeps are dropped after the verdicts are extracted to keep the table
/// O(combinations).
fn oracle_table(
    config: &FleetConfig,
    sampler: &SessionSampler,
    scenarios: &[ScenarioConfig],
    executor: &Executor,
) -> Vec<BTreeMap<String, OracleFrequencies>> {
    // Distinct workloads actually sampled per archetype. The scan is
    // O(sessions) time but O(combinations) memory, and stops early once
    // the pool is saturated.
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    let mut sampled: Vec<Vec<Workload>> = vec![Vec::new(); sampler.archetypes().len()];
    let saturated = sampler.archetypes().len() * sampler.workload_pool().len();
    for index in 0..config.sessions {
        let spec = sampler.sample(config.seed, index);
        if seen.insert((spec.archetype, spec.workload.id())) {
            sampled[spec.archetype].push(spec.workload);
        }
        if seen.len() == saturated {
            break;
        }
    }
    scenarios
        .iter()
        .zip(&sampled)
        .map(|(scenario, workloads)| {
            let workloads: Vec<&Workload> = workloads.iter().collect();
            let verdicts = oracle_grid(&workloads, scenario, executor);
            workloads
                .iter()
                .zip(verdicts)
                .map(|(workload, mut verdict)| {
                    verdict.sweep.clear();
                    (workload.id(), verdict)
                })
                .collect()
        })
        .collect()
}

/// Runs the fleet. Called through
/// [`crate::driver::CampaignDriver::fleet`], which owns the executor.
pub(crate) fn run_fleet(
    config: &FleetConfig,
    models: Option<&DoraModels>,
    executor: &Executor,
) -> Result<FleetReport, FleetError> {
    if config.policies.is_empty() {
        return Err(FleetError::NoPolicies);
    }
    for policy in &config.policies {
        if policy.needs_models() && models.is_none() {
            return Err(FleetError::ModelsRequired(policy.name()));
        }
    }
    let sampler = SessionSampler::new(config.archetypes.clone());
    let warmups: Vec<(ScenarioConfig, Frequency)> = sampler
        .archetypes()
        .iter()
        .map(|a| archetype_scenario(config, a))
        .collect();

    // Phase 1 — one warm board per archetype, snapshotted. No co-runner
    // participates, so the prefix is shared by every session of the
    // archetype regardless of its sampled kernel.
    let snapshots: Vec<dora_soc::BoardSnapshot> = executor.map(&warmups, |(scenario, pin)| {
        let mut pin = PinnedGovernor::new("warmup-pin", *pin);
        warmed_board(None, &mut pin, scenario).snapshot()
    });
    let scenarios: Vec<ScenarioConfig> = warmups.into_iter().map(|(s, _)| s).collect();

    // Phase 2 — the offline oracle table, only when a pinned-oracle
    // policy is in the comparison.
    let oracles = if config.policies.iter().any(|p| p.needs_oracle()) {
        oracle_table(config, &sampler, &scenarios, executor)
    } else {
        vec![BTreeMap::new(); sampler.archetypes().len()]
    };

    // Phase 3 — shards. Each shard streams its sessions into a local
    // report; the executor returns shard reports in shard-index order.
    let governor_names: Vec<&str> = config.policies.iter().map(|p| p.name()).collect();
    let shard_size = config.shard_size.max(1);
    let shards: Vec<(u64, u64)> = (0..config.sessions)
        .step_by(usize::try_from(shard_size).unwrap_or(usize::MAX))
        .map(|start| (start, (start + shard_size).min(config.sessions)))
        .collect();
    let shard_reports = executor.map(
        &shards,
        |&(start, end)| -> Result<FleetReport, FleetError> {
            let mut report = FleetReport::empty(config.seed, &governor_names);
            report.shards = 1;
            for index in start..end {
                let spec = sampler.sample(config.seed, index);
                let archetype = &sampler.archetypes()[spec.archetype];
                let scenario = scenarios[spec.archetype]
                    .to_builder()
                    .seed(spec.seed)
                    .build();
                let oracle = oracles[spec.archetype].get(&spec.workload.id());
                let battery = archetype.battery.at_charge(spec.charge);
                for (sheet, policy) in report.sheets_mut().iter_mut().zip(&config.policies) {
                    let mut governor = policy.governor(
                        &archetype.board,
                        config.deadline,
                        spec.workload.page.features,
                        models,
                        oracle,
                    )?;
                    let mut board = Board::new(archetype.board.clone(), config.seed);
                    board
                        .restore(&snapshots[spec.archetype])
                        .map_err(|e| FleetError::Snapshot(e.to_string()))?;
                    board
                        .assign(CORUN_CORE, Box::new(spec.workload.kernel.spawn(spec.seed)))
                        .map_err(|e| FleetError::Assign(e.to_string()))?;
                    let result = measured_load(
                        &mut board,
                        &spec.workload.page,
                        Some(&spec.workload.kernel),
                        governor.as_mut(),
                        &scenario,
                    );
                    sheet.record(&result, battery);
                }
                report.sessions += 1;
            }
            Ok(report)
        },
    );
    let shard_reports = shard_reports.into_iter().collect::<Result<Vec<_>, _>>()?;

    // Phase 4 — the deterministic left fold, in shard-index order.
    let mut merged = FleetReport::empty(config.seed, &governor_names);
    for shard in &shard_reports {
        merged.merge(shard)?;
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CampaignDriver;
    use crate::executor::Parallelism;

    fn tiny_config() -> FleetConfig {
        FleetConfig {
            sessions: 12,
            shard_size: 5,
            warmup: SimDuration::from_secs(2),
            archetypes: vec![
                DeviceArchetype::new(
                    DeviceClass::Mainstream,
                    dora_sim_core::units::Celsius::new(25.0),
                    0.7,
                ),
                DeviceArchetype::new(
                    DeviceClass::Budget,
                    dora_sim_core::units::Celsius::new(35.0),
                    0.3,
                ),
            ],
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_streams_and_reports_per_governor() {
        let report = CampaignDriver::new()
            .fleet(&tiny_config(), None)
            .expect("baseline policies need no models");
        assert_eq!(report.sessions, 12);
        assert_eq!(report.shards, 3, "ceil(12 / 5)");
        let interactive = report.sheet("interactive").expect("baseline present");
        assert_eq!(interactive.sessions, 12);
        assert!(interactive.mean_battery_hours() > 0.0);
        let perf = report.sheet("performance").expect("present");
        assert_eq!(perf.sessions, 12);
        let delta = report
            .battery_delta_hours("performance", "interactive")
            .expect("both ran");
        assert_eq!(
            delta,
            perf.mean_battery_hours() - interactive.mean_battery_hours()
        );
    }

    #[test]
    fn fleet_is_bit_identical_across_widths() {
        let config = tiny_config();
        let sequential = CampaignDriver::new().fleet(&config, None).expect("runs");
        let parallel = CampaignDriver::new()
            .executor(Executor::new(Parallelism::Fixed(4)))
            .fleet(&config, None)
            .expect("runs");
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.digest(), parallel.digest());
    }

    #[test]
    fn shard_size_does_not_change_sessions_only_grouping() {
        let mut a = tiny_config();
        a.shard_size = 3;
        let mut b = tiny_config();
        b.shard_size = 12;
        let ra = CampaignDriver::new().fleet(&a, None).expect("runs");
        let rb = CampaignDriver::new().fleet(&b, None).expect("runs");
        // Shard layout is part of the merge-order contract, so float
        // partial sums may differ in the last ULP between layouts — only
        // the fixed layout is byte-stable. Everything discrete must
        // match exactly, and the sums to near machine precision.
        for (sa, sb) in ra.sheets().iter().zip(rb.sheets()) {
            assert_eq!(sa.governor, sb.governor);
            assert_eq!(sa.sessions, sb.sessions);
            assert_eq!(sa.deadline_met, sb.deadline_met);
            assert_eq!(sa.switches, sb.switches);
            assert_eq!(sa.load_time.bin_counts(), sb.load_time.bin_counts());
            assert_eq!(sa.ppw.bin_counts(), sb.ppw.bin_counts());
            let rel =
                (sa.mean_battery_hours() - sb.mean_battery_hours()).abs() / sa.mean_battery_hours();
            assert!(rel < 1e-12, "battery sums drifted: {rel}");
        }
    }

    #[test]
    fn oracle_policy_runs_from_the_precomputed_table() {
        let mut config = tiny_config();
        config.sessions = 4;
        config.policies = vec![Policy::Interactive, Policy::OfflineOpt];
        let report = CampaignDriver::new().fleet(&config, None).expect("runs");
        let oracle = report.sheet("offline_opt").expect("present");
        assert_eq!(oracle.sessions, 4);
        // The offline oracle maximizes feasible PPW; its mean PPW must
        // at least match the interactive baseline's.
        let interactive = report.sheet("interactive").expect("present");
        assert!(oracle.ppw.mean() >= interactive.ppw.mean() * 0.98);
    }

    #[test]
    fn oracle_table_matches_per_workload_rerun_sweeps() {
        use crate::runner::{oracle_from_sweep, sweep_frequencies_rerun_with};
        let mut config = tiny_config();
        config.sessions = 6;
        let sampler = SessionSampler::new(config.archetypes.clone());
        let scenarios: Vec<ScenarioConfig> = sampler
            .archetypes()
            .iter()
            .map(|a| archetype_scenario(&config, a).0)
            .collect();
        let executor = Executor::new(Parallelism::Fixed(3));
        let table = oracle_table(&config, &sampler, &scenarios, &executor);
        for index in 0..config.sessions {
            let spec = sampler.sample(config.seed, index);
            let scenario = &scenarios[spec.archetype];
            let freqs: Vec<Frequency> = scenario.board.dvfs.frequencies().collect();
            let sweep = sweep_frequencies_rerun_with(
                &spec.workload,
                scenario,
                &freqs,
                &Executor::sequential(),
            );
            let mut expected = oracle_from_sweep(sweep, scenario);
            expected.sweep.clear();
            assert_eq!(
                table[spec.archetype].get(&spec.workload.id()),
                Some(&expected),
                "session {index}"
            );
        }
    }

    #[test]
    fn models_are_validated_up_front() {
        let mut config = tiny_config();
        config.policies = vec![Policy::Dora];
        let err = CampaignDriver::new().fleet(&config, None).unwrap_err();
        assert_eq!(err, FleetError::ModelsRequired("DORA"));
        assert!(err.to_string().contains("DORA"));
    }

    #[test]
    fn empty_policy_list_is_rejected() {
        let mut config = tiny_config();
        config.policies.clear();
        assert_eq!(
            CampaignDriver::new().fleet(&config, None).unwrap_err(),
            FleetError::NoPolicies
        );
    }
}
