//! The bench-side session driver behind every traced run.
//!
//! The campaign layer's runner (`warmed_board`, `govern_until`,
//! `measured_load`) and the fleet's shard fold are crate-private, so a
//! traced run cannot put spans inside them. This module re-drives the same
//! loop from public calls only — `Board::{new, step, snapshot, restore}`,
//! `CounterSet::delta`, `Governor::decide_point`, `RenderEngine::spawn`,
//! `Kernel::spawn`, `SessionSampler::sample`, `GovernorSheet::{record,
//! merge}` — with a span around each call.
//!
//! A mirror can drift from the code it mirrors, so every traced run checks
//! its outputs against the library's own for the same inputs (fleet
//! sheets, run results, recorded decisions, training and leakage
//! observations) and fails when they differ by a single bit.

use crate::trace::{Kind, Tracer};
use dora::{DoraConfig, DoraGovernor, DoraModels, HeterogeneousDoraGovernor};
use dora_browser::catalog::CatalogPage;
use dora_browser::RenderEngine;
use dora_campaign::fleet::{DeviceArchetype, FleetConfig, GovernorSheet, SessionSampler};
use dora_campaign::policy::{Policy, PolicyName};
use dora_campaign::runner::{
    RunResult, ScenarioConfig, WarmupPolicy, BROWSER_AUX_CORE, BROWSER_MAIN_CORE, CORUN_CORE,
};
use dora_campaign::workload::Workload;
use dora_coworkloads::Kernel;
use dora_governors::{
    Governor, GovernorObservation, InteractiveGovernor, PerformanceGovernor, PinnedGovernor,
    PowersaveGovernor,
};
use dora_sim_core::units::{Ppw, Seconds};
use dora_sim_core::SimTime;
use dora_soc::counters::{CoreCounters, CounterSet};
use dora_soc::task::LoopTask;
use dora_soc::{Board, BoardSnapshot, Frequency, OperatingPoint, PhaseProfile};

/// What a traced run observed besides span timings: simulated time split
/// and the Algorithm-1 curves of model-based governors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Simulated seconds of thermal warm-up.
    pub warmup_sim_s: f64,
    /// Simulated seconds of measured loads.
    pub load_sim_s: f64,
    /// Simulated seconds of idle soaks.
    pub soak_sim_s: f64,
    /// Algorithm-1 evaluations whose curve was inspected.
    pub selections: u64,
    /// Candidate operating points those evaluations scored.
    pub candidates: u64,
    /// Candidates predicted to meet the deadline.
    pub feasible_candidates: u64,
    /// Evaluations with no feasible candidate.
    pub infeasible: u64,
}

impl Tally {
    /// Folds one Algorithm-1 curve in.
    pub fn record_curve(&mut self, feasible: impl Iterator<Item = bool>) {
        let mut any = false;
        self.selections += 1;
        for f in feasible {
            self.candidates += 1;
            if f {
                self.feasible_candidates += 1;
                any = true;
            }
        }
        self.infeasible += u64::from(!any);
    }
}

/// The benchmark's traced-run state: the span recorder plus the tally.
#[derive(Debug)]
pub struct Driver {
    /// Span recorder (disabled for the tracing-overhead baseline).
    pub tracer: Tracer,
    /// Non-timing observations.
    pub tally: Tally,
    /// When set, every governor decision is appended as
    /// `(observation, decision)`, outside the decision's span.
    pub record: Option<Vec<(GovernorObservation, OperatingPoint)>>,
}

impl Driver {
    /// A driver recording spans when `traced`.
    pub fn new(traced: bool) -> Driver {
        Driver {
            tracer: if traced {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            },
            tally: Tally::default(),
            record: None,
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Which span a governor's decisions belong to: model-based (DORA family)
/// governors are `core.governor`, everything else `governors`.
fn decide_kind(governor: &dyn Governor) -> Kind {
    match Policy::from_name(governor.name()) {
        Some(p) if p.needs_models() => Kind::DoraDecide,
        _ => Kind::GovernorsDecide,
    }
}

/// The browsing-shaped endless task pair the runner warms boards with.
fn warmup_tasks() -> (LoopTask, LoopTask) {
    let main = LoopTask::new(
        "warmup-browse",
        PhaseProfile {
            base_cpi: 1.25,
            l2_apki: 14.0,
            working_set_bytes: 1.2 * 1024.0 * 1024.0,
            reuse_fraction: 0.80,
            duty_cycle: 0.85,
        },
    );
    let aux = LoopTask::new(
        "warmup-aux",
        PhaseProfile {
            base_cpi: 1.1,
            l2_apki: 10.0,
            working_set_bytes: 512.0 * 1024.0,
            reuse_fraction: 0.70,
            duty_cycle: 0.55,
        },
    );
    (main, aux)
}

/// The observation the runner hands a governor.
fn observation(
    board: &Board,
    delta: &CounterSet,
    interval: dora_sim_core::SimDuration,
) -> GovernorObservation {
    let cluster = board.cluster_of(BROWSER_MAIN_CORE);
    GovernorObservation {
        now: board.time(),
        interval,
        frequency: board.cluster_frequency(cluster),
        cluster: cluster.index(),
        per_core_utilization: delta
            .cores()
            .iter()
            .map(CoreCounters::utilization)
            .collect(),
        shared_l2_mpki: delta.shared_l2_mpki(),
        corun_utilization: delta.core(CORUN_CORE).utilization(),
        temperature: board.temperature(),
    }
}

impl Driver {
    /// Steps `board` quantum by quantum under `governor` until `stop` or
    /// `until`; returns the governed-cluster GHz·s integral and seconds.
    fn govern_until(
        &mut self,
        board: &mut Board,
        governor: &mut dyn Governor,
        until: SimTime,
        stop: impl Fn(&Board) -> bool,
    ) -> Result<(f64, f64), String> {
        let quantum = board.config().quantum;
        let interval = governor.decision_interval();
        let kind = decide_kind(governor);
        let inspect_curves = self.tracer.is_enabled() && kind == Kind::DoraDecide;
        let mut next_decision = board.time() + interval;
        let mut snap = board.counter_set().snapshot();
        let mut freq_integral = 0.0;
        let mut elapsed = 0.0;
        while board.time() < until && !stop(board) {
            let dt = quantum;
            freq_integral += board
                .cluster_frequency(board.cluster_of(BROWSER_MAIN_CORE))
                .as_ghz()
                * dt.as_secs_f64();
            elapsed += dt.as_secs_f64();
            self.tracer.span(Kind::BoardStep, |_| board.step(dt));
            if board.time() >= next_decision {
                let delta = self.tracer.span(Kind::CountersDelta, |_| {
                    let now_snap = board.counter_set().snapshot();
                    let delta = now_snap.delta(&snap);
                    snap = now_snap;
                    delta
                });
                let obs = observation(board, &delta, interval);
                let point = self.tracer.span(kind, |_| governor.decide_point(&obs));
                if let Some(log) = &mut self.record {
                    log.push((obs.clone(), point));
                }
                if inspect_curves {
                    if let Some(curve) = governor.decision_curve() {
                        self.tally.record_curve(curve.iter().map(|c| c.feasible));
                    }
                }
                if point.cluster.index() != obs.cluster {
                    board
                        .migrate(BROWSER_MAIN_CORE, point.cluster)
                        .map_err(err)?;
                    board
                        .migrate(BROWSER_AUX_CORE, point.cluster)
                        .map_err(err)?;
                }
                board
                    .set_cluster_frequency(point.cluster, point.frequency)
                    .map_err(err)?;
                next_decision = board.time() + interval;
            }
        }
        Ok((freq_integral, elapsed))
    }

    /// A fresh board with the co-runner assigned and the thermal warm-up
    /// simulated per `config.warmup_policy`, browser cores cleared.
    pub fn warmed_board(
        &mut self,
        kernel: Option<&Kernel>,
        governor: &mut dyn Governor,
        config: &ScenarioConfig,
    ) -> Result<Board, String> {
        let mut board = self.tracer.span(Kind::BoardNew, |_| {
            Board::new(config.board.clone(), config.seed)
        });
        if let Some(kernel) = kernel {
            let task = self
                .tracer
                .span(Kind::CoworkloadSpawn, |_| kernel.spawn(config.seed));
            board.assign(CORUN_CORE, Box::new(task)).map_err(err)?;
        }
        if !config.warmup.is_zero() {
            let (wm, wa) = warmup_tasks();
            board.assign(BROWSER_MAIN_CORE, Box::new(wm)).map_err(err)?;
            board.assign(BROWSER_AUX_CORE, Box::new(wa)).map_err(err)?;
            let until = board.time() + config.warmup;
            let warmed = self.span_result(Kind::RunnerWarmup, |d| match config.warmup_policy {
                WarmupPolicy::Measured => d.govern_until(&mut board, governor, until, |_| false),
                WarmupPolicy::Pinned(f) => {
                    let mut pin = PinnedGovernor::new("warmup-pin", f);
                    d.govern_until(&mut board, &mut pin, until, |_| false)
                }
            })?;
            self.tally.warmup_sim_s += warmed.1;
            board.clear_core(BROWSER_MAIN_CORE).map_err(err)?;
            board.clear_core(BROWSER_AUX_CORE).map_err(err)?;
        }
        Ok(board)
    }

    /// Runs `f` inside a span of `kind` with access to the whole driver.
    pub fn span_result<R>(
        &mut self,
        kind: Kind,
        f: impl FnOnce(&mut Driver) -> Result<R, String>,
    ) -> Result<R, String> {
        self.tracer.begin(kind);
        let result = f(self);
        self.tracer.end();
        result
    }

    /// One measured page load on a warmed board.
    pub fn measured_load(
        &mut self,
        board: &mut Board,
        page: &CatalogPage,
        kernel: Option<&Kernel>,
        governor: &mut dyn Governor,
        config: &ScenarioConfig,
    ) -> Result<RunResult, String> {
        self.span_result(Kind::RunnerLoad, |d| {
            let engine = RenderEngine::default();
            let job = d
                .tracer
                .span(Kind::BrowserSpawn, |_| engine.spawn(page, config.seed));
            board
                .assign(BROWSER_MAIN_CORE, Box::new(job.main))
                .map_err(err)?;
            board
                .assign(BROWSER_AUX_CORE, Box::new(job.aux))
                .map_err(err)?;

            let t0 = board.time();
            let e0 = board.energy();
            let switches0 = board.switch_count();
            let snap0 = board.counter_set().snapshot();

            let deadline_wall = t0 + config.timeout;
            let (freq_integral, governed_s) =
                d.govern_until(board, governor, deadline_wall, |b| {
                    b.task_finished(BROWSER_MAIN_CORE)
                })?;
            d.tally.load_sim_s += governed_s;

            let timed_out = !board.task_finished(BROWSER_MAIN_CORE);
            let load_time = if timed_out {
                Seconds::new(config.timeout.as_secs_f64())
            } else {
                let finish = board
                    .finish_time(BROWSER_MAIN_CORE)
                    .ok_or("finished task has no finish time")?;
                Seconds::new(finish.duration_since(t0).as_secs_f64())
            };
            let wall = Seconds::new(board.time().duration_since(t0).as_secs_f64().max(1e-9));
            let energy = board.energy() - e0;
            let mean_power = energy / wall;
            let delta = board.counter_set().snapshot().delta(&snap0);
            Ok(RunResult {
                workload_id: match kernel {
                    Some(k) => format!("{}+{}", page.name, k.name()),
                    None => format!("{}+alone", page.name),
                },
                page: page.name.to_string(),
                kernel: kernel.map_or("alone".to_string(), |k| k.name().to_string()),
                intensity: kernel.map(Kernel::intensity),
                training: page.training,
                governor: PolicyName::from(governor.name()),
                load_time,
                mean_power,
                energy,
                ppw: Ppw::from_time_power(load_time, mean_power),
                met_deadline: !timed_out && load_time <= config.deadline,
                timed_out,
                switches: board.switch_count() - switches0,
                mean_frequency: if governed_s > 0.0 {
                    Frequency::from_mhz(freq_integral / governed_s * 1000.0)
                } else {
                    board.frequency()
                },
                final_temp: board.temperature(),
                mean_mpki: delta.shared_l2_mpki(),
                corun_utilization: delta.core(CORUN_CORE).utilization(),
                corun_instructions: delta.core(CORUN_CORE).instructions,
            })
        })
    }

    /// One scenario run (warm-up plus measured load), as
    /// `CampaignDriver::run` performs it without a probe.
    pub fn run(
        &mut self,
        workload: &Workload,
        governor: &mut dyn Governor,
        config: &ScenarioConfig,
    ) -> Result<RunResult, String> {
        self.span_result(Kind::RunnerRun, |d| {
            let mut board = d.warmed_board(Some(&workload.kernel), governor, config)?;
            d.measured_load(
                &mut board,
                &workload.page,
                Some(&workload.kernel),
                governor,
                config,
            )
        })
    }

    /// The fleet's per-governor sheets for `config`, computed session by
    /// session on this thread exactly as `CampaignDriver::fleet` folds
    /// them: archetype warm-up and snapshot, per-session fork, shard-local
    /// sheets, then a left fold in shard order. Only the policies
    /// [`make_governor`] builds are supported.
    pub fn fleet(
        &mut self,
        config: &FleetConfig,
        models: Option<&DoraModels>,
    ) -> Result<Vec<GovernorSheet>, String> {
        let sampler = SessionSampler::new(config.archetypes.clone());
        let scenarios: Vec<ScenarioConfig> = sampler
            .archetypes()
            .iter()
            .map(|a| archetype_scenario(config, a))
            .collect();
        let mut snapshots: Vec<BoardSnapshot> = Vec::with_capacity(scenarios.len());
        for scenario in &scenarios {
            let WarmupPolicy::Pinned(pin_f) = scenario.warmup_policy else {
                return Err("fleet warm-up must be pinned".into());
            };
            let snapshot = self.span_result(Kind::FleetWarm, |d| {
                let mut pin = PinnedGovernor::new("warmup-pin", pin_f);
                let board = d.warmed_board(None, &mut pin, scenario)?;
                Ok(d.tracer.span(Kind::SnapshotCapture, |_| board.snapshot()))
            })?;
            snapshots.push(snapshot);
        }

        let names: Vec<&str> = config.policies.iter().map(|p| p.name()).collect();
        let shard_size = config.shard_size.max(1);
        let mut shard_sheets: Vec<Vec<GovernorSheet>> = Vec::new();
        let mut start = 0;
        while start < config.sessions {
            let end = (start + shard_size).min(config.sessions);
            let mut sheets: Vec<GovernorSheet> =
                names.iter().map(|n| GovernorSheet::new(n)).collect();
            for index in start..end {
                self.span_result(Kind::FleetSession, |d| {
                    let spec = d
                        .tracer
                        .span(Kind::FleetSample, |_| sampler.sample(config.seed, index));
                    let archetype = &sampler.archetypes()[spec.archetype];
                    let scenario = scenarios[spec.archetype]
                        .to_builder()
                        .seed(spec.seed)
                        .build();
                    let battery = archetype.battery.at_charge(spec.charge);
                    for (p, (sheet, policy)) in sheets.iter_mut().zip(&config.policies).enumerate()
                    {
                        d.tracer.set_op(index * names.len() as u64 + p as u64);
                        let mut governor =
                            make_governor(*policy, &spec.workload.page, models, &scenario)?;
                        let mut board = d.tracer.span(Kind::BoardNew, |_| {
                            Board::new(archetype.board.clone(), config.seed)
                        });
                        d.tracer
                            .span(Kind::SnapshotRestore, |_| {
                                board.restore(&snapshots[spec.archetype])
                            })
                            .map_err(err)?;
                        let task = d.tracer.span(Kind::CoworkloadSpawn, |_| {
                            spec.workload.kernel.spawn(spec.seed)
                        });
                        board.assign(CORUN_CORE, Box::new(task)).map_err(err)?;
                        let result = d.measured_load(
                            &mut board,
                            &spec.workload.page,
                            Some(&spec.workload.kernel),
                            governor.as_mut(),
                            &scenario,
                        )?;
                        d.tracer
                            .span(Kind::FleetRecord, |_| sheet.record(&result, battery));
                    }
                    Ok(())
                })?;
            }
            shard_sheets.push(sheets);
            start = end;
        }

        let mut merged: Vec<GovernorSheet> = names.iter().map(|n| GovernorSheet::new(n)).collect();
        for sheets in &shard_sheets {
            for (mine, theirs) in merged.iter_mut().zip(sheets) {
                self.tracer
                    .span(Kind::FleetMerge, |_| mine.merge(theirs))
                    .map_err(err)?;
            }
        }
        Ok(merged)
    }
}

/// The base scenario of one fleet archetype.
fn archetype_scenario(config: &FleetConfig, archetype: &DeviceArchetype) -> ScenarioConfig {
    ScenarioConfig::builder()
        .seed(config.seed)
        .board(archetype.board.clone())
        .deadline(config.deadline)
        .warmup(config.warmup)
        .warmup_policy(WarmupPolicy::Pinned(
            archetype.board.dvfs.nearest(config.warmup_pin),
        ))
        .timeout(config.timeout)
        .build()
}

/// The governor a campaign builds for `policy` on `config`'s board: a
/// stock governor, or full DORA — the 1-D governor on one-cluster boards,
/// the (cluster, F) one on heterogeneous boards.
///
/// # Errors
///
/// DORA without models, or a policy no workload drives.
pub fn make_governor(
    policy: Policy,
    page: &CatalogPage,
    models: Option<&DoraModels>,
    config: &ScenarioConfig,
) -> Result<Box<dyn Governor>, String> {
    let table = config.board.dvfs.clone();
    Ok(match policy {
        Policy::Interactive => Box::new(InteractiveGovernor::new(table)),
        Policy::Performance => Box::new(PerformanceGovernor::new(table)),
        Policy::Powersave => Box::new(PowersaveGovernor::new(table)),
        Policy::Dora => {
            let models = models.ok_or("DORA needs trained models")?;
            let cfg = DoraConfig {
                qos_target: config.deadline,
                ..DoraConfig::default()
            };
            if config.board.clusters.len() > 1 {
                Box::new(HeterogeneousDoraGovernor::from_profile(
                    models,
                    &config.board,
                    page.features,
                    cfg,
                ))
            } else {
                Box::new(DoraGovernor::new(models.clone(), page.features, cfg))
            }
        }
        other => {
            return Err(format!(
                "policy {} is not driven by the benchmark",
                other.name()
            ))
        }
    })
}
