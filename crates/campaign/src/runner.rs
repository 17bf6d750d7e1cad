//! The scenario runner: one page load under one governor.
//!
//! Reproduces the paper's measurement procedure (Section IV-B): "the
//! Firefox browser is executed on two cores while a co-run application is
//! executed on the third core of the application processor. The fourth
//! core was switched off." The governor runs in the loop at its decision
//! cadence, sampling counter deltas exactly as DORA samples `perf`.
//!
//! Each scenario begins with a thermal warm-up phase (sustained browsing
//! plus the co-runner) so die temperature — and therefore leakage — is in
//! its steady browsing regime when the measured load starts, as on a
//! phone that has been in use. [`WarmupPolicy`] chooses who drives the
//! warm-up: the measured governor itself (the legacy behaviour, whose
//! prefix depends on the governor under test), or a pinned frequency.
//!
//! A pinned warm-up makes the prefix *frequency-invariant*: every point
//! of a frequency sweep shares the exact same warm-up trajectory. Sweeps
//! exploit that with fork-at-warmup — simulate the shared prefix once,
//! [`dora_soc::Board::snapshot`] it, and fan one per-frequency
//! continuation per executor worker — instead of re-simulating the
//! warm-up 14 times. When the prefix is not frequency-invariant
//! ([`WarmupPolicy::Measured`]) sweeps fall back to full re-runs.
//!
//! Probes attach to the measured window only:
//! [`run_scenario_observed`] warms the board first and attaches the
//! probe before the measured load, so e.g. counted `DvfsSwitch` events
//! match [`RunResult::switches`].

use crate::executor::Executor;
use crate::policy::PolicyName;
use crate::workload::Workload;
use dora_browser::engine::RenderEngine;
use dora_coworkloads::Intensity;
use dora_governors::{Governor, GovernorObservation, PinnedGovernor};
use dora_sim_core::probe::{Probe, ProbeEvent};
use dora_sim_core::units::{Celsius, Joules, Mpki, Ppw, Seconds, Utilization, Watts};
use dora_sim_core::{SimDuration, SimTime};
use dora_soc::board::{Board, BoardConfig};
use dora_soc::task::{LoopTask, PhaseProfile};
use dora_soc::Frequency;
use std::cell::RefCell;
use std::rc::Rc;

/// Core assignments used throughout the evaluation.
pub const BROWSER_MAIN_CORE: usize = 0;
/// The browser helper core.
pub const BROWSER_AUX_CORE: usize = 1;
/// The co-runner's core.
pub const CORUN_CORE: usize = 2;

/// Who drives the DVFS clock during the thermal warm-up phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmupPolicy {
    /// The governor under measurement also governs the warm-up, so its
    /// hysteresis state is warm when the measured load starts. This is
    /// the legacy behaviour and the default — but the warm-up trajectory
    /// then depends on the governor (and, in a sweep, on the pinned
    /// frequency), so sweeps cannot share a prefix and must re-simulate
    /// the warm-up for every point.
    Measured,
    /// A [`PinnedGovernor`] at the given frequency drives the warm-up,
    /// independent of the governor under measurement. The warm-up prefix
    /// is then frequency-invariant, and frequency sweeps simulate it once
    /// and fork per-frequency continuations from a
    /// [`dora_soc::BoardSnapshot`].
    Pinned(Frequency),
}

/// Configuration of one scenario run.
///
/// Construct through [`ScenarioConfig::builder`] (the struct is
/// `#[non_exhaustive]`, so new knobs can be added without breaking
/// downstream crates):
///
/// ```
/// use dora_campaign::runner::ScenarioConfig;
/// use dora_sim_core::units::Seconds;
///
/// let config = ScenarioConfig::builder().deadline(Seconds::new(3.0)).seed(7).build();
/// assert_eq!(config.seed, 7);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ScenarioConfig {
    /// Seed for workload jitter; one seed = one exact replay.
    pub seed: u64,
    /// Platform configuration (ambient temperature lives here).
    pub board: BoardConfig,
    /// The QoS deadline used for the `met_deadline` verdict.
    pub deadline: Seconds,
    /// Thermal warm-up duration before the measured load.
    pub warmup: SimDuration,
    /// Who governs the warm-up phase.
    pub warmup_policy: WarmupPolicy,
    /// Abort the load after this much simulated time.
    pub timeout: SimDuration,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            board: dora_soc::SocProfile::msm8974().board_config(),
            deadline: Seconds::new(3.0),
            warmup: SimDuration::from_secs(20),
            warmup_policy: WarmupPolicy::Measured,
            timeout: SimDuration::from_secs(60),
        }
    }
}

impl ScenarioConfig {
    /// Starts a builder at the default configuration.
    pub fn builder() -> ScenarioConfigBuilder {
        ScenarioConfigBuilder {
            config: ScenarioConfig::default(),
        }
    }

    /// Starts a builder at this configuration (for deriving a variant,
    /// the typed replacement for `ScenarioConfig { x, ..base.clone() }`).
    pub fn to_builder(&self) -> ScenarioConfigBuilder {
        ScenarioConfigBuilder {
            config: self.clone(),
        }
    }
}

/// Fluent constructor for [`ScenarioConfig`].
#[derive(Debug, Clone)]
pub struct ScenarioConfigBuilder {
    config: ScenarioConfig,
}

impl ScenarioConfigBuilder {
    /// Sets the workload jitter seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the platform configuration.
    #[must_use]
    pub fn board(mut self, board: BoardConfig) -> Self {
        self.config.board = board;
        self
    }

    /// Sets the QoS deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Seconds) -> Self {
        self.config.deadline = deadline;
        self
    }

    /// Sets the thermal warm-up duration.
    #[must_use]
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.config.warmup = warmup;
        self
    }

    /// Sets who governs the warm-up phase.
    #[must_use]
    pub fn warmup_policy(mut self, policy: WarmupPolicy) -> Self {
        self.config.warmup_policy = policy;
        self
    }

    /// Sets the load timeout.
    #[must_use]
    pub fn timeout(mut self, timeout: SimDuration) -> Self {
        self.config.timeout = timeout;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> ScenarioConfig {
        self.config
    }
}

/// The measured outcome of one page load.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// `page+kernel` identifier.
    pub workload_id: String,
    /// Page name.
    pub page: String,
    /// Co-run kernel name.
    pub kernel: String,
    /// Co-runner intensity class; `None` when the browser ran alone.
    pub intensity: Option<Intensity>,
    /// Whether the page belongs to the Webpage-Inclusive training set.
    pub training: bool,
    /// Governor identity (a paper [`crate::policy::Policy`] when the name
    /// matches one).
    pub governor: PolicyName,
    /// Page load time (the timeout value if `timed_out`).
    pub load_time: Seconds,
    /// Mean device power over the load.
    pub mean_power: Watts,
    /// Device energy over the load.
    pub energy: Joules,
    /// Energy efficiency `1/(T·P)` — the paper's PPW metric.
    pub ppw: Ppw,
    /// Whether the load met the configured deadline.
    pub met_deadline: bool,
    /// Whether the load was censored at the timeout.
    pub timed_out: bool,
    /// DVFS transitions during the measured load.
    pub switches: u64,
    /// Time-weighted mean core frequency over the load (kHz resolution).
    pub mean_frequency: Frequency,
    /// Die temperature at load completion.
    pub final_temp: Celsius,
    /// Shared-L2 MPKI over the load window (Table I X6).
    pub mean_mpki: Mpki,
    /// Co-runner core utilization over the load window (Table I X9).
    pub corun_utilization: Utilization,
    /// Instructions the co-runner retired during the load window (used by
    /// the Fig. 2(b) energy attribution).
    pub corun_instructions: f64,
}

/// A browsing-shaped endless task pair used only for thermal warm-up.
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

/// Builds a [`GovernorObservation`] from a counter delta.
fn observation(
    board: &Board,
    delta: &dora_soc::counters::CounterSet,
    interval: SimDuration,
) -> GovernorObservation {
    let per_core_utilization: Vec<Utilization> = delta
        .cores()
        .iter()
        .map(dora_soc::counters::CoreCounters::utilization)
        .collect();
    // The governor governs the browser: it observes the cluster the
    // browser's main core is bound to and that cluster's current clock
    // (on homogeneous boards this is cluster 0 / `board.frequency()`).
    let cluster = board.cluster_of(BROWSER_MAIN_CORE);
    GovernorObservation {
        now: board.time(),
        interval,
        frequency: board.cluster_frequency(cluster),
        cluster: cluster.index(),
        per_core_utilization,
        shared_l2_mpki: delta.shared_l2_mpki(),
        corun_utilization: delta.core(CORUN_CORE).utilization(),
        temperature: board.temperature(),
    }
}

/// Steps the board under governor control until `stop` fires or `until`
/// elapses. Returns the time-weighted mean frequency (GHz·s integral and
/// duration).
///
/// Every decision is mirrored onto the board's probe bus as a
/// [`ProbeEvent::GovernorDecision`] (with the predicted candidate curve
/// for model-based governors) — built only while a probe listens.
#[allow(clippy::expect_used)] // callers document the governor-bug panic
pub(crate) fn govern_until(
    board: &mut Board,
    governor: &mut dyn Governor,
    until: SimTime,
    stop: impl Fn(&Board) -> bool,
) -> (f64, f64) {
    let quantum = board.config().quantum;
    let interval = governor.decision_interval();
    let mut next_decision = board.time() + interval;
    let mut snap = board.counter_set().snapshot();
    let mut freq_integral = 0.0;
    let mut elapsed = 0.0;
    while board.time() < until && !stop(board) {
        let dt = quantum;
        // The integral tracks the governed (browser) cluster's clock; on
        // homogeneous boards that is exactly `board.frequency()`.
        freq_integral += board
            .cluster_frequency(board.cluster_of(BROWSER_MAIN_CORE))
            .as_ghz()
            * dt.as_secs_f64();
        elapsed += dt.as_secs_f64();
        board.step(dt);
        if board.time() >= next_decision {
            let now_snap = board.counter_set().snapshot();
            let delta = now_snap.delta(&snap);
            snap = now_snap;
            let obs = observation(board, &delta, interval);
            let point = governor.decide_point(&obs);
            if board.probes_active() {
                board.emit_event(ProbeEvent::GovernorDecision {
                    governor: governor.name().to_string(),
                    cluster: point.cluster.index(),
                    chosen_khz: point.frequency.as_khz(),
                    curve: governor.decision_curve().unwrap_or_default(),
                });
            }
            if point.cluster.index() != obs.cluster {
                // The governor moved the browser: rebind its cores. The
                // co-runner stays put — only the governed task migrates.
                board
                    .migrate(BROWSER_MAIN_CORE, point.cluster)
                    .expect("governors must return board clusters");
                board
                    .migrate(BROWSER_AUX_CORE, point.cluster)
                    .expect("governors must return board clusters");
            }
            board
                .set_cluster_frequency(point.cluster, point.frequency)
                .expect("governors must return table frequencies");
            next_decision = board.time() + interval;
        }
    }
    (freq_integral, elapsed)
}

/// Runs one workload under one governor and measures the page load.
///
/// # Panics
///
/// Panics if the governor returns a frequency outside the board's DVFS
/// table (a policy bug, not an environmental condition).
pub fn run_scenario(
    workload: &Workload,
    governor: &mut dyn Governor,
    config: &ScenarioConfig,
) -> RunResult {
    run_page(&workload.page, Some(&workload.kernel), governor, config)
}

/// [`run_scenario`] with a probe observing the measured window: the board
/// is warmed first, the probe attached, then the load measured — so the
/// probe sees exactly the events behind the returned [`RunResult`]
/// (e.g. its `DvfsSwitch` count equals [`RunResult::switches`]).
///
/// # Panics
///
/// Panics if the governor returns a frequency outside the board's DVFS
/// table.
pub fn run_scenario_observed(
    workload: &Workload,
    governor: &mut dyn Governor,
    config: &ScenarioConfig,
    probe: Rc<RefCell<dyn Probe>>,
) -> RunResult {
    run_page_observed(
        &workload.page,
        Some(&workload.kernel),
        governor,
        config,
        probe,
    )
}

/// Runs a page load with an optional co-runner (pass `None` to measure
/// the browser alone, as the paper's "running alone" baselines do).
///
/// # Panics
///
/// Panics if the governor returns a frequency outside the board's DVFS
/// table.
pub fn run_page(
    page: &dora_browser::catalog::CatalogPage,
    kernel: Option<&dora_coworkloads::Kernel>,
    governor: &mut dyn Governor,
    config: &ScenarioConfig,
) -> RunResult {
    let mut board = warmed_board(kernel, governor, config);
    measured_load(&mut board, page, kernel, governor, config)
}

/// [`run_page`] with a probe attached for the measured window only.
///
/// # Panics
///
/// Panics if the governor returns a frequency outside the board's DVFS
/// table.
pub fn run_page_observed(
    page: &dora_browser::catalog::CatalogPage,
    kernel: Option<&dora_coworkloads::Kernel>,
    governor: &mut dyn Governor,
    config: &ScenarioConfig,
    probe: Rc<RefCell<dyn Probe>>,
) -> RunResult {
    let mut board = warmed_board(kernel, governor, config);
    let probe_id = board.attach_probe(probe);
    let result = measured_load(&mut board, page, kernel, governor, config);
    board.detach_probe(probe_id);
    result
}

/// Builds a fresh board, assigns the co-runner, and runs the thermal
/// warm-up per the configured [`WarmupPolicy`]. The returned board is
/// ready for a measured load (browser cores cleared).
#[allow(clippy::expect_used)] // fresh-board invariants: documented panic
pub(crate) fn warmed_board(
    kernel: Option<&dora_coworkloads::Kernel>,
    governor: &mut dyn Governor,
    config: &ScenarioConfig,
) -> Board {
    let mut board = Board::new(config.board.clone(), config.seed);
    if let Some(kernel) = kernel {
        board
            .assign(CORUN_CORE, Box::new(kernel.spawn(config.seed)))
            .expect("corun core free on a fresh board");
    }
    if !config.warmup.is_zero() {
        let (wm, wa) = warmup_tasks();
        board
            .assign(BROWSER_MAIN_CORE, Box::new(wm))
            .expect("main core free");
        board
            .assign(BROWSER_AUX_CORE, Box::new(wa))
            .expect("aux core free");
        let until = board.time() + config.warmup;
        match config.warmup_policy {
            WarmupPolicy::Measured => {
                let _ = govern_until(&mut board, governor, until, |_| false);
            }
            WarmupPolicy::Pinned(f) => {
                let mut pin = PinnedGovernor::new("warmup-pin", f);
                let _ = govern_until(&mut board, &mut pin, until, |_| false);
            }
        }
        board.clear_core(BROWSER_MAIN_CORE).expect("core id valid");
        board.clear_core(BROWSER_AUX_CORE).expect("core id valid");
    }
    board
}

/// Measures one page load on an already warmed board.
#[allow(clippy::expect_used)] // warmed-board invariants: documented panic
pub(crate) fn measured_load(
    board: &mut Board,
    page: &dora_browser::catalog::CatalogPage,
    kernel: Option<&dora_coworkloads::Kernel>,
    governor: &mut dyn Governor,
    config: &ScenarioConfig,
) -> RunResult {
    let engine = RenderEngine::default();
    let job = engine.spawn(page, config.seed);
    board
        .assign(BROWSER_MAIN_CORE, Box::new(job.main))
        .expect("main core cleared above");
    board
        .assign(BROWSER_AUX_CORE, Box::new(job.aux))
        .expect("aux core cleared above");

    let t0 = board.time();
    let e0 = board.energy();
    let switches0 = board.switch_count();
    let snap0 = board.counter_set().snapshot();

    let deadline_wall = t0 + config.timeout;
    let (freq_integral, governed_s) = govern_until(board, governor, deadline_wall, |b| {
        b.task_finished(BROWSER_MAIN_CORE)
    });

    let timed_out = !board.task_finished(BROWSER_MAIN_CORE);
    let load_time = if timed_out {
        Seconds::new(config.timeout.as_secs_f64())
    } else {
        Seconds::new(
            board
                .finish_time(BROWSER_MAIN_CORE)
                .expect("finished")
                .duration_since(t0)
                .as_secs_f64(),
        )
    };

    let wall = Seconds::new(board.time().duration_since(t0).as_secs_f64().max(1e-9));
    let energy = board.energy() - e0;
    let mean_power = energy / wall;
    let delta = board.counter_set().snapshot().delta(&snap0);

    RunResult {
        workload_id: match kernel {
            Some(k) => format!("{}+{}", page.name, k.name()),
            None => format!("{}+alone", page.name),
        },
        page: page.name.to_string(),
        kernel: kernel.map_or("alone".to_string(), |k| k.name().to_string()),
        intensity: kernel.map(|k| k.intensity()),
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
    }
}

/// One point of a frequency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The pinned frequency.
    pub frequency: Frequency,
    /// The measured outcome at that frequency.
    pub result: RunResult,
}

/// Measures one pinned-frequency point of a sweep, warm-up included.
fn sweep_point(workload: &Workload, config: &ScenarioConfig, f: Frequency) -> SweepPoint {
    let mut pinned = PinnedGovernor::new("pinned", f);
    let result = run_scenario(workload, &mut pinned, config);
    SweepPoint {
        frequency: f,
        result,
    }
}

/// Measures a workload at each pinned frequency (the paper's per-figure
/// frequency sweeps and the `Offline_opt` enumeration).
pub fn sweep_frequencies(
    workload: &Workload,
    config: &ScenarioConfig,
    frequencies: &[Frequency],
) -> Vec<SweepPoint> {
    sweep_frequencies_with(workload, config, frequencies, &Executor::sequential())
}

/// [`sweep_frequencies`] with the points fanned out across `executor`.
///
/// Each point is an independent seeded simulation, so the returned sweep
/// is bit-identical to the sequential one, in frequency order.
///
/// Under [`WarmupPolicy::Pinned`] the warm-up prefix is
/// frequency-invariant, so it is simulated **once**, snapshotted, and
/// every point continues from a fork of the snapshot — bit-identical to
/// (but much cheaper than) re-running the warm-up per point, which
/// [`sweep_frequencies_rerun_with`] does and which this function falls
/// back to under [`WarmupPolicy::Measured`].
pub fn sweep_frequencies_with(
    workload: &Workload,
    config: &ScenarioConfig,
    frequencies: &[Frequency],
    executor: &Executor,
) -> Vec<SweepPoint> {
    let WarmupPolicy::Pinned(warmup_f) = config.warmup_policy else {
        // The warm-up depends on the measured (pinned) frequency: no
        // shared prefix exists, so every point re-runs in full.
        return sweep_frequencies_rerun_with(workload, config, frequencies, executor);
    };
    // Simulate the shared, frequency-invariant prefix exactly once.
    let mut warm_gov = PinnedGovernor::new("warmup-pin", warmup_f);
    let warmed = warmed_board(Some(&workload.kernel), &mut warm_gov, config);
    let snapshot = warmed.snapshot();
    executor.map(frequencies, |&f| {
        let mut fork = Board::new(config.board.clone(), config.seed);
        if fork.restore(&snapshot).is_err() {
            // Defensive: a structural mismatch means the prefix cannot be
            // reused; measure this point the slow, always-correct way.
            return sweep_point(workload, config, f);
        }
        let mut pinned = PinnedGovernor::new("pinned", f);
        let result = measured_load(
            &mut fork,
            &workload.page,
            Some(&workload.kernel),
            &mut pinned,
            config,
        );
        SweepPoint {
            frequency: f,
            result,
        }
    })
}

/// [`sweep_frequencies_with`] without fork-at-warmup: every point is an
/// independent full simulation, warm-up included. This is the reference
/// implementation sweeps are checked against (and benchmarked against in
/// `benches/forksweep.rs`).
pub fn sweep_frequencies_rerun_with(
    workload: &Workload,
    config: &ScenarioConfig,
    frequencies: &[Frequency],
    executor: &Executor,
) -> Vec<SweepPoint> {
    executor.map(frequencies, |&f| sweep_point(workload, config, f))
}

/// The oracle frequencies of Section II-C / Equation 1 for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleFrequencies {
    /// `fD` — the lowest frequency whose measured load time meets the
    /// deadline; `None` when even `fmax` misses it.
    pub fd: Option<Frequency>,
    /// `fE` — the measured PPW-optimal frequency, deadline ignored.
    pub fe: Frequency,
    /// `fopt` per Equation 1 (`fE` if `fD ≤ fE`, else `fD`; `fmax` when
    /// infeasible).
    pub fopt: Frequency,
    /// The full sweep behind the verdicts.
    pub sweep: Vec<SweepPoint>,
}

/// Exhaustively determines `fD`, `fE` and `fopt` for a workload by
/// sweeping every frequency in the table, behind
/// [`crate::driver::CampaignDriver::oracle`].
pub(crate) fn oracle_impl(
    workload: &Workload,
    config: &ScenarioConfig,
    executor: &Executor,
) -> OracleFrequencies {
    let freqs: Vec<Frequency> = config.board.dvfs.frequencies().collect();
    let sweep = sweep_frequencies_with(workload, config, &freqs, executor);
    oracle_from_sweep(sweep, config)
}

/// Derives the Section II-C verdicts from a completed full-table sweep.
pub(crate) fn oracle_from_sweep(
    sweep: Vec<SweepPoint>,
    config: &ScenarioConfig,
) -> OracleFrequencies {
    let fd = sweep
        .iter()
        .find(|p| p.result.met_deadline)
        .map(|p| p.frequency);
    let fe = sweep
        .iter()
        .max_by(|a, b| a.result.ppw.total_cmp(&b.result.ppw))
        .map_or_else(|| config.board.dvfs.max_frequency(), |p| p.frequency);
    let fopt = match fd {
        Some(fd) if fd <= fe => fe,
        Some(fd) => fd,
        None => config.board.dvfs.max_frequency(),
    };
    OracleFrequencies {
        fd,
        fe,
        fopt,
        sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSet;
    use dora_coworkloads::Intensity;
    use dora_governors::{PerformanceGovernor, PinnedGovernor};
    use dora_soc::DvfsTable;

    fn fast_config() -> ScenarioConfig {
        ScenarioConfig::builder()
            .warmup(SimDuration::from_secs(5))
            .build()
    }

    #[test]
    fn performance_governor_loads_low_page_fast() {
        let set = WorkloadSet::paper54();
        let w = set
            .find_by_class("Amazon", Intensity::Low)
            .expect("present");
        let mut g = PerformanceGovernor::new(DvfsTable::default());
        let r = run_scenario(w, &mut g, &fast_config());
        assert!(!r.timed_out);
        assert!(
            r.met_deadline,
            "Amazon+low must meet 3s: {:.2}s",
            r.load_time.value()
        );
        assert!(r.load_time < Seconds::new(2.0));
        assert!(
            (2.2..2.4).contains(&r.mean_frequency.as_ghz()),
            "{}",
            r.mean_frequency
        );
        assert!(r.mean_power > Watts::new(1.5) && r.mean_power < Watts::new(6.5));
        assert!((r.ppw.value() - 1.0 / (r.load_time.value() * r.mean_power.value())).abs() < 1e-12);
    }

    #[test]
    fn interference_class_orders_load_time() {
        let set = WorkloadSet::paper54();
        let config = fast_config();
        let mut times = Vec::new();
        for intensity in Intensity::ALL {
            let w = set.find_by_class("Reddit", intensity).expect("present");
            let mut g = PinnedGovernor::new("pin", Frequency::from_mhz(1190.4));
            let r = run_scenario(w, &mut g, &config);
            times.push((intensity, r.load_time));
        }
        assert!(
            times[0].1 < times[1].1 && times[1].1 < times[2].1,
            "interference must slow the load: {times:?}"
        );
    }

    #[test]
    fn low_frequency_pinned_can_miss_deadline() {
        let set = WorkloadSet::paper54();
        let w = set.find_by_class("IMDB", Intensity::High).expect("present");
        let config = fast_config();
        let mut slow = PinnedGovernor::new("pin", Frequency::from_mhz(729.6));
        let r = run_scenario(w, &mut slow, &config);
        assert!(
            !r.met_deadline,
            "IMDB+high at 0.73GHz: {:.2}s",
            r.load_time.value()
        );
        assert!(!r.timed_out);
    }

    #[test]
    fn runs_are_reproducible() {
        let set = WorkloadSet::paper54();
        let w = set
            .find_by_class("MSN", Intensity::Medium)
            .expect("present");
        let config = fast_config();
        let mut a = PerformanceGovernor::new(DvfsTable::default());
        let mut b = PerformanceGovernor::new(DvfsTable::default());
        let ra = run_scenario(w, &mut a, &config);
        let rb = run_scenario(w, &mut b, &config);
        assert_eq!(ra, rb);
    }

    #[test]
    fn oracle_structure_holds() {
        let set = WorkloadSet::paper54();
        let w = set
            .find_by_class("Amazon", Intensity::Low)
            .expect("present");
        let config = fast_config();
        let o = oracle_impl(w, &config, &Executor::sequential());
        assert_eq!(o.sweep.len(), 14);
        // Amazon+low is easy: some fD exists well below fmax.
        let fd = o.fd.expect("feasible");
        assert!(fd < Frequency::from_mhz(2265.6));
        // Equation 1.
        let expected = if fd <= o.fe { o.fe } else { fd };
        assert_eq!(o.fopt, expected);
        // PPW at fopt must be the best among deadline-meeting points.
        let best_feasible = o
            .sweep
            .iter()
            .filter(|p| p.result.met_deadline)
            .map(|p| p.result.ppw)
            .fold(Ppw::ZERO, Ppw::max);
        let at_fopt = o
            .sweep
            .iter()
            .find(|p| p.frequency == o.fopt)
            .expect("fopt in sweep")
            .result
            .ppw;
        assert!((at_fopt.value() - best_feasible.value()).abs() < 1e-12);
    }

    #[test]
    fn builder_sets_fields_and_derives_variants() {
        let base = ScenarioConfig::builder()
            .seed(7)
            .deadline(Seconds::new(2.5))
            .warmup(SimDuration::from_secs(1))
            .timeout(SimDuration::from_secs(30))
            .build();
        assert_eq!(base.seed, 7);
        assert_eq!(base.deadline, Seconds::new(2.5));
        assert_eq!(base.warmup, SimDuration::from_secs(1));
        assert_eq!(base.timeout, SimDuration::from_secs(30));
        let derived = base.to_builder().deadline(Seconds::new(4.0)).build();
        assert_eq!(derived.seed, 7, "to_builder keeps unset fields");
        assert_eq!(derived.deadline, Seconds::new(4.0));
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let set = WorkloadSet::paper54();
        let w = set
            .find_by_class("Amazon", Intensity::Low)
            .expect("present");
        let config = ScenarioConfig::builder()
            .warmup(SimDuration::from_secs(2))
            .build();
        let freqs = [
            Frequency::from_mhz(729.6),
            Frequency::from_mhz(1497.6),
            Frequency::from_mhz(2265.6),
        ];
        let sequential = sweep_frequencies(w, &config, &freqs);
        let parallel = sweep_frequencies_with(
            w,
            &config,
            &freqs,
            &crate::executor::Executor::new(crate::executor::Parallelism::Fixed(3)),
        );
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn fork_at_warmup_sweep_is_bit_identical_to_full_rerun() {
        let set = WorkloadSet::paper54();
        let w = set
            .find_by_class("Amazon", Intensity::Low)
            .expect("present");
        let config = ScenarioConfig::builder()
            .warmup(SimDuration::from_secs(2))
            .warmup_policy(WarmupPolicy::Pinned(Frequency::from_mhz(1190.4)))
            .build();
        let freqs = [
            Frequency::from_mhz(729.6),
            Frequency::from_mhz(1497.6),
            Frequency::from_mhz(2265.6),
        ];
        let rerun = sweep_frequencies_rerun_with(
            w,
            &config,
            &freqs,
            &crate::executor::Executor::sequential(),
        );
        let forked =
            sweep_frequencies_with(w, &config, &freqs, &crate::executor::Executor::sequential());
        assert_eq!(rerun, forked, "fork-at-warmup must not change results");
        let forked_parallel = sweep_frequencies_with(
            w,
            &config,
            &freqs,
            &crate::executor::Executor::new(crate::executor::Parallelism::Fixed(3)),
        );
        assert_eq!(forked, forked_parallel);
    }

    #[test]
    fn pinned_warmup_oracle_matches_rerun_oracle_on_full_table() {
        let set = WorkloadSet::paper54();
        let w = set
            .find_by_class("Amazon", Intensity::Low)
            .expect("present");
        let config = ScenarioConfig::builder()
            .warmup(SimDuration::from_millis(500))
            .warmup_policy(WarmupPolicy::Pinned(Frequency::from_mhz(1190.4)))
            .build();
        let freqs: Vec<Frequency> = config.board.dvfs.frequencies().collect();
        let rerun = sweep_frequencies_rerun_with(
            w,
            &config,
            &freqs,
            &crate::executor::Executor::sequential(),
        );
        let forked = oracle_impl(w, &config, &crate::executor::Executor::sequential());
        assert_eq!(forked.sweep, rerun);
        assert_eq!(forked.sweep.len(), 14);
    }

    #[test]
    fn observed_run_sees_decisions_and_matching_switches() {
        use dora_sim_core::probe::ProbeRing;

        let set = WorkloadSet::paper54();
        let w = set
            .find_by_class("Amazon", Intensity::Low)
            .expect("present");
        let config = ScenarioConfig::builder()
            .warmup(SimDuration::from_secs(1))
            .build();
        let mut g = dora_governors::InteractiveGovernor::new(DvfsTable::default());
        let ring = ProbeRing::shared(1 << 16);
        let r = run_scenario_observed(w, &mut g, &config, ring.clone());

        let events = ring.borrow().to_vec();
        assert_eq!(ring.borrow().dropped(), 0, "ring too small for the run");
        let switches = events
            .iter()
            .filter(|e| matches!(e.event, ProbeEvent::DvfsSwitch { .. }))
            .count() as u64;
        assert_eq!(
            switches, r.switches,
            "probe attaches after warmup, so counts must match the result"
        );
        let decisions: Vec<&dora_sim_core::probe::RecordedEvent> = events
            .iter()
            .filter(|e| matches!(e.event, ProbeEvent::GovernorDecision { .. }))
            .collect();
        assert!(!decisions.is_empty(), "decisions must be mirrored");
        for d in &decisions {
            let ProbeEvent::GovernorDecision {
                governor,
                cluster,
                chosen_khz,
                curve,
            } = &d.event
            else {
                unreachable!("filtered above");
            };
            assert_eq!(governor, "interactive");
            assert_eq!(*cluster, 0, "homogeneous boards decide on cluster 0");
            assert!(config
                .board
                .dvfs
                .frequencies()
                .any(|f| f.as_khz() == *chosen_khz));
            assert!(curve.is_empty(), "heuristic governors have no curve");
        }
    }

    #[test]
    fn ppw_curve_is_unimodal_enough_to_have_interior_peak_for_easy_page() {
        // The Fig. 3 phenomenon: for a low-complexity page the PPW-optimal
        // frequency is strictly inside the range.
        let set = WorkloadSet::paper54();
        let w = set
            .find_by_class("Amazon", Intensity::Low)
            .expect("present");
        let config = fast_config();
        let o = oracle_impl(w, &config, &Executor::sequential());
        assert!(
            o.fe > Frequency::from_mhz(300.0),
            "fE at the bottom: floor power should forbid this"
        );
        assert!(
            o.fe < Frequency::from_mhz(2265.6),
            "fE at the top: V²f should forbid this"
        );
    }
}
