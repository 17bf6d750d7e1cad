//! The scenario runner: one page load under one governor.
//!
//! Reproduces the paper's measurement procedure (Section IV-B): "the
//! Firefox browser is executed on two cores while a co-run application is
//! executed on the third core of the application processor. The fourth
//! core was switched off." The governor runs in the loop at its decision
//! cadence ([`GovernedLoop`]), sampling counter deltas exactly as DORA
//! samples `perf`.
//!
//! Each scenario begins with a thermal warm-up phase (sustained browsing
//! plus the co-runner) so die temperature — and therefore leakage — is in
//! its steady browsing regime when the measured load starts, as on a
//! phone that has been in use. [`WarmupPolicy`] chooses who drives the
//! warm-up: the measured governor itself (the legacy behaviour, whose
//! prefix depends on the governor under test), or a pinned frequency.
//!
//! A pinned point's warm-up never sees the page: it depends only on the
//! co-runner kernel and the frequency pinned while warming (the measured
//! frequency under [`WarmupPolicy::Measured`], the warm-up pin under
//! [`WarmupPolicy::Pinned`]), given the grid's board, seed and warm-up
//! length. [`pinned_grid`] exploits that: it simulates each distinct
//! prefix once, [`dora_soc::Board::snapshot`]s it, and continues every
//! point of the prefix from a fresh board restored from the snapshot —
//! bit-identical to re-simulating the warm-up per point, which
//! [`sweep_frequencies_rerun_with`] still does as the reference.
//!
//! Probes attach to the measured window only: [`run_page_observed`]
//! warms the board first and attaches the probe before the measured
//! load, so e.g. counted `DvfsSwitch` events match
//! [`RunResult::switches`].

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
use dora_soc::counters::CounterSet;
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
    /// the legacy behaviour and the default. The warm-up trajectory then
    /// depends on the governor; for a pinned point it depends on the
    /// kernel and the pinned frequency, so [`pinned_grid`] shares one
    /// prefix per (kernel, frequency) across the grid's pages.
    Measured,
    /// A [`PinnedGovernor`] at the given frequency drives the warm-up,
    /// independent of the governor under measurement. The warm-up prefix
    /// is then frequency-invariant, so [`pinned_grid`] shares one prefix
    /// per kernel across every page and frequency, forking each point
    /// from a [`dora_soc::BoardSnapshot`].
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

/// The governor in the loop — DORA's runtime (paper Section III): every
/// decision interval, sample the counter deltas, ask the governor for an
/// operating point, and program it on the board.
///
/// This is the one owner of that protocol. It keeps the decision cadence
/// and the counter snapshot the next delta is taken against, builds each
/// [`GovernorObservation`] for the cluster the browser's main core is
/// bound to, mirrors every decision onto the probe bus as a
/// [`ProbeEvent::GovernorDecision`] (with the predicted candidate curve
/// for model-based governors; built only while a probe listens), migrates
/// both browser cores when the governor picks another cluster — the
/// co-runner stays put — and sets that cluster's clock.
///
/// The loop holds no borrow: callers keep the board and the governor and
/// may assign tasks, swap co-runners or retarget the governor between
/// steps without resetting the cadence.
///
/// # Example
///
/// ```
/// use dora_campaign::runner::GovernedLoop;
/// use dora_governors::PerformanceGovernor;
/// use dora_soc::{Board, SocProfile};
///
/// let mut board = Board::new(SocProfile::msm8974().board_config(), 7);
/// let mut governor = PerformanceGovernor::new(board.config().dvfs.clone());
/// let mut governed = GovernedLoop::new(&board, &governor);
/// let until = board.time() + dora_sim_core::SimDuration::from_millis(250);
/// governed.run_until(&mut board, &mut governor, until, |_| false);
/// assert_eq!(board.frequency(), board.config().dvfs.max_frequency());
/// ```
#[derive(Debug)]
pub struct GovernedLoop {
    interval: SimDuration,
    next_decision: SimTime,
    snapshot: CounterSet,
    freq_integral: f64,
    elapsed: f64,
}

impl GovernedLoop {
    /// Starts the cadence now: the first decision falls one governor
    /// interval after `board`'s current time, over counters sampled from
    /// now.
    pub fn new(board: &Board, governor: &dyn Governor) -> GovernedLoop {
        let interval = governor.decision_interval();
        GovernedLoop {
            interval,
            next_decision: board.time() + interval,
            snapshot: board.counter_set().snapshot(),
            freq_integral: 0.0,
            elapsed: 0.0,
        }
    }

    /// Advances the board one quantum, then lets the governor decide if
    /// its interval has elapsed.
    ///
    /// # Panics
    ///
    /// Panics if the governor returns a cluster the board lacks or a
    /// frequency outside that cluster's DVFS table (a policy bug, not an
    /// environmental condition).
    #[expect(clippy::expect_used, reason = "documented governor-bug panic")]
    #[expect(
        clippy::disallowed_methods,
        reason = "the mean-frequency statistic integrates the clock in raw GHz·s"
    )]
    pub fn step(&mut self, board: &mut Board, governor: &mut dyn Governor) {
        let dt = board.config().quantum;
        // The integral tracks the governed (browser) cluster's clock; on
        // homogeneous boards that is exactly `board.frequency()`.
        self.freq_integral += board
            .cluster_frequency(board.cluster_of(BROWSER_MAIN_CORE))
            .as_ghz()
            * dt.as_secs_f64();
        self.elapsed += dt.as_secs_f64();
        board.step(dt);
        if board.time() < self.next_decision {
            return;
        }
        let now = board.counter_set().snapshot();
        let delta = now.delta(&self.snapshot);
        self.snapshot = now;
        let cluster = board.cluster_of(BROWSER_MAIN_CORE);
        let observation = GovernorObservation {
            now: board.time(),
            interval: self.interval,
            frequency: board.cluster_frequency(cluster),
            cluster: cluster.index(),
            per_core_utilization: delta
                .cores()
                .iter()
                .map(dora_soc::counters::CoreCounters::utilization)
                .collect(),
            shared_l2_mpki: delta.shared_l2_mpki(),
            corun_utilization: delta.core(CORUN_CORE).utilization(),
            temperature: board.temperature(),
        };
        let point = governor.decide_point(&observation);
        if board.probes_active() {
            board.emit_event(ProbeEvent::GovernorDecision {
                governor: governor.name().to_string(),
                cluster: point.cluster.index(),
                chosen_khz: point.frequency.as_khz(),
                curve: governor.decision_curve().unwrap_or_default(),
            });
        }
        if point.cluster != cluster {
            for core in [BROWSER_MAIN_CORE, BROWSER_AUX_CORE] {
                board
                    .migrate(core, point.cluster)
                    .expect("governors must return board clusters");
            }
        }
        board
            .set_cluster_frequency(point.cluster, point.frequency)
            .expect("governors must return table frequencies");
        self.next_decision = board.time() + self.interval;
    }

    /// Steps until `stop` fires or the board reaches `until`.
    ///
    /// # Panics
    ///
    /// As [`GovernedLoop::step`].
    pub fn run_until(
        &mut self,
        board: &mut Board,
        governor: &mut dyn Governor,
        until: SimTime,
        stop: impl Fn(&Board) -> bool,
    ) {
        while board.time() < until && !stop(board) {
            self.step(board, governor);
        }
    }

    /// The time-weighted mean clock of the governed cluster, in GHz, over
    /// every quantum this loop stepped; `None` before the first step.
    pub fn mean_frequency_ghz(&self) -> Option<f64> {
        (self.elapsed > 0.0).then(|| self.freq_integral / self.elapsed)
    }
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
    // Attached after the warm-up so the probe sees only the measured
    // window; the board is dropped on return, so no detach is needed.
    board.attach_probe(probe);
    measured_load(&mut board, page, kernel, governor, config)
}

/// Builds a fresh board, assigns the co-runner, and runs the thermal
/// warm-up per the configured [`WarmupPolicy`]. The returned board is
/// ready for a measured load (browser cores cleared).
#[expect(
    clippy::expect_used,
    reason = "fresh-board invariants: documented panic"
)]
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
        let mut pin;
        let warmup_governor: &mut dyn Governor = match config.warmup_policy {
            WarmupPolicy::Measured => governor,
            WarmupPolicy::Pinned(f) => {
                pin = PinnedGovernor::new("warmup-pin", f);
                &mut pin
            }
        };
        GovernedLoop::new(&board, warmup_governor).run_until(
            &mut board,
            warmup_governor,
            until,
            |_| false,
        );
        board.clear_core(BROWSER_MAIN_CORE).expect("core id valid");
        board.clear_core(BROWSER_AUX_CORE).expect("core id valid");
    }
    board
}

/// Measures one page load on an already warmed board.
#[expect(
    clippy::expect_used,
    reason = "warmed-board invariants: documented panic"
)]
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

    let mut governed = GovernedLoop::new(board, governor);
    governed.run_until(board, governor, t0 + config.timeout, |b| {
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
        mean_frequency: governed.mean_frequency_ghz().map_or_else(
            || board.frequency(),
            |ghz| Frequency::from_mhz(ghz * 1000.0),
        ),
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

/// What a pinned point's thermal warm-up depends on beyond the board,
/// seed and warm-up length that every point of a grid shares: the
/// co-runner kernel (compared by value) and the frequency pinned while
/// warming.
#[derive(PartialEq)]
struct WarmupKey<'a> {
    kernel: &'a dora_coworkloads::Kernel,
    pin: Frequency,
}

impl<'a> WarmupKey<'a> {
    /// The warm-up [`warmed_board`] runs before measuring `workload`
    /// pinned at `f` under `config`.
    fn new(workload: &'a Workload, f: Frequency, config: &ScenarioConfig) -> WarmupKey<'a> {
        // No `..`: a new input fails to compile until it joins the key
        // or is named here as fixed for the grid or unread by the warm-up.
        let ScenarioConfig {
            // Fixed for the grid.
            seed: _,
            board: _,
            warmup: _,
            // Read only by the measured load.
            deadline: _,
            timeout: _,
            warmup_policy,
        } = config;
        let Workload {
            // The warm-up runs its own browsing pair, never the page.
            page: _,
            kernel,
        } = workload;
        let pin = match *warmup_policy {
            WarmupPolicy::Measured => f,
            WarmupPolicy::Pinned(warmup_f) => warmup_f,
        };
        WarmupKey { kernel, pin }
    }
}

/// Groups the indices of a pinned grid by warm-up prefix, in order of
/// first occurrence: every point of a group warms up identically.
pub(crate) fn prefix_groups(
    points: &[(&Workload, Frequency)],
    config: &ScenarioConfig,
) -> Vec<Vec<usize>> {
    let mut keys: Vec<WarmupKey<'_>> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, &(workload, f)) in points.iter().enumerate() {
        let key = WarmupKey::new(workload, f, config);
        match keys.iter().position(|k| *k == key) {
            Some(g) => groups[g].push(i),
            None => {
                keys.push(key);
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// Measures every `(workload, frequency)` point under a
/// [`PinnedGovernor`] (named `pinned`), fanned out across `executor`,
/// and returns the results in input order.
///
/// Points whose warm-ups coincide (same kernel and warm-up pin, see
/// [`WarmupPolicy`]) share one simulated prefix: each group warms once,
/// snapshots the warm board, and measures each of its points on a fresh
/// board restored from the snapshot. Restore is exact, so every result
/// is bit-identical to [`run_scenario`] with a fresh `PinnedGovernor` at
/// that point, at any executor width. Groups are the unit of work, and
/// a worker holds one group's snapshot at a time.
///
/// # Panics
///
/// Panics if a frequency is not in the board's DVFS table.
#[expect(
    clippy::expect_used,
    reason = "a snapshot restores onto a board of its own config: documented invariant"
)]
pub fn pinned_grid(
    points: &[(&Workload, Frequency)],
    config: &ScenarioConfig,
    executor: &Executor,
) -> Vec<RunResult> {
    let groups = prefix_groups(points, config);
    let measured = executor.map(&groups, |group| {
        let mut runs = Vec::with_capacity(group.len());
        // Every point of the group warms up as its first point does.
        let Some(&(first, first_f)) = group.first().map(|&i| &points[i]) else {
            return runs;
        };
        let mut pinned = PinnedGovernor::new("pinned", first_f);
        let snapshot = warmed_board(Some(&first.kernel), &mut pinned, config).snapshot();
        for &i in group {
            let (workload, f) = points[i];
            let mut board = Board::new(config.board.clone(), config.seed);
            board
                .restore(&snapshot)
                .expect("the snapshot was taken on a board of this config");
            let mut pinned = PinnedGovernor::new("pinned", f);
            let result = measured_load(
                &mut board,
                &workload.page,
                Some(&workload.kernel),
                &mut pinned,
                config,
            );
            runs.push((i, result));
        }
        runs
    });
    let mut results: Vec<(usize, RunResult)> = measured.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Measures a workload at each pinned frequency (the paper's per-figure
/// frequency sweeps and the `Offline_opt` enumeration) through
/// [`pinned_grid`], in frequency order and bit-identical at any executor
/// width.
///
/// Under [`WarmupPolicy::Pinned`] every point shares one warm-up prefix;
/// under [`WarmupPolicy::Measured`] each frequency warms its own.
/// [`sweep_frequencies_rerun_with`] is the per-point reference.
pub fn sweep_frequencies_with(
    workload: &Workload,
    config: &ScenarioConfig,
    frequencies: &[Frequency],
    executor: &Executor,
) -> Vec<SweepPoint> {
    let points: Vec<(&Workload, Frequency)> = frequencies.iter().map(|&f| (workload, f)).collect();
    pinned_grid(&points, config, executor)
        .into_iter()
        .zip(frequencies)
        .map(|(result, &frequency)| SweepPoint { frequency, result })
        .collect()
}

/// [`sweep_frequencies_with`] without a shared prefix: every point is an
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

/// [`oracle_impl`] for many workloads as one [`pinned_grid`], so each
/// distinct warm-up is simulated once across all of them; one verdict
/// per workload, in input order.
pub(crate) fn oracle_grid(
    workloads: &[&Workload],
    config: &ScenarioConfig,
    executor: &Executor,
) -> Vec<OracleFrequencies> {
    let freqs: Vec<Frequency> = config.board.dvfs.frequencies().collect();
    let points: Vec<(&Workload, Frequency)> = workloads
        .iter()
        .flat_map(|&w| freqs.iter().map(move |&f| (w, f)))
        .collect();
    let mut results = pinned_grid(&points, config, executor).into_iter();
    workloads
        .iter()
        .map(|_| {
            // `freqs` leads the zip, so each sweep takes exactly its own
            // `freqs.len()` results.
            let sweep = freqs
                .iter()
                .zip(results.by_ref())
                .map(|(&frequency, result)| SweepPoint { frequency, result })
                .collect();
            oracle_from_sweep(sweep, config)
        })
        .collect()
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
        let sequential = sweep_frequencies_with(w, &config, &freqs, &Executor::sequential());
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
    fn pinned_grid_matches_per_point_runs() {
        use crate::executor::Parallelism;
        let set = WorkloadSet::paper54();
        // Three pages that share a co-runner kernel, and one that does not.
        let shared = &set.workloads()[0].kernel;
        let mut workloads: Vec<&Workload> = set
            .workloads()
            .iter()
            .filter(|w| w.kernel == *shared)
            .take(3)
            .collect();
        workloads.extend(set.workloads().iter().find(|w| w.kernel != *shared));
        assert_eq!(workloads.len(), 4);
        for soc in ["msm8974", "biglittle-a15a7"] {
            let board = dora_soc::SocProfile::by_name(soc)
                .expect("registered profile")
                .board_config();
            let freqs: Vec<Frequency> = board.dvfs.frequencies().step_by(6).collect();
            let pin = board.dvfs.nearest(Frequency::from_mhz(1190.4));
            let points: Vec<(&Workload, Frequency)> = workloads
                .iter()
                .flat_map(|&w| freqs.iter().map(move |&f| (w, f)))
                .collect();
            for (policy, prefixes) in [
                (WarmupPolicy::Measured, 2 * freqs.len()),
                (WarmupPolicy::Pinned(pin), 2),
            ] {
                let config = ScenarioConfig::builder()
                    .board(board.clone())
                    .warmup(SimDuration::from_secs(1))
                    .warmup_policy(policy)
                    .build();
                assert_eq!(prefix_groups(&points, &config).len(), prefixes);
                let reference: Vec<RunResult> = points
                    .iter()
                    .map(|&(w, f)| run_scenario(w, &mut PinnedGovernor::new("pinned", f), &config))
                    .collect();
                for jobs in [1, 3] {
                    let executor = Executor::new(Parallelism::Fixed(jobs));
                    assert_eq!(
                        pinned_grid(&points, &config, &executor),
                        reference,
                        "{soc}, {policy:?}, {jobs} jobs"
                    );
                }
            }
        }
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
        let r = run_page_observed(&w.page, Some(&w.kernel), &mut g, &config, ring.clone());

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
                panic!("filtered above");
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
