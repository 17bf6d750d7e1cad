//! # dora-governors
//!
//! The CPU-frequency-governor framework of the DORA reproduction, plus
//! every baseline the paper compares against (Section IV-A and V-C):
//!
//! * [`PerformanceGovernor`] — pins the maximum frequency (Android
//!   `performance`).
//! * [`PowersaveGovernor`] — pins the minimum frequency (Android
//!   `powersave`; the paper dismisses it for 7–26 s load times, which the
//!   reproduction's Table III experiment confirms in spirit).
//! * [`InteractiveGovernor`] — a faithful model of Android's default
//!   `interactive` governor: utilization-driven with a hispeed jump and
//!   hysteresis. This is the paper's baseline.
//! * [`ConservativeGovernor`] — a step-up/step-down utilization governor,
//!   included as an extra reference point.
//! * [`PinnedGovernor`] — holds one precomputed frequency. The paper's
//!   hypothetical `DL` (deadline-only, pinned at `fD`), `EE` (energy-only,
//!   pinned at `fE`) and `Offline_opt` governors are pinned governors whose
//!   frequency the campaign determines by oracle enumeration.
//!
//! DORA itself lives in the `dora` crate; it implements the same
//! [`Governor`] trait so the evaluation treats all policies uniformly.
//!
//! # Example
//!
//! ```
//! use dora_governors::{Governor, GovernorObservation, InteractiveGovernor};
//! use dora_soc::DvfsTable;
//! use dora_sim_core::units::{Celsius, Mpki, Utilization};
//! use dora_sim_core::{SimDuration, SimTime};
//!
//! let table = DvfsTable::default();
//! let mut gov = InteractiveGovernor::new(table.clone());
//! let obs = GovernorObservation {
//!     now: SimTime::from_millis(20),
//!     interval: SimDuration::from_millis(20),
//!     frequency: table.min_frequency(),
//!     cluster: 0,
//!     per_core_utilization: [0.95, 0.2, 0.0, 0.0].map(Utilization::clamped).to_vec(),
//!     shared_l2_mpki: Mpki::clamped(3.0),
//!     corun_utilization: Utilization::ZERO,
//!     temperature: Celsius::new(30.0),
//! };
//! let f = gov.decide(&obs);
//! assert!(f > table.min_frequency()); // busy core -> clock up
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use dora_sim_core::units::{Celsius, Mpki, Utilization};
use dora_sim_core::{SimDuration, SimTime};
use dora_soc::{ClusterId, DvfsTable, Frequency, OperatingPoint};
use std::fmt;

/// What a governor sees at each decision point — the same quantities DORA
/// samples from `perf` counters on the phone (utilization, shared-L2 MPKI,
/// temperature) plus the current clock.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorObservation {
    /// Current simulated time.
    pub now: SimTime,
    /// Time since the previous decision.
    pub interval: SimDuration,
    /// The currently programmed core frequency (of the governed cluster).
    pub frequency: Frequency,
    /// The cluster the governed core currently binds to — an index into
    /// the board's cluster list, always `0` on homogeneous parts.
    pub cluster: usize,
    /// Busy fraction of each core over the interval.
    pub per_core_utilization: Vec<Utilization>,
    /// Shared L2 MPKI over the interval (Table I X6).
    pub shared_l2_mpki: Mpki,
    /// Utilization of the co-scheduled task's core (Table I X9).
    pub corun_utilization: Utilization,
    /// Die temperature.
    pub temperature: Celsius,
}

impl GovernorObservation {
    /// The highest per-core utilization (what `interactive` keys on).
    pub fn max_utilization(&self) -> Utilization {
        self.per_core_utilization
            .iter()
            .fold(Utilization::ZERO, |m, &u| m.max(u))
    }
}

/// A CPU frequency governor: a policy mapping observations to frequency
/// settings at a fixed decision cadence.
pub trait Governor: fmt::Debug {
    /// The governor's name as it appears in reports (e.g. `interactive`).
    fn name(&self) -> &str;

    /// How often the governor wants to be consulted.
    fn decision_interval(&self) -> SimDuration;

    /// Chooses the frequency for the next interval. Implementations must
    /// return a frequency that exists in their DVFS table.
    fn decide(&mut self, observation: &GovernorObservation) -> Frequency;

    /// Chooses a full (cluster, frequency) operating point for the next
    /// interval. Heterogeneous-aware governors (DORA on big.LITTLE parts)
    /// override this to search the product space with migration cost in
    /// the decision model; single-knob governors keep the default, which
    /// stays on the observed cluster and delegates the frequency choice
    /// to [`Governor::decide`].
    fn decide_point(&mut self, observation: &GovernorObservation) -> OperatingPoint {
        OperatingPoint {
            cluster: ClusterId::new(observation.cluster),
            frequency: self.decide(observation),
        }
    }

    /// Clears internal state between workloads (hysteresis timers etc.).
    fn reset(&mut self) {}

    /// Notifies the governor that the foreground page changed (browsing
    /// sessions load many pages back to back). Utilization-driven
    /// governors don't care — the default is a no-op — but model-based
    /// governors retarget their page-complexity inputs.
    fn page_changed(&mut self, _page: &dora_browser::PageFeatures) {}

    /// The predicted candidate curve behind the most recent
    /// [`Governor::decide`] call, for observation
    /// ([`dora_sim_core::probe::ProbeEvent::GovernorDecision`] events).
    /// Model-based governors (DORA) report their per-frequency load-time /
    /// power / PPW predictions here; heuristic governors have no such
    /// curve and keep the default `None`.
    fn decision_curve(&self) -> Option<Vec<dora_sim_core::probe::CandidatePrediction>> {
        None
    }
}

/// Always runs at the highest available frequency.
///
/// The Android `performance` governor: "always operates the cores in the
/// highest available frequency of 2.2 GHz" (Section IV-A).
#[derive(Debug, Clone)]
pub struct PerformanceGovernor {
    table: DvfsTable,
    interval: SimDuration,
}

impl PerformanceGovernor {
    /// Creates the governor over a DVFS table.
    pub fn new(table: DvfsTable) -> Self {
        PerformanceGovernor {
            table,
            interval: SimDuration::from_millis(100),
        }
    }
}

impl Governor for PerformanceGovernor {
    fn name(&self) -> &str {
        "performance"
    }

    fn decision_interval(&self) -> SimDuration {
        self.interval
    }

    fn decide(&mut self, _observation: &GovernorObservation) -> Frequency {
        self.table.max_frequency()
    }
}

/// Always runs at the lowest available frequency.
#[derive(Debug, Clone)]
pub struct PowersaveGovernor {
    table: DvfsTable,
    interval: SimDuration,
}

impl PowersaveGovernor {
    /// Creates the governor over a DVFS table.
    pub fn new(table: DvfsTable) -> Self {
        PowersaveGovernor {
            table,
            interval: SimDuration::from_millis(100),
        }
    }
}

impl Governor for PowersaveGovernor {
    fn name(&self) -> &str {
        "powersave"
    }

    fn decision_interval(&self) -> SimDuration {
        self.interval
    }

    fn decide(&mut self, _observation: &GovernorObservation) -> Frequency {
        self.table.min_frequency()
    }
}

/// Holds a single, externally chosen frequency.
///
/// The paper's hypothetical governors are pinned policies: `DL` pins the
/// lowest deadline-meeting frequency `fD`, `EE` pins the PPW-optimal
/// frequency `fE`, and `Offline_opt` pins the single best feasible setting
/// found by exhaustive enumeration. The campaign computes the pin; this
/// type just holds it.
#[derive(Debug, Clone)]
pub struct PinnedGovernor {
    name: String,
    frequency: Frequency,
    interval: SimDuration,
}

impl PinnedGovernor {
    /// Creates a pinned governor. The caller is responsible for passing a
    /// frequency that exists in the board's DVFS table.
    pub fn new(name: impl Into<String>, frequency: Frequency) -> Self {
        PinnedGovernor {
            name: name.into(),
            frequency,
            interval: SimDuration::from_millis(100),
        }
    }

    /// The pinned frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }
}

impl Governor for PinnedGovernor {
    fn name(&self) -> &str {
        &self.name
    }

    fn decision_interval(&self) -> SimDuration {
        self.interval
    }

    fn decide(&mut self, _observation: &GovernorObservation) -> Frequency {
        self.frequency
    }
}

/// Tunables of the [`InteractiveGovernor`], mirroring the sysfs knobs of
/// the Android implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteractiveConfig {
    /// Utilization at which the governor jumps straight to
    /// `hispeed_freq` (`go_hispeed_load`, default 85 %).
    pub go_hispeed_load: Utilization,
    /// The jump target (default: the table frequency nearest 1.19 GHz,
    /// matching typical MSM8974 tuning).
    pub hispeed_freq: Frequency,
    /// The utilization the governor tries to hold (`target_load`).
    pub target_load: Utilization,
    /// Sampling cadence (`timer_rate`, default 20 ms).
    pub timer_rate: SimDuration,
    /// Minimum dwell before clocking down (`min_sample_time`).
    pub min_sample_time: SimDuration,
}

impl Default for InteractiveConfig {
    fn default() -> Self {
        InteractiveConfig {
            go_hispeed_load: Utilization::clamped(0.85),
            hispeed_freq: Frequency::from_mhz(1190.4),
            target_load: Utilization::clamped(0.80),
            timer_rate: SimDuration::from_millis(20),
            min_sample_time: SimDuration::from_millis(80),
        }
    }
}

/// A model of Android's default `interactive` governor — the paper's
/// baseline. It "chooses a frequency setting based on the processor
/// utilization" (Section IV-A): on high load it jumps to a hispeed
/// frequency, then tracks a target utilization, and refuses to clock down
/// until a minimum dwell has passed.
#[derive(Debug, Clone)]
pub struct InteractiveGovernor {
    table: DvfsTable,
    config: InteractiveConfig,
    floor_until: SimTime,
    floor: Frequency,
}

impl InteractiveGovernor {
    /// Creates the governor with default tuning.
    pub fn new(table: DvfsTable) -> Self {
        InteractiveGovernor::with_config(table, InteractiveConfig::default())
    }

    /// Creates the governor with explicit tuning.
    ///
    /// # Panics
    ///
    /// Panics if either load is zero (a [`Utilization`] is already within
    /// `[0, 1]` by construction).
    pub fn with_config(table: DvfsTable, config: InteractiveConfig) -> Self {
        assert!(
            config.go_hispeed_load > Utilization::ZERO,
            "go_hispeed_load must be positive"
        );
        assert!(
            config.target_load > Utilization::ZERO,
            "target_load must be positive"
        );
        let floor = table.min_frequency();
        InteractiveGovernor {
            table,
            config,
            floor_until: SimTime::ZERO,
            floor,
        }
    }

    fn hispeed(&self) -> Frequency {
        self.table.nearest(self.config.hispeed_freq)
    }
}

impl Governor for InteractiveGovernor {
    fn name(&self) -> &str {
        "interactive"
    }

    fn decision_interval(&self) -> SimDuration {
        self.config.timer_rate
    }

    fn decide(&mut self, observation: &GovernorObservation) -> Frequency {
        let util = observation.max_utilization();
        let current = observation.frequency;

        // Demanded frequency so that util·f_cur / f_new == target_load.
        #[expect(
            clippy::disallowed_methods,
            reason = "the kernel scales the clock by a load ratio and snaps the result back to a Frequency"
        )]
        let demanded_mhz = current.as_mhz() * util / self.config.target_load;
        let mut target = self.table.ceil(Frequency::from_mhz(demanded_mhz));

        // Hispeed jump on a busy core.
        if util >= self.config.go_hispeed_load {
            target = target.max(self.hispeed());
        }

        if target > current {
            // Going up establishes a floor we must hold for min_sample_time.
            self.floor = target;
            self.floor_until = observation.now + self.config.min_sample_time;
            target
        } else {
            // Going down is only allowed once the dwell expired.
            if observation.now < self.floor_until {
                target.max(self.floor).max(current)
            } else {
                target
            }
        }
    }

    fn reset(&mut self) {
        self.floor_until = SimTime::ZERO;
        self.floor = self.table.min_frequency();
    }
}

/// A model of the classic Linux `ondemand` governor: jump straight to the
/// maximum frequency when utilization crosses the up-threshold, then decay
/// proportionally to the measured load once demand falls.
#[derive(Debug, Clone)]
pub struct OndemandGovernor {
    table: DvfsTable,
    up_threshold: Utilization,
    interval: SimDuration,
}

impl OndemandGovernor {
    /// Creates the governor with the kernel's default 80 % up-threshold.
    pub fn new(table: DvfsTable) -> Self {
        OndemandGovernor {
            table,
            up_threshold: Utilization::clamped(0.80),
            interval: SimDuration::from_millis(20),
        }
    }

    /// Creates the governor with an explicit up-threshold.
    ///
    /// # Panics
    ///
    /// Panics if `up_threshold` is zero (a [`Utilization`] is already
    /// within `[0, 1]` by construction).
    pub fn with_threshold(table: DvfsTable, up_threshold: Utilization) -> Self {
        assert!(
            up_threshold > Utilization::ZERO,
            "up_threshold must be positive"
        );
        OndemandGovernor {
            table,
            up_threshold,
            interval: SimDuration::from_millis(20),
        }
    }
}

impl Governor for OndemandGovernor {
    fn name(&self) -> &str {
        "ondemand"
    }

    fn decision_interval(&self) -> SimDuration {
        self.interval
    }

    fn decide(&mut self, observation: &GovernorObservation) -> Frequency {
        let util = observation.max_utilization();
        if util >= self.up_threshold {
            self.table.max_frequency()
        } else {
            // The kernel's proportional decay: next = fmax · util / threshold,
            // snapped to the next table frequency at or above the demand.
            #[expect(
                clippy::disallowed_methods,
                reason = "the kernel scales the clock by a load ratio and snaps the result back to a Frequency"
            )]
            let demanded_mhz = self.table.max_frequency().as_mhz() * util / self.up_threshold;
            self.table.ceil(Frequency::from_mhz(demanded_mhz))
        }
    }
}

/// A step-wise utilization governor (in the spirit of Linux
/// `conservative`): one table step up when busy, one step down when idle.
#[derive(Debug, Clone)]
pub struct ConservativeGovernor {
    table: DvfsTable,
    up_threshold: Utilization,
    down_threshold: Utilization,
    interval: SimDuration,
}

impl ConservativeGovernor {
    /// Creates the governor with the classic 80 %/20 % thresholds.
    pub fn new(table: DvfsTable) -> Self {
        ConservativeGovernor {
            table,
            up_threshold: Utilization::clamped(0.80),
            down_threshold: Utilization::clamped(0.20),
            interval: SimDuration::from_millis(20),
        }
    }
}

impl Governor for ConservativeGovernor {
    fn name(&self) -> &str {
        "conservative"
    }

    fn decision_interval(&self) -> SimDuration {
        self.interval
    }

    fn decide(&mut self, observation: &GovernorObservation) -> Frequency {
        let util = observation.max_utilization();
        let f = observation.frequency;
        if util > self.up_threshold {
            self.table.step_up(f).unwrap_or_else(|| self.table.ceil(f))
        } else if util < self.down_threshold {
            self.table
                .step_down(f)
                .unwrap_or_else(|| self.table.min_frequency())
        } else {
            self.table.nearest(f)
        }
    }
}

/// A thermal-throttle wrapper: delegates to any inner governor, but caps
/// the frequency while the die is hot.
///
/// Real phones throttle near their junction limit; the paper's Nexus 5
/// reaches 65 °C at 1.9 GHz and would eventually throttle at sustained
/// fmax. The wrapper engages a descending cap when the die crosses
/// `trip` and releases it once the die cools below `release`
/// (hysteresis so the cap doesn't flap).
///
/// # Example
///
/// ```
/// use dora_governors::{Governor, PerformanceGovernor, ThermalThrottle};
/// use dora_sim_core::units::Celsius;
/// use dora_soc::DvfsTable;
///
/// let table = DvfsTable::default();
/// let inner = PerformanceGovernor::new(table.clone());
/// let throttled =
///     ThermalThrottle::new(Box::new(inner), table, Celsius::new(85.0), Celsius::new(75.0));
/// assert_eq!(throttled.name(), "performance+throttle");
/// ```
#[derive(Debug)]
pub struct ThermalThrottle {
    inner: Box<dyn Governor>,
    table: DvfsTable,
    trip: Celsius,
    release: Celsius,
    name: String,
    cap: Option<Frequency>,
}

impl ThermalThrottle {
    /// Wraps `inner` with a thermal cap.
    ///
    /// # Panics
    ///
    /// Panics unless `release < trip` (the hysteresis band must be
    /// non-empty) or if either threshold is outside a plausible die range.
    pub fn new(
        inner: Box<dyn Governor>,
        table: DvfsTable,
        trip: Celsius,
        release: Celsius,
    ) -> Self {
        assert!(
            release < trip,
            "hysteresis requires release ({release}) below trip ({trip})"
        );
        assert!(
            (Celsius::new(40.0)..=Celsius::new(150.0)).contains(&trip),
            "implausible trip point {trip}"
        );
        let name = format!("{}+throttle", inner.name());
        ThermalThrottle {
            inner,
            table,
            trip,
            release,
            name,
            cap: None,
        }
    }

    /// The currently engaged cap, if any.
    pub fn cap(&self) -> Option<Frequency> {
        self.cap
    }
}

impl Governor for ThermalThrottle {
    fn name(&self) -> &str {
        &self.name
    }

    fn decision_interval(&self) -> SimDuration {
        self.inner.decision_interval()
    }

    fn decide(&mut self, observation: &GovernorObservation) -> Frequency {
        let wanted = self.inner.decide(observation);
        // Update the cap state machine.
        if observation.temperature >= self.trip {
            // Engage, or ratchet one step further down while still hot.
            let next = match self.cap {
                None => self
                    .table
                    .step_down(observation.frequency)
                    .unwrap_or_else(|| self.table.min_frequency()),
                Some(cap) => self
                    .table
                    .step_down(cap)
                    .unwrap_or_else(|| self.table.min_frequency()),
            };
            self.cap = Some(next);
        } else if observation.temperature <= self.release {
            self.cap = None;
        }
        match self.cap {
            Some(cap) if wanted > cap => cap,
            _ => wanted,
        }
    }

    fn reset(&mut self) {
        self.cap = None;
        self.inner.reset();
    }

    fn page_changed(&mut self, page: &dora_browser::PageFeatures) {
        self.inner.page_changed(page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(now_ms: u64, freq: Frequency, utils: Vec<f64>) -> GovernorObservation {
        GovernorObservation {
            now: SimTime::from_millis(now_ms),
            interval: SimDuration::from_millis(20),
            frequency: freq,
            cluster: 0,
            per_core_utilization: utils.into_iter().map(Utilization::clamped).collect(),
            shared_l2_mpki: Mpki::clamped(2.0),
            corun_utilization: Utilization::clamped(0.5),
            temperature: Celsius::new(35.0),
        }
    }

    #[test]
    fn performance_always_max() {
        let t = DvfsTable::default();
        let mut g = PerformanceGovernor::new(t.clone());
        let o = obs(0, t.min_frequency(), vec![0.0]);
        assert_eq!(g.decide(&o), t.max_frequency());
        assert_eq!(g.name(), "performance");
    }

    #[test]
    fn powersave_always_min() {
        let t = DvfsTable::default();
        let mut g = PowersaveGovernor::new(t.clone());
        let o = obs(0, t.max_frequency(), vec![1.0]);
        assert_eq!(g.decide(&o), t.min_frequency());
    }

    #[test]
    fn pinned_holds_its_frequency() {
        let t = DvfsTable::default();
        let f = Frequency::from_mhz(1497.6);
        let mut g = PinnedGovernor::new("DL", f);
        assert_eq!(g.decide(&obs(0, t.min_frequency(), vec![0.1])), f);
        assert_eq!(g.decide(&obs(500, t.max_frequency(), vec![1.0])), f);
        assert_eq!(g.frequency(), f);
        assert_eq!(g.name(), "DL");
    }

    #[test]
    fn interactive_jumps_to_hispeed_on_load() {
        let t = DvfsTable::default();
        let mut g = InteractiveGovernor::new(t.clone());
        let f = g.decide(&obs(20, t.min_frequency(), vec![0.95, 0.1, 0.0, 0.0]));
        assert!(f >= Frequency::from_mhz(1190.4), "hispeed jump, got {f}");
    }

    #[test]
    fn interactive_tracks_target_load_upward() {
        let t = DvfsTable::default();
        let mut g = InteractiveGovernor::new(t.clone());
        // Saturated at 1.5 GHz: demanded = 1497.6/0.8 = 1872 -> ceil 1958.4,
        // and the hispeed rule cannot pull it back down.
        let f = g.decide(&obs(20, Frequency::from_mhz(1497.6), vec![1.0]));
        assert_eq!(f, Frequency::from_mhz(1958.4));
    }

    #[test]
    fn interactive_holds_floor_during_min_sample_time() {
        let t = DvfsTable::default();
        let mut g = InteractiveGovernor::new(t.clone());
        // Jump up at t=20ms.
        let up = g.decide(&obs(20, t.min_frequency(), vec![0.95]));
        assert!(up > t.min_frequency());
        // Idle immediately after: must hold the floor (dwell not expired).
        let hold = g.decide(&obs(40, up, vec![0.05]));
        assert!(hold >= up, "floor violated: {hold} < {up}");
        // After the dwell expires the governor may fall.
        let fall = g.decide(&obs(200, up, vec![0.05]));
        assert!(fall < up, "should fall after dwell: {fall}");
    }

    #[test]
    fn interactive_reset_clears_floor() {
        let t = DvfsTable::default();
        let mut g = InteractiveGovernor::new(t.clone());
        let up = g.decide(&obs(20, t.min_frequency(), vec![1.0]));
        g.reset();
        let f = g.decide(&obs(40, t.min_frequency(), vec![0.01]));
        assert!(f < up);
        assert_eq!(f, t.min_frequency());
    }

    #[test]
    fn interactive_idle_returns_minimum() {
        let t = DvfsTable::default();
        let mut g = InteractiveGovernor::new(t.clone());
        let f = g.decide(&obs(1000, t.min_frequency(), vec![0.0, 0.0, 0.0, 0.0]));
        assert_eq!(f, t.min_frequency());
    }

    #[test]
    fn ondemand_jumps_to_max_and_decays_proportionally() {
        let t = DvfsTable::default();
        let mut g = OndemandGovernor::new(t.clone());
        assert_eq!(g.name(), "ondemand");
        // Busy: straight to fmax.
        assert_eq!(
            g.decide(&obs(0, Frequency::from_mhz(300.0), vec![0.9])),
            t.max_frequency()
        );
        // Half load: ~ fmax * 0.5 / 0.8 = 1.416 GHz -> ceil to 1.4976.
        assert_eq!(
            g.decide(&obs(20, t.max_frequency(), vec![0.5])),
            Frequency::from_mhz(1497.6)
        );
        // Idle: the bottom of the table.
        assert_eq!(
            g.decide(&obs(40, t.max_frequency(), vec![0.0])),
            t.min_frequency()
        );
    }

    #[test]
    #[should_panic(expected = "up_threshold")]
    fn ondemand_rejects_bad_threshold() {
        let _ = OndemandGovernor::with_threshold(DvfsTable::default(), Utilization::ZERO);
    }

    #[test]
    fn conservative_steps_one_at_a_time() {
        let t = DvfsTable::default();
        let mut g = ConservativeGovernor::new(t.clone());
        let start = Frequency::from_mhz(960.0);
        let up = g.decide(&obs(0, start, vec![0.95]));
        assert_eq!(up, t.step_up(start).expect("start is a table entry"));
        let down = g.decide(&obs(20, start, vec![0.05]));
        assert_eq!(down, t.step_down(start).expect("start is a table entry"));
        let hold = g.decide(&obs(40, start, vec![0.5]));
        assert_eq!(hold, start);
    }

    #[test]
    fn max_utilization_clamps() {
        let o = GovernorObservation {
            now: SimTime::ZERO,
            interval: SimDuration::from_millis(20),
            frequency: Frequency::from_mhz(300.0),
            cluster: 0,
            per_core_utilization: [1.7, -0.5, 0.4].map(Utilization::clamped).to_vec(),
            shared_l2_mpki: Mpki::ZERO,
            corun_utilization: Utilization::ZERO,
            temperature: Celsius::new(25.0),
        };
        assert_eq!(o.max_utilization(), Utilization::ONE);
    }

    fn hot_obs(freq: Frequency, temp_c: f64) -> GovernorObservation {
        GovernorObservation {
            temperature: Celsius::new(temp_c),
            ..obs(0, freq, vec![1.0])
        }
    }

    #[test]
    fn throttle_engages_ratchets_and_releases() {
        let t = DvfsTable::default();
        let mut g = ThermalThrottle::new(
            Box::new(PerformanceGovernor::new(t.clone())),
            t.clone(),
            Celsius::new(85.0),
            Celsius::new(75.0),
        );
        // Cool: passes the inner decision through.
        assert_eq!(
            g.decide(&hot_obs(t.max_frequency(), 60.0)),
            t.max_frequency()
        );
        assert!(g.cap().is_none());
        // Hot: caps one step below the running frequency.
        let f1 = g.decide(&hot_obs(t.max_frequency(), 90.0));
        assert_eq!(f1, Frequency::from_mhz(2112.0));
        // Still hot: ratchets further down.
        let f2 = g.decide(&hot_obs(f1, 90.0));
        assert!(f2 < f1);
        // In the hysteresis band: cap holds.
        let f3 = g.decide(&hot_obs(f2, 80.0));
        assert_eq!(f3, f2);
        // Cooled below release: cap drops, inner wins again.
        let f4 = g.decide(&hot_obs(f3, 70.0));
        assert_eq!(f4, t.max_frequency());
    }

    #[test]
    fn throttle_never_raises_the_inner_choice() {
        let t = DvfsTable::default();
        let mut g = ThermalThrottle::new(
            Box::new(PowersaveGovernor::new(t.clone())),
            t.clone(),
            Celsius::new(85.0),
            Celsius::new(75.0),
        );
        // Even while hot, powersave's fmin is below any cap.
        assert_eq!(
            g.decide(&hot_obs(t.min_frequency(), 95.0)),
            t.min_frequency()
        );
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn throttle_rejects_inverted_band() {
        let t = DvfsTable::default();
        let _ = ThermalThrottle::new(
            Box::new(PerformanceGovernor::new(t.clone())),
            t,
            Celsius::new(70.0),
            Celsius::new(80.0),
        );
    }

    #[test]
    fn default_decide_point_stays_on_the_observed_cluster() {
        let t = DvfsTable::default();
        let mut g = PerformanceGovernor::new(t.clone());
        let mut o = obs(0, t.min_frequency(), vec![1.0]);
        o.cluster = 1;
        let p = g.decide_point(&o);
        assert_eq!(p.cluster, ClusterId::new(1));
        assert_eq!(p.frequency, t.max_frequency());
    }

    #[test]
    fn decision_intervals_are_positive() {
        let t = DvfsTable::default();
        let governors: Vec<Box<dyn Governor>> = vec![
            Box::new(PerformanceGovernor::new(t.clone())),
            Box::new(PowersaveGovernor::new(t.clone())),
            Box::new(InteractiveGovernor::new(t.clone())),
            Box::new(ConservativeGovernor::new(t.clone())),
            Box::new(PinnedGovernor::new("EE", t.min_frequency())),
        ];
        for g in &governors {
            assert!(!g.decision_interval().is_zero(), "{}", g.name());
        }
    }
}
