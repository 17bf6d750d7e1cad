//! The workload abstraction executed by simulated cores.
//!
//! A [`Task`] is a stream of *phases*. Each phase advertises a
//! [`PhaseProfile`] — how compute- vs memory-hungry the work currently is —
//! and consumes retired instructions until its budget is exhausted. Browser
//! rendering stages (`dora-browser`) and Rodinia-like interference kernels
//! (`dora-coworkloads`) both implement this trait; the [`board`] only ever
//! sees the trait.
//!
//! [`board`]: crate::board

use std::fmt;

/// The execution profile of a task's current phase.
///
/// These are the knobs through which a workload influences the timing,
/// cache, memory and power models:
///
/// * `base_cpi` — cycles per instruction with a perfect L2 (no misses).
/// * `l2_apki` — L2 accesses per kilo-instruction (i.e. L1 misses reaching
///   the shared cache).
/// * `working_set_bytes` — how much L2 occupancy the phase can profitably
///   use; the contention model allocates occupancy against this.
/// * `reuse_fraction` — fraction of L2 accesses that *can* hit given enough
///   occupancy; the remainder is streaming/compulsory traffic that misses
///   regardless (so even an infinite cache shows some MPKI).
/// * `duty_cycle` — fraction of wall time the task wants the core; the rest
///   is idle (models interactive pauses and periodic kernels, and feeds the
///   paper's X9 "core utilization of co-scheduled task" variable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseProfile {
    /// Cycles per instruction assuming every L2 access hits.
    pub base_cpi: f64,
    /// Shared-L2 accesses per kilo-instruction.
    pub l2_apki: f64,
    /// Cache working set in bytes.
    pub working_set_bytes: f64,
    /// Fraction of L2 accesses that are reusable (cacheable) traffic.
    pub reuse_fraction: f64,
    /// Fraction of wall-clock time the task occupies its core.
    pub duty_cycle: f64,
}

impl PhaseProfile {
    /// A purely compute-bound profile: CPI 1, negligible L2 traffic.
    pub fn compute_bound() -> Self {
        PhaseProfile {
            base_cpi: 1.0,
            l2_apki: 0.2,
            working_set_bytes: 16.0 * 1024.0,
            reuse_fraction: 0.95,
            duty_cycle: 1.0,
        }
    }

    /// A memory-streaming profile: every access is a compulsory miss.
    pub fn streaming(l2_apki: f64) -> Self {
        PhaseProfile {
            base_cpi: 1.2,
            l2_apki,
            working_set_bytes: 8.0 * 1024.0 * 1024.0,
            reuse_fraction: 0.05,
            duty_cycle: 1.0,
        }
    }

    /// Validates that all fields are finite and within their domains.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let checks: [(&str, bool); 6] = [
            (
                "base_cpi must be positive and finite",
                self.base_cpi.is_finite() && self.base_cpi > 0.0,
            ),
            (
                "l2_apki must be non-negative and finite",
                self.l2_apki.is_finite() && self.l2_apki >= 0.0,
            ),
            (
                "working_set_bytes must be non-negative and finite",
                self.working_set_bytes.is_finite() && self.working_set_bytes >= 0.0,
            ),
            (
                "reuse_fraction must be in [0, 1]",
                self.reuse_fraction.is_finite() && (0.0..=1.0).contains(&self.reuse_fraction),
            ),
            (
                "duty_cycle must be in (0, 1]",
                self.duty_cycle.is_finite() && self.duty_cycle > 0.0 && self.duty_cycle <= 1.0,
            ),
            ("l2_apki must be at most 1000", self.l2_apki <= 1000.0),
        ];
        for (msg, ok) in checks {
            if !ok {
                return Err(format!("{msg} (got {self:?})"));
            }
        }
        Ok(())
    }
}

/// A unit of schedulable work, pulled on by a simulated core.
///
/// Implementations must be deterministic given their construction inputs;
/// any randomness should come from a seed captured at construction time.
///
/// `Send + Sync` bounds make boxed tasks — and therefore
/// [`crate::snapshot::BoardSnapshot`]s — shareable across the campaign
/// executor's worker threads, which is what lets one warmed-up snapshot
/// fan out into parallel per-frequency continuations.
pub trait Task: fmt::Debug + Send + Sync {
    /// A short human-readable name for traces and reports.
    fn name(&self) -> &str;

    /// The profile of the current phase, or `None` once the task has
    /// finished all its work. A finished task stays finished. The board
    /// reads this right after each `retire` and holds the answer until
    /// the task retires again, so it must change only through `retire`.
    fn profile(&self) -> Option<PhaseProfile>;

    /// Consumes `instructions` retired instructions (fractional — quanta
    /// rarely align with phase boundaries). Implementations advance their
    /// phase machinery; over-delivery beyond the remaining budget is
    /// silently discarded.
    fn retire(&mut self, instructions: f64);

    /// Whether the task has no work left.
    fn is_finished(&self) -> bool {
        self.profile().is_none()
    }

    /// Total instructions retired so far.
    fn retired(&self) -> f64;

    /// How many instructions remain before the task finishes, when the
    /// task can tell. The board uses this hint to interpolate completion
    /// times within a quantum; endless tasks return `None` (the default).
    fn remaining_instructions(&self) -> Option<f64> {
        None
    }

    /// A boxed deep copy of the task in its *current* state (retired
    /// work, phase position and all), used by
    /// [`crate::board::Board::snapshot`] to checkpoint a running board.
    /// Cloneable implementations simply box a clone.
    fn snapshot_box(&self) -> Box<dyn Task>;
}

/// An endlessly repeating single-phase task.
///
/// Useful as a minimal co-runner or for calibration: it never finishes and
/// always advertises the same profile.
///
/// # Example
///
/// ```
/// use dora_soc::task::{LoopTask, PhaseProfile, Task};
///
/// let mut t = LoopTask::new("stream", PhaseProfile::streaming(30.0));
/// assert!(!t.is_finished());
/// t.retire(1.0e6);
/// assert_eq!(t.retired(), 1.0e6);
/// ```
#[derive(Debug, Clone)]
pub struct LoopTask {
    name: String,
    profile: PhaseProfile,
    retired: f64,
}

impl LoopTask {
    /// Creates a looping task with the given profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`PhaseProfile::validate`].
    #[expect(
        clippy::expect_used,
        reason = "constructor contract: documented # Panics"
    )]
    pub fn new(name: impl Into<String>, profile: PhaseProfile) -> Self {
        profile.validate().expect("invalid phase profile");
        LoopTask {
            name: name.into(),
            profile,
            retired: 0.0,
        }
    }

    /// A compute-bound looping task with the given duty cycle.
    ///
    /// # Panics
    ///
    /// Panics if `duty_cycle` is outside `(0, 1]`.
    pub fn compute_bound(name: impl Into<String>, duty_cycle: f64) -> Self {
        let profile = PhaseProfile {
            duty_cycle,
            ..PhaseProfile::compute_bound()
        };
        LoopTask::new(name, profile)
    }
}

impl Task for LoopTask {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> Option<PhaseProfile> {
        Some(self.profile)
    }

    fn retire(&mut self, instructions: f64) {
        if instructions.is_finite() && instructions > 0.0 {
            self.retired += instructions;
        }
    }

    fn retired(&self) -> f64 {
        self.retired
    }

    fn snapshot_box(&self) -> Box<dyn Task> {
        Box::new(self.clone())
    }
}

/// A finite task built from an explicit list of `(instruction budget,
/// profile)` phases, executed in order.
///
/// This is the workhorse used by the browser rendering pipeline and the
/// co-run kernels.
///
/// # Example
///
/// ```
/// use dora_soc::task::{PhasedTask, PhaseProfile, Task};
///
/// let mut t = PhasedTask::new(
///     "two-phase",
///     vec![
///         (1000.0, PhaseProfile::compute_bound()),
///         (500.0, PhaseProfile::streaming(20.0)),
///     ],
/// );
/// t.retire(1200.0); // crosses the phase boundary
/// assert_eq!(t.current_phase(), Some(1));
/// t.retire(400.0);
/// assert!(t.is_finished());
/// ```
#[derive(Debug, Clone)]
pub struct PhasedTask {
    name: String,
    phases: Vec<(f64, PhaseProfile)>,
    phase_index: usize,
    consumed_in_phase: f64,
    /// The budgets of the phases after `phase_index`, summed left to
    /// right; recomputed whenever `phase_index` advances.
    later_budget: f64,
    retired: f64,
}

impl PhasedTask {
    /// Creates a task from ordered `(instructions, profile)` phases.
    ///
    /// # Panics
    ///
    /// Panics if any phase has a non-positive instruction budget or an
    /// invalid profile.
    #[expect(
        clippy::expect_used,
        reason = "constructor contract: documented # Panics"
    )]
    pub fn new(name: impl Into<String>, phases: Vec<(f64, PhaseProfile)>) -> Self {
        for (budget, profile) in &phases {
            assert!(
                budget.is_finite() && *budget > 0.0,
                "phase budget must be positive, got {budget}"
            );
            profile.validate().expect("invalid phase profile");
        }
        let mut task = PhasedTask {
            name: name.into(),
            phases,
            phase_index: 0,
            consumed_in_phase: 0.0,
            later_budget: 0.0,
            retired: 0.0,
        };
        task.later_budget = task.budget_after_current();
        task
    }

    /// The budgets of the phases after the current one, summed left to
    /// right; zero once the task has finished.
    fn budget_after_current(&self) -> f64 {
        self.phases
            .get(self.phase_index + 1..)
            .map_or(0.0, |later| later.iter().map(|(b, _)| b).sum())
    }

    /// Index of the currently executing phase, or `None` when finished.
    pub fn current_phase(&self) -> Option<usize> {
        (self.phase_index < self.phases.len()).then_some(self.phase_index)
    }

    /// Total instruction budget across all phases.
    pub fn total_instructions(&self) -> f64 {
        self.phases.iter().map(|(b, _)| b).sum()
    }

    /// Instructions retired in the current phase so far; zero once the
    /// task has finished.
    pub fn consumed_in_phase(&self) -> f64 {
        self.consumed_in_phase
    }

    /// Instructions still to retire before the task finishes: what is
    /// left of the current phase plus the later phases' budgets. O(1):
    /// the later budgets are summed when the phase advances.
    pub fn remaining_instructions(&self) -> f64 {
        if self.phase_index >= self.phases.len() {
            return 0.0;
        }
        let current_left = self.phases[self.phase_index].0 - self.consumed_in_phase;
        current_left + self.later_budget
    }
}

impl Task for PhasedTask {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> Option<PhaseProfile> {
        self.phases.get(self.phase_index).map(|(_, p)| *p)
    }

    fn retire(&mut self, instructions: f64) {
        if !instructions.is_finite() || instructions <= 0.0 {
            return;
        }
        let mut left = instructions;
        while left > 0.0 && self.phase_index < self.phases.len() {
            let budget = self.phases[self.phase_index].0;
            let room = budget - self.consumed_in_phase;
            let eaten = left.min(room);
            self.consumed_in_phase += eaten;
            self.retired += eaten;
            left -= eaten;
            // Relative epsilon: accumulated float error from repeated
            // subtraction scales with the budget's magnitude.
            if self.consumed_in_phase >= budget - (budget * 1e-12).max(1e-9) {
                self.phase_index += 1;
                self.consumed_in_phase = 0.0;
                self.later_budget = self.budget_after_current();
            }
        }
    }

    fn retired(&self) -> f64 {
        self.retired
    }

    fn remaining_instructions(&self) -> Option<f64> {
        Some(PhasedTask::remaining_instructions(self))
    }

    fn snapshot_box(&self) -> Box<dyn Task> {
        Box::new(self.clone())
    }
}

/// An endless task cycling through a fixed sequence of phases.
///
/// Co-run interference kernels loop their algorithm for the whole
/// measurement (the paper pins them to a core for the duration of the web
/// page load); `CyclicTask` models that: when the last phase's budget is
/// consumed it wraps back to the first, forever.
///
/// # Example
///
/// ```
/// use dora_soc::task::{CyclicTask, PhaseProfile, Task};
///
/// let mut t = CyclicTask::new(
///     "kernel",
///     vec![
///         (100.0, PhaseProfile::compute_bound()),
///         (100.0, PhaseProfile::streaming(25.0)),
///     ],
/// );
/// t.retire(250.0); // wraps: ends 50 into the first phase again
/// assert!(!t.is_finished());
/// assert_eq!(t.completed_cycles(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CyclicTask {
    name: String,
    phases: Vec<(f64, PhaseProfile)>,
    phase_index: usize,
    consumed_in_phase: f64,
    retired: f64,
    completed_cycles: u64,
}

impl CyclicTask {
    /// Creates an endless cyclic task.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty, any budget is non-positive, or any
    /// profile is invalid.
    #[expect(
        clippy::expect_used,
        reason = "constructor contract: documented # Panics"
    )]
    pub fn new(name: impl Into<String>, phases: Vec<(f64, PhaseProfile)>) -> Self {
        assert!(!phases.is_empty(), "a cyclic task needs at least one phase");
        for (budget, profile) in &phases {
            assert!(
                budget.is_finite() && *budget > 0.0,
                "phase budget must be positive, got {budget}"
            );
            profile.validate().expect("invalid phase profile");
        }
        CyclicTask {
            name: name.into(),
            phases,
            phase_index: 0,
            consumed_in_phase: 0.0,
            retired: 0.0,
            completed_cycles: 0,
        }
    }

    /// How many full trips through the phase list have completed.
    pub fn completed_cycles(&self) -> u64 {
        self.completed_cycles
    }

    /// Index of the phase currently executing.
    pub fn current_phase(&self) -> usize {
        self.phase_index
    }
}

impl Task for CyclicTask {
    fn name(&self) -> &str {
        &self.name
    }

    fn profile(&self) -> Option<PhaseProfile> {
        Some(self.phases[self.phase_index].1)
    }

    fn retire(&mut self, instructions: f64) {
        if !instructions.is_finite() || instructions <= 0.0 {
            return;
        }
        let mut left = instructions;
        // Bound the number of wraps so absurd over-delivery cannot spin.
        let mut guard = 0u32;
        while left > 0.0 && guard < 1_000_000 {
            guard += 1;
            let budget = self.phases[self.phase_index].0;
            let room = budget - self.consumed_in_phase;
            let eaten = left.min(room);
            self.consumed_in_phase += eaten;
            self.retired += eaten;
            left -= eaten;
            if self.consumed_in_phase >= budget - (budget * 1e-12).max(1e-9) {
                self.consumed_in_phase = 0.0;
                self.phase_index += 1;
                if self.phase_index == self.phases.len() {
                    self.phase_index = 0;
                    self.completed_cycles += 1;
                }
            }
        }
    }

    fn retired(&self) -> f64 {
        self.retired
    }

    fn snapshot_box(&self) -> Box<dyn Task> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_validation_catches_bad_fields() {
        let good = PhaseProfile::compute_bound();
        assert!(good.validate().is_ok());
        assert!(PhaseProfile {
            base_cpi: 0.0,
            ..good
        }
        .validate()
        .is_err());
        assert!(PhaseProfile {
            l2_apki: -1.0,
            ..good
        }
        .validate()
        .is_err());
        assert!(PhaseProfile {
            reuse_fraction: 1.5,
            ..good
        }
        .validate()
        .is_err());
        assert!(PhaseProfile {
            duty_cycle: 0.0,
            ..good
        }
        .validate()
        .is_err());
        assert!(PhaseProfile {
            duty_cycle: 1.5,
            ..good
        }
        .validate()
        .is_err());
        assert!(PhaseProfile {
            working_set_bytes: f64::NAN,
            ..good
        }
        .validate()
        .is_err());
    }

    #[test]
    fn loop_task_never_finishes() {
        let mut t = LoopTask::compute_bound("spin", 0.5);
        for _ in 0..100 {
            t.retire(1e6);
        }
        assert!(!t.is_finished());
        assert_eq!(t.retired(), 1e8);
        assert_eq!(t.profile().expect("looping").duty_cycle, 0.5);
    }

    #[test]
    fn loop_task_ignores_bad_retire_amounts() {
        let mut t = LoopTask::compute_bound("spin", 1.0);
        t.retire(-5.0);
        t.retire(f64::NAN);
        assert_eq!(t.retired(), 0.0);
    }

    #[test]
    fn phased_task_walks_phases_in_order() {
        let mut t = PhasedTask::new(
            "p",
            vec![
                (100.0, PhaseProfile::compute_bound()),
                (200.0, PhaseProfile::streaming(10.0)),
                (50.0, PhaseProfile::compute_bound()),
            ],
        );
        assert_eq!(t.total_instructions(), 350.0);
        assert_eq!(t.current_phase(), Some(0));
        t.retire(99.0);
        assert_eq!(t.current_phase(), Some(0));
        t.retire(1.0);
        assert_eq!(t.current_phase(), Some(1));
        assert!((t.remaining_instructions() - 250.0).abs() < 1e-9);
        t.retire(1000.0); // over-delivery is discarded
        assert!(t.is_finished());
        assert_eq!(t.profile(), None);
        assert!((t.retired() - 350.0).abs() < 1e-9);
    }

    #[test]
    fn phased_task_crossing_boundary_in_one_retire() {
        let mut t = PhasedTask::new(
            "p",
            vec![
                (10.0, PhaseProfile::compute_bound()),
                (10.0, PhaseProfile::streaming(5.0)),
            ],
        );
        t.retire(15.0);
        assert_eq!(t.current_phase(), Some(1));
        assert!((t.remaining_instructions() - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn phased_task_rejects_zero_budget() {
        let _ = PhasedTask::new("bad", vec![(0.0, PhaseProfile::compute_bound())]);
    }

    #[test]
    fn cyclic_task_wraps_and_counts_cycles() {
        let mut t = CyclicTask::new(
            "c",
            vec![
                (10.0, PhaseProfile::compute_bound()),
                (20.0, PhaseProfile::streaming(5.0)),
            ],
        );
        t.retire(35.0); // one full cycle (30) plus 5 into phase 0
        assert_eq!(t.completed_cycles(), 1);
        assert_eq!(t.current_phase(), 0);
        assert!(!t.is_finished());
        assert_eq!(t.retired(), 35.0);
        assert_eq!(t.remaining_instructions(), None);
    }

    #[test]
    fn cyclic_task_profile_follows_phase() {
        let mut t = CyclicTask::new(
            "c",
            vec![
                (10.0, PhaseProfile::compute_bound()),
                (10.0, PhaseProfile::streaming(50.0)),
            ],
        );
        let first = t.profile().expect("endless").l2_apki;
        t.retire(10.0);
        let second = t.profile().expect("endless").l2_apki;
        assert!(second > first);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn cyclic_task_rejects_empty() {
        let _ = CyclicTask::new("c", vec![]);
    }

    #[test]
    fn streaming_profile_is_memory_heavy() {
        let p = PhaseProfile::streaming(40.0);
        assert!(p.l2_apki > PhaseProfile::compute_bound().l2_apki);
        assert!(p.reuse_fraction < 0.5);
        assert!(p.validate().is_ok());
    }
}
