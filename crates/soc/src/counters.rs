//! `perf`-style performance counters.
//!
//! The paper configures the Android kernel for `perf` profiling and DORA
//! samples counters every decision interval (Section V-H task 1). Governors
//! in this reproduction read the same quantities: retired instructions,
//! busy time (→ utilization), and shared-L2 accesses/misses (→ MPKI, the
//! paper's interference proxy X6).
//!
//! Counters accumulate monotonically; governors take [`CounterSet::snapshot`]s
//! and difference them with [`CounterSet::delta`] to get per-interval rates,
//! exactly like reading `/proc`-exported counters twice.

use dora_sim_core::units::{Mpki, Seconds, Utilization};

/// Monotonic counters for one core.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoreCounters {
    /// Retired instructions.
    pub instructions: f64,
    /// Time the core spent executing (not idle).
    pub busy_time: Seconds,
    /// Wall-clock time the core existed (powered on).
    pub total_time: Seconds,
    /// Accesses reaching the shared L2.
    pub l2_accesses: f64,
    /// Shared-L2 misses.
    pub l2_misses: f64,
}

impl CoreCounters {
    /// L2 misses per kilo-instruction. Zero when no instructions retired.
    pub fn mpki(&self) -> Mpki {
        if self.instructions <= 0.0 {
            Mpki::ZERO
        } else {
            Mpki::clamped(self.l2_misses / (self.instructions / 1000.0))
        }
    }

    /// L2 accesses per kilo-instruction.
    pub fn apki(&self) -> f64 {
        if self.instructions <= 0.0 {
            0.0
        } else {
            self.l2_accesses / (self.instructions / 1000.0)
        }
    }

    /// Busy fraction in `[0, 1]`. Zero when no wall time has elapsed.
    pub fn utilization(&self) -> Utilization {
        if self.total_time <= Seconds::ZERO {
            Utilization::ZERO
        } else {
            Utilization::clamped(self.busy_time / self.total_time)
        }
    }

    /// Element-wise difference `self − earlier`, saturating at zero (a
    /// counter can never run backwards; clamping guards float dust).
    pub fn delta(&self, earlier: &CoreCounters) -> CoreCounters {
        CoreCounters {
            instructions: (self.instructions - earlier.instructions).max(0.0),
            busy_time: (self.busy_time - earlier.busy_time).max(Seconds::ZERO),
            total_time: (self.total_time - earlier.total_time).max(Seconds::ZERO),
            l2_accesses: (self.l2_accesses - earlier.l2_accesses).max(0.0),
            l2_misses: (self.l2_misses - earlier.l2_misses).max(0.0),
        }
    }

    /// Accumulates another counter block into this one.
    pub fn add(&mut self, other: &CoreCounters) {
        self.instructions += other.instructions;
        self.busy_time += other.busy_time;
        self.total_time += other.total_time;
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
    }
}

/// A snapshot of all cores' counters at one instant.
///
/// # Example
///
/// ```
/// use dora_soc::counters::{CoreCounters, CounterSet};
///
/// let mut set = CounterSet::new(2);
/// set.core_mut(0).instructions = 1.0e6;
/// set.core_mut(0).l2_misses = 5.0e3;
/// let snap = set.snapshot();
/// set.core_mut(0).instructions = 2.0e6;
/// set.core_mut(0).l2_misses = 9.0e3;
/// let delta = set.delta(&snap);
/// assert_eq!(delta.core(0).instructions, 1.0e6);
/// assert_eq!(delta.core(0).mpki().value(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterSet {
    cores: Vec<CoreCounters>,
}

impl CounterSet {
    /// Creates a zeroed set for `n` cores.
    pub fn new(n: usize) -> Self {
        CounterSet {
            cores: vec![CoreCounters::default(); n],
        }
    }

    /// Number of cores tracked.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the set tracks zero cores.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// The counters of core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core(&self, i: usize) -> &CoreCounters {
        &self.cores[i]
    }

    /// Mutable access for the board to accumulate into.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core_mut(&mut self, i: usize) -> &mut CoreCounters {
        &mut self.cores[i]
    }

    /// All cores.
    pub fn cores(&self) -> &[CoreCounters] {
        &self.cores
    }

    /// A copy of the current values.
    pub fn snapshot(&self) -> CounterSet {
        self.clone()
    }

    /// Per-core difference `self − earlier`.
    ///
    /// # Panics
    ///
    /// Panics if the two sets track different core counts.
    pub fn delta(&self, earlier: &CounterSet) -> CounterSet {
        assert_eq!(
            self.cores.len(),
            earlier.cores.len(),
            "snapshot core-count mismatch"
        );
        CounterSet {
            cores: self
                .cores
                .iter()
                .zip(&earlier.cores)
                .map(|(now, then)| now.delta(then))
                .collect(),
        }
    }

    /// Aggregate counters over a subset of cores (e.g. the two browser
    /// cores), summing instruction and cache traffic and wall/busy time.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn aggregate(&self, core_ids: &[usize]) -> CoreCounters {
        let mut acc = CoreCounters::default();
        for &i in core_ids {
            acc.add(&self.cores[i]);
        }
        acc
    }

    /// Combined L2 MPKI across every core — the "shared L2 cache MPKI"
    /// DORA monitors (the paper's X6 covers total pressure on the shared
    /// cache, not a single core's).
    pub fn shared_l2_mpki(&self) -> Mpki {
        let ids: Vec<usize> = (0..self.cores.len()).collect();
        self.aggregate(&ids).mpki()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(instr: f64, busy: f64, total: f64, acc: f64, miss: f64) -> CoreCounters {
        CoreCounters {
            instructions: instr,
            busy_time: Seconds::new(busy),
            total_time: Seconds::new(total),
            l2_accesses: acc,
            l2_misses: miss,
        }
    }

    #[test]
    fn derived_rates() {
        let c = counters(2.0e6, 0.5, 1.0, 4.0e4, 1.0e4);
        assert_eq!(c.mpki().value(), 5.0);
        assert_eq!(c.apki(), 20.0);
        assert_eq!(c.utilization().value(), 0.5);
    }

    #[test]
    fn zero_instruction_rates_are_zero() {
        let c = CoreCounters::default();
        assert_eq!(c.mpki(), Mpki::ZERO);
        assert_eq!(c.apki(), 0.0);
        assert_eq!(c.utilization(), Utilization::ZERO);
    }

    #[test]
    fn delta_saturates() {
        let a = counters(10.0, 1.0, 2.0, 5.0, 1.0);
        let b = counters(4.0, 0.5, 1.0, 2.0, 0.5);
        let d = a.delta(&b);
        assert_eq!(d.instructions, 6.0);
        // Reversed order clamps to zero rather than going negative.
        let r = b.delta(&a);
        assert_eq!(r.instructions, 0.0);
        assert_eq!(r.l2_misses, 0.0);
    }

    #[test]
    fn set_snapshot_delta_roundtrip() {
        let mut set = CounterSet::new(4);
        set.core_mut(2).instructions = 100.0;
        let snap = set.snapshot();
        set.core_mut(2).instructions = 350.0;
        set.core_mut(0).busy_time = Seconds::new(0.25);
        let d = set.delta(&snap);
        assert_eq!(d.core(2).instructions, 250.0);
        assert_eq!(d.core(0).busy_time, Seconds::new(0.25));
        assert_eq!(d.core(1).instructions, 0.0);
    }

    #[test]
    fn aggregate_sums_selected_cores() {
        let mut set = CounterSet::new(3);
        *set.core_mut(0) = counters(1000.0, 0.2, 1.0, 20.0, 4.0);
        *set.core_mut(1) = counters(3000.0, 0.9, 1.0, 60.0, 12.0);
        *set.core_mut(2) = counters(5000.0, 1.0, 1.0, 999.0, 500.0);
        let browser = set.aggregate(&[0, 1]);
        assert_eq!(browser.instructions, 4000.0);
        assert_eq!(browser.mpki().value(), 4.0);
        // Shared MPKI includes the noisy third core.
        assert!(set.shared_l2_mpki() > browser.mpki());
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn delta_requires_same_shape() {
        let a = CounterSet::new(2);
        let b = CounterSet::new(3);
        let _ = a.delta(&b);
    }
}
