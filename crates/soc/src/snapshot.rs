//! Board checkpointing: capture a running simulation and fork it.
//!
//! A [`BoardSnapshot`] is a pure value holding everything that determines
//! a board's future behaviour: task progress, counters, thermal and
//! energy state, DVFS position, pending stall, and the seed. It
//! deliberately excludes observers (probes), the contention solver (its
//! buffers and its last-input memo) and the board's quantum plan (with
//! the step work counters) — those never influence the simulation, so restoring
//! onto a board with different probes attached, or whose memo holds
//! other inputs, still replays bit-identically. The solver's memo can
//! only hit on bit-identical inputs, so it survives a restore; the plan
//! is keyed on the absence of board mutations instead, so `restore`
//! invalidates it like any other mutation.
//! [`Board::snapshot`] and [`Board::restore`] destructure both structs
//! without `..`, so a field added to either fails to compile until it
//! is transferred or named as not simulation state.
//!
//! The campaign layer uses this to run a frequency-invariant warmup
//! prefix once, snapshot, and fan one continuation per candidate
//! frequency across worker threads. Snapshots are `Send + Sync` (tasks
//! carry those bounds) so a single snapshot can be shared by reference
//! across the executor's workers.

use crate::board::{Board, CoreSlot};
use crate::config::{BoardError, EnergyBreakdown};
use crate::counters::CounterSet;
use crate::power::PowerBreakdown;
use crate::task::Task;
use crate::thermal::ThermalNode;
use dora_sim_core::units::{Joules, Seconds};
use dora_sim_core::{SimDuration, SimTime};

/// One core slot's captured state.
#[derive(Debug)]
pub struct SlotSnapshot {
    pub(crate) enabled: bool,
    pub(crate) task: Option<Box<dyn Task>>,
    pub(crate) finish_time: Option<SimTime>,
}

/// A point-in-time capture of a [`Board`]'s complete simulation state.
///
/// Produced by [`Board::snapshot`], consumed by [`Board::restore`]. The
/// same snapshot can be restored onto any number of boards built from a
/// structurally identical configuration; each restored board then evolves
/// bit-identically to the original under the same inputs.
#[derive(Debug)]
pub struct BoardSnapshot {
    pub(crate) slots: Vec<SlotSnapshot>,
    pub(crate) counters: CounterSet,
    /// Per-cluster DVFS indices, parallel to the board's cluster list.
    pub(crate) freq_indices: Vec<usize>,
    /// Live core→cluster binding at capture time.
    pub(crate) cluster_of: Vec<usize>,
    pub(crate) now: SimTime,
    pub(crate) energy: Joules,
    pub(crate) power_track: (Joules, Seconds),
    pub(crate) last_power: PowerBreakdown,
    pub(crate) switch_count: u64,
    pub(crate) pending_stall: SimDuration,
    pub(crate) energy_breakdown: EnergyBreakdown,
    pub(crate) thermal: ThermalNode,
    pub(crate) seed: u64,
}

impl BoardSnapshot {
    /// The simulated instant the snapshot was taken at.
    pub fn time(&self) -> SimTime {
        self.now
    }

    /// The seed of the board the snapshot was taken from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of core slots captured.
    pub fn num_cores(&self) -> usize {
        self.slots.len()
    }
}

impl Board {
    /// Captures the board's complete simulation state as a value.
    ///
    /// Tasks are deep-copied via [`Task::snapshot_box`], so the snapshot
    /// is independent of the live board: stepping the board afterwards
    /// does not disturb it. Probes are observers, not state, and are not
    /// captured.
    pub fn snapshot(&self) -> BoardSnapshot {
        // No `..`: a new board field fails to compile until it is either
        // captured or named below as not simulation state.
        let Board {
            // Configuration: the restore target brings its own.
            config: _,
            // Observers never influence the simulation.
            probes: _,
            // Configuration, reusable buffers and a memo that can only
            // hit on bit-identical inputs, so it never needs clearing.
            solver: _,
            // Configuration.
            leakage: _,
            // Derived from the slots, bindings and DVFS indices; `restore`
            // invalidates it.
            plan: _,
            thermal,
            slots,
            counters,
            freq_indices,
            cluster_of,
            now,
            energy,
            power_track,
            last_power,
            switch_count,
            pending_stall,
            energy_breakdown,
            seed,
        } = self;
        BoardSnapshot {
            slots: slots
                .iter()
                .map(
                    |CoreSlot {
                         enabled,
                         task,
                         finish_time,
                     }| SlotSnapshot {
                        enabled: *enabled,
                        task: task.as_deref().map(Task::snapshot_box),
                        finish_time: *finish_time,
                    },
                )
                .collect(),
            counters: counters.clone(),
            freq_indices: freq_indices.clone(),
            cluster_of: cluster_of.clone(),
            now: *now,
            energy: *energy,
            power_track: *power_track,
            last_power: *last_power,
            switch_count: *switch_count,
            pending_stall: *pending_stall,
            energy_breakdown: *energy_breakdown,
            thermal: thermal.clone(),
            seed: *seed,
        }
    }

    /// Overwrites this board's simulation state with a snapshot's.
    ///
    /// The board keeps its own configuration and probes; only simulation
    /// state is replaced. After a successful restore the board evolves
    /// bit-identically to the board the snapshot was taken from (under
    /// the same subsequent inputs).
    ///
    /// # Errors
    ///
    /// [`BoardError::SnapshotMismatch`] when the snapshot's core count
    /// or cluster count does not match this board, a DVFS index does not
    /// fit the corresponding cluster's table, or a core binding
    /// references a cluster this board does not have. On error the board
    /// is left unchanged.
    pub fn restore(&mut self, snapshot: &BoardSnapshot) -> Result<(), BoardError> {
        let structurally_compatible = snapshot.slots.len() == self.config.num_cores
            && snapshot.freq_indices.len() == self.config.clusters.len()
            && snapshot
                .freq_indices
                .iter()
                .zip(&self.config.clusters)
                .all(|(&i, cluster)| i < cluster.dvfs.len())
            && snapshot.cluster_of.len() == self.config.num_cores
            && snapshot
                .cluster_of
                .iter()
                .all(|&c| c < self.config.clusters.len());
        if !structurally_compatible {
            return Err(BoardError::SnapshotMismatch);
        }
        // No `..` on either side: a new field of the board or of the
        // snapshot fails to compile until it is restored here.
        let BoardSnapshot {
            slots: saved_slots,
            counters: saved_counters,
            freq_indices: saved_freq_indices,
            cluster_of: saved_cluster_of,
            now: saved_now,
            energy: saved_energy,
            power_track: saved_power_track,
            last_power: saved_last_power,
            switch_count: saved_switch_count,
            pending_stall: saved_pending_stall,
            energy_breakdown: saved_energy_breakdown,
            thermal: saved_thermal,
            seed: saved_seed,
        } = snapshot;
        let Board {
            // Not simulation state; see `snapshot`.
            config: _,
            probes: _,
            solver: _,
            leakage: _,
            plan,
            thermal,
            slots,
            counters,
            freq_indices,
            cluster_of,
            now,
            energy,
            power_track,
            last_power,
            switch_count,
            pending_stall,
            energy_breakdown,
            seed,
        } = self;
        for (slot, saved) in slots.iter_mut().zip(saved_slots) {
            let SlotSnapshot {
                enabled,
                task,
                finish_time,
            } = saved;
            *slot = CoreSlot {
                enabled: *enabled,
                task: task.as_deref().map(Task::snapshot_box),
                finish_time: *finish_time,
            };
        }
        *counters = saved_counters.clone();
        freq_indices.clone_from(saved_freq_indices);
        cluster_of.clone_from(saved_cluster_of);
        *now = *saved_now;
        *energy = *saved_energy;
        *power_track = *saved_power_track;
        *last_power = *saved_last_power;
        *switch_count = *saved_switch_count;
        *pending_stall = *saved_pending_stall;
        *energy_breakdown = *saved_energy_breakdown;
        *thermal = saved_thermal.clone();
        *seed = *saved_seed;
        plan.invalidate();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::Frequency;
    use crate::profile::{ClusterId, SocProfile};
    use crate::task::{LoopTask, PhaseProfile, PhasedTask};

    fn nexus5() -> crate::board::BoardConfig {
        SocProfile::msm8974().board_config()
    }

    fn loaded_board() -> Board {
        let mut b = Board::new(nexus5(), 11);
        b.set_frequency(Frequency::from_mhz(1497.6)).expect("ok");
        b.assign(
            0,
            Box::new(PhasedTask::new(
                "main",
                vec![(2.0e9, PhaseProfile::compute_bound())],
            )),
        )
        .expect("free");
        b.assign(
            2,
            Box::new(LoopTask::new("hog", PhaseProfile::streaming(40.0))),
        )
        .expect("free");
        b.step(SimDuration::from_millis(250));
        b
    }

    #[test]
    fn snapshot_is_independent_of_the_live_board() {
        let mut b = loaded_board();
        let snap = b.snapshot();
        let instructions_at_snap = snap.counters.core(0).instructions;
        b.step(SimDuration::from_millis(100));
        // The board moved on; the snapshot did not.
        assert!(b.counters(0).instructions > instructions_at_snap);
        assert_eq!(snap.counters.core(0).instructions, instructions_at_snap);
        assert_eq!(snap.time(), SimTime::from_millis(250));
        assert_eq!(snap.seed(), 11);
        assert_eq!(snap.num_cores(), 4);
    }

    #[test]
    fn restore_then_step_matches_the_original_bitwise() {
        let mut original = loaded_board();
        let snap = original.snapshot();

        let mut fork = Board::new(nexus5(), 0);
        fork.restore(&snap).expect("fits");

        let horizon = SimDuration::from_millis(400);
        original.step(horizon);
        fork.step(horizon);

        assert_eq!(original.time(), fork.time());
        assert_eq!(original.counter_set(), fork.counter_set());
        assert_eq!(original.energy(), fork.energy());
        assert_eq!(original.energy_breakdown(), fork.energy_breakdown());
        assert_eq!(original.temperature(), fork.temperature());
        assert_eq!(original.mean_power(), fork.mean_power());
        assert_eq!(original.switch_count(), fork.switch_count());
        assert_eq!(original.finish_time(0), fork.finish_time(0));
    }

    #[test]
    fn forks_can_diverge_by_frequency() {
        let b = loaded_board();
        let snap = b.snapshot();

        let run = |mhz: f64| {
            let mut fork = Board::new(nexus5(), 0);
            fork.restore(&snap).expect("fits");
            fork.set_frequency(Frequency::from_mhz(mhz)).expect("ok");
            while !fork.task_finished(0) {
                fork.step(SimDuration::from_millis(20));
            }
            fork.finish_time(0).expect("finished").as_secs_f64()
        };
        let slow = run(729.6);
        let fast = run(2265.6);
        assert!(slow > fast, "{slow} vs {fast}");
    }

    #[test]
    fn restore_rejects_structural_mismatch_and_leaves_board_untouched() {
        let b = loaded_board();
        let mut snap = b.snapshot();
        snap.slots.pop();

        let mut target = Board::new(nexus5(), 5);
        target.step(SimDuration::from_millis(3));
        let before = target.time();
        assert_eq!(target.restore(&snap), Err(BoardError::SnapshotMismatch));
        assert_eq!(target.time(), before);
        assert_eq!(target.seed(), 5);
    }

    #[test]
    fn heterogeneous_state_round_trips_and_cross_profile_restore_fails() {
        let mut b = Board::new(SocProfile::biglittle_a15a7().board_config(), 3);
        b.set_cluster_frequency(ClusterId::new(1), Frequency::from_mhz(1000.0))
            .expect("A7 entry");
        b.migrate(2, ClusterId::new(1)).expect("valid");
        let snap = b.snapshot();

        let mut fork = Board::new(SocProfile::biglittle_a15a7().board_config(), 0);
        fork.restore(&snap).expect("fits");
        assert_eq!(fork.cluster_of(2), ClusterId::new(1));
        assert_eq!(
            fork.cluster_frequency(ClusterId::new(1)),
            Frequency::from_mhz(1000.0)
        );

        // A homogeneous board cannot absorb a two-cluster snapshot.
        let mut other = Board::new(nexus5(), 0);
        assert_eq!(other.restore(&snap), Err(BoardError::SnapshotMismatch));
    }

    #[test]
    fn snapshot_leaves_probes_attached() {
        use dora_sim_core::probe::ProbeRing;

        let mut b = loaded_board();
        let ring = ProbeRing::shared(64);
        b.attach_probe(ring.clone());
        let snap = b.snapshot();
        b.restore(&snap).expect("fits");
        assert!(b.probes_active());
        b.step(SimDuration::from_millis(2));
        assert!(!ring.borrow().is_empty());
    }

    #[test]
    fn snapshots_are_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<BoardSnapshot>();
    }
}
