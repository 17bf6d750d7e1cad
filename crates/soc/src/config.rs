//! Board configuration, errors, and energy accounting.
//!
//! These types used to live inside `board.rs`; they moved out when the
//! board was split so that the stepping hot path (`board.rs`,
//! `contention.rs`) contains no formatting or allocation — the
//! `probe-purity` xtask pass holds it to that. Everything here is
//! re-exported from [`crate::board`], so existing paths keep working.

use crate::dvfs::{DvfsTable, Frequency};
use crate::memory::MemorySystem;
use crate::power::{PowerBreakdown, PowerParams};
use crate::profile::{ClusterConfig, MigrationCost};
use crate::thermal::ThermalParams;
use dora_sim_core::units::{Celsius, Joules, Seconds};
use dora_sim_core::SimDuration;
use std::error::Error;
use std::fmt;

/// Errors returned by [`crate::board::Board`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoardError {
    /// The referenced core id does not exist on this board.
    CoreOutOfRange(usize),
    /// The core already has a task assigned.
    CoreOccupied(usize),
    /// The core is powered off.
    CoreDisabled(usize),
    /// The frequency is not an entry of the DVFS table.
    UnknownFrequency(Frequency),
    /// The referenced cluster id does not exist on this board.
    ClusterOutOfRange(usize),
    /// The snapshot was taken from a structurally different board (core
    /// count or DVFS table shape differ) and cannot be restored here.
    SnapshotMismatch,
}

impl fmt::Display for BoardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoardError::CoreOutOfRange(id) => write!(f, "core {id} out of range"),
            BoardError::CoreOccupied(id) => write!(f, "core {id} already has a task"),
            BoardError::CoreDisabled(id) => write!(f, "core {id} is powered off"),
            BoardError::UnknownFrequency(freq) => {
                write!(f, "frequency {freq} is not in the DVFS table")
            }
            BoardError::ClusterOutOfRange(id) => write!(f, "cluster {id} out of range"),
            BoardError::SnapshotMismatch => {
                write!(f, "snapshot does not fit this board's configuration")
            }
        }
    }
}

impl Error for BoardError {}

/// Static configuration of a board.
#[derive(Debug, Clone)]
pub struct BoardConfig {
    /// Human-readable platform name.
    pub name: String,
    /// Number of physical cores.
    pub num_cores: usize,
    /// Which cores are powered on at construction.
    pub cores_enabled: Vec<bool>,
    /// A mirror of the primary cluster's table, `clusters[0].dvfs`, kept
    /// for the single-knob API (`Board::set_frequency`, the stock
    /// governors) and the benchmark harness. The board itself never
    /// reads it; [`BoardConfig::validate`] holds it equal to
    /// `clusters[0].dvfs`.
    pub dvfs: DvfsTable,
    /// The cluster list: per-cluster DVFS tables, timing, and power
    /// coefficients, the only source of per-core power. Homogeneous
    /// platforms have exactly one entry.
    pub clusters: Vec<ClusterConfig>,
    /// Initial core→cluster binding, one entry per core. The board's
    /// live binding starts here and moves via `Board::migrate`.
    pub affinity: Vec<usize>,
    /// The cost charged per cluster migration.
    pub migration: MigrationCost,
    /// Shared L2 capacity in bytes.
    pub l2_capacity_bytes: f64,
    /// The DRAM model.
    pub memory: MemorySystem,
    /// The whole-device power terms (platform floor, DRAM energy).
    pub power: PowerParams,
    /// The thermal node parameters.
    pub thermal: ThermalParams,
    /// Simulation quantum.
    pub quantum: SimDuration,
    /// Core stall incurred by one DVFS transition (Section V-H measures
    /// frequency switching as the dominant overhead, up to 3 % of
    /// execution time when switches are frequent).
    pub dvfs_switch_stall: SimDuration,
    /// Memory-level-parallelism overlap factor: the fraction of each miss
    /// latency that actually stalls retirement.
    pub mem_overlap: f64,
    /// Fraction of evicted lines that are dirty (written back).
    pub dirty_fraction: f64,
}

impl BoardConfig {
    /// This platform with its thermal node re-anchored at `ambient` —
    /// the typed knob fleet archetypes turn instead of reaching into
    /// [`ThermalParams`] by hand.
    #[must_use]
    pub fn with_ambient(mut self, ambient: Celsius) -> Self {
        self.thermal.ambient = ambient;
        self
    }

    /// Validates all constituent parameters.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("board needs at least one core".into());
        }
        if self.cores_enabled.len() != self.num_cores {
            return Err("cores_enabled length must equal num_cores".into());
        }
        if self.clusters.is_empty() {
            return Err("board needs at least one cluster".into());
        }
        for cluster in &self.clusters {
            cluster.validate()?;
        }
        if self.clusters[0].dvfs != self.dvfs {
            return Err("dvfs must alias the primary cluster's table (clusters[0].dvfs)".into());
        }
        if self.affinity.len() != self.num_cores {
            return Err("affinity length must equal num_cores".into());
        }
        if let Some(&bad) = self.affinity.iter().find(|&&c| c >= self.clusters.len()) {
            return Err(format!(
                "affinity references cluster {bad}, but only {} exist",
                self.clusters.len()
            ));
        }
        self.migration.validate()?;
        if !(self.l2_capacity_bytes.is_finite() && self.l2_capacity_bytes > 0.0) {
            return Err(format!("bad L2 capacity {}", self.l2_capacity_bytes));
        }
        if self.quantum.is_zero() {
            return Err("quantum must be positive".into());
        }
        if !(self.mem_overlap.is_finite() && (0.0..=1.0).contains(&self.mem_overlap)) {
            return Err(format!("mem_overlap {} outside [0,1]", self.mem_overlap));
        }
        if !(self.dirty_fraction.is_finite() && (0.0..=1.0).contains(&self.dirty_fraction)) {
            return Err(format!(
                "dirty_fraction {} outside [0,1]",
                self.dirty_fraction
            ));
        }
        self.power.validate()?;
        self.thermal.validate()?;
        Ok(())
    }
}

/// Cumulative device energy itemized by power-model component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Platform floor (display, rails).
    pub platform: Joules,
    /// Per-core dynamic switching energy.
    pub core_dynamic: Joules,
    /// Uncore/interconnect energy.
    pub uncore: Joules,
    /// DRAM traffic energy.
    pub dram: Joules,
    /// Eq. 5 leakage energy.
    pub leakage: Joules,
}

impl EnergyBreakdown {
    pub(crate) fn accumulate(&mut self, power: &PowerBreakdown, dt: Seconds) {
        self.platform += power.platform * dt;
        self.core_dynamic += power.core_dynamic * dt;
        self.uncore += power.uncore * dt;
        self.dram += power.dram * dt;
        self.leakage += power.leakage * dt;
    }

    /// The sum of all components.
    pub fn total(&self) -> Joules {
        self.platform + self.core_dynamic + self.uncore + self.dram + self.leakage
    }
}
