//! The SoC profile registry: named, cited platform descriptions.
//!
//! A [`SocProfile`] bundles everything the layers above the board need to
//! target a platform — the cluster list with per-cluster DVFS tables and
//! power coefficients, the initial task-to-cluster affinity, and the
//! migration-cost model — behind a stable name the CLI exposes as
//! `--soc <name>`. Two profiles ship:
//!
//! * `msm8974` — the paper's Nexus 5: one homogeneous 4×Krait cluster.
//!   Byte-identical to the historical `BoardConfig::nexus5()`.
//! * `biglittle-a15a7` — an Exynos-5422-class big.LITTLE platform
//!   (Cortex-A15 "big" + Cortex-A7 "LITTLE"), the decision space of the
//!   paper's closest heterogeneous relatives (arXiv 1710.03559,
//!   arXiv 1906.08689).
//!
//! Cores bind to clusters *dynamically*: the board keeps a core→cluster
//! map seeded from [`BoardConfig::affinity`] and a governor may rebind a
//! core at run time, paying the [`MigrationCost`]. Clusters therefore do
//! not own fixed core ranges — this is the virtual-core reading of
//! global task scheduling, which keeps the homogeneous profile's core
//! numbering (and hence every golden output) untouched.

use crate::config::BoardConfig;
use crate::dvfs::{checked_khz_mv, DvfsTable, Frequency};
use crate::memory::MemorySystem;
use crate::power::{LeakageParams, PowerParams};
use crate::thermal::ThermalParams;
use dora_sim_core::units::Joules;
use dora_sim_core::SimDuration;
use std::fmt;

// Ground-truth per-cluster model coefficients. This module is a
// designated constants module (`[constants] modules` in xtask/xtask.toml):
// every value states its provenance and `xtask lint` keeps it that way.

/// Effective switching capacitance per Krait 400 core, farads.
const KRAIT400_CEFF_CORE_F: f64 = 0.30e-9; // paper: Section II Snapdragon 800; C·V²·f fit
/// Uncore dynamic power per GHz of Krait cluster clock, watts.
const KRAIT400_UNCORE_W_PER_GHZ: f64 = 0.18; // paper: Section IV SoC-minus-core residual

/// Exynos 5422 Cortex-A15 ("big") operating points as `(kHz, mV)` pairs.
///
/// The XU3 board used by both heterogeneous relatives exposes the A15
/// cluster from 200 MHz to 2.0 GHz; the table below samples that range
/// at the plotted granularity with the stock regulator voltages.
///
/// paper: 1710.03559 Section 3 (ODROID XU3, Exynos 5422 A15 0.2–2.0 GHz);
/// paper: 1906.08689 Section 2.1 (same platform and frequency range)
pub const EXYNOS5422_A15_KHZ_MV: [(u64, u32); 10] = checked_khz_mv([
    (200_000, 900),
    (400_000, 912),
    (600_000, 925),
    (800_000, 950),
    (1_000_000, 975),
    (1_200_000, 1_012),
    (1_400_000, 1_050),
    (1_600_000, 1_100),
    (1_800_000, 1_162),
    (2_000_000, 1_237),
]);

/// Exynos 5422 Cortex-A7 ("LITTLE") operating points as `(kHz, mV)` pairs.
///
/// paper: 1710.03559 Section 3 (Exynos 5422 A7 0.2–1.4 GHz);
/// paper: 1906.08689 Section 2.1 (same platform and frequency range)
pub const EXYNOS5422_A7_KHZ_MV: [(u64, u32); 7] = checked_khz_mv([
    (200_000, 900),
    (400_000, 912),
    (600_000, 925),
    (800_000, 950),
    (1_000_000, 1_000),
    (1_200_000, 1_050),
    (1_400_000, 1_100),
]);

/// Effective switching capacitance per Cortex-A15 core, farads.
const BIGLITTLE_A15_CEFF_CORE_F: f64 = 0.65e-9; // paper: 1906.08689 Section 2.2 C·V²·f power-model fit, big cluster
/// Effective switching capacitance per Cortex-A7 core, farads.
const BIGLITTLE_A7_CEFF_CORE_F: f64 = 0.12e-9; // paper: 1906.08689 Section 2.2 C·V²·f power-model fit, LITTLE cluster
/// Relative CPI of the in-order A7 against the out-of-order A15 at equal
/// clock on browser workloads.
const BIGLITTLE_A7_CPI_SCALE: f64 = 1.6; // paper: 1710.03559 Section 5 big-vs-LITTLE load-time gap at matched frequency
/// Uncore dynamic power per GHz of big-cluster clock, watts.
const BIGLITTLE_A15_UNCORE_W_PER_GHZ: f64 = 0.18; // paper: 1906.08689 Section 2.2 SoC-minus-core residual, big cluster
/// Uncore dynamic power per GHz of LITTLE-cluster clock, watts.
const BIGLITTLE_A7_UNCORE_W_PER_GHZ: f64 = 0.05; // paper: 1906.08689 Section 2.2 SoC-minus-core residual, LITTLE cluster
/// Leakage scale of the LITTLE cluster relative to the big cluster's
/// Eq. 5 parameters (smaller cores, lower-leakage process corner).
const BIGLITTLE_A7_LEAKAGE_SCALE: f64 = 0.25; // paper: 1906.08689 Section 2.2 idle-power gap between clusters
/// Latency of rebinding a task between clusters, seconds.
const BIGLITTLE_MIGRATION_LATENCY_S: f64 = 2.0e-3; // paper: 1710.03559 Section 4.2 cluster-migration overhead, order of milliseconds
/// Energy of one cluster migration (cache refill traffic), joules.
const BIGLITTLE_MIGRATION_ENERGY_J: f64 = 5.0e-3; // paper: 1710.03559 Section 4.2 migration cost model, energy term

/// Index of a cluster within a board's cluster list.
///
/// A thin newtype so (cluster, frequency) operating points cannot be
/// built with a core id in the cluster slot by accident. Probe events
/// carry the raw `usize` (the probe bus lives below this crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClusterId(usize);

impl ClusterId {
    /// The primary cluster (index 0) — the only cluster of a homogeneous
    /// profile, and the cluster legacy single-table APIs act on.
    // paper: structural index, not a measured value (1710.03559 numbers
    // live on the tables/coefficients above).
    pub const PRIMARY: ClusterId = ClusterId(0);

    /// Constructs from a raw index.
    pub const fn new(index: usize) -> Self {
        ClusterId(index)
    }

    /// The raw index into the board's cluster list.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for ClusterId {
    fn from(index: usize) -> Self {
        ClusterId(index)
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster{}", self.0)
    }
}

/// One cluster of cores: its DVFS table, relative instruction timing,
/// and power coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Human-readable microarchitecture name (e.g. `"Cortex-A15"`).
    pub name: String,
    /// The cluster's operating-point table.
    pub dvfs: DvfsTable,
    /// Multiplier applied to every task's base CPI while it runs on this
    /// cluster (1.0 on the reference microarchitecture; >1 on a simpler
    /// in-order core). Exactly 1.0 multiplies out bit-identically, which
    /// is what keeps homogeneous profiles on the historical arithmetic.
    pub cpi_scale: f64,
    /// Effective switching capacitance per core in farads.
    pub ceff_core_f: f64,
    /// Uncore dynamic power per GHz of this cluster's clock, watts,
    /// scaled by the mean utilization of the cores bound to it.
    pub uncore_w_per_ghz: f64,
    /// Eq. 5 leakage parameters of this cluster.
    pub leakage: LeakageParams,
}

impl ClusterConfig {
    /// The Nexus 5's single Krait 400 cluster.
    pub fn krait400() -> Self {
        ClusterConfig {
            name: "Krait 400".to_string(),
            dvfs: DvfsTable::default(),
            cpi_scale: 1.0,
            ceff_core_f: KRAIT400_CEFF_CORE_F,
            uncore_w_per_ghz: KRAIT400_UNCORE_W_PER_GHZ,
            leakage: LeakageParams::nexus5(),
        }
    }

    /// The Exynos-5422-class big cluster (Cortex-A15).
    pub fn cortex_a15() -> Self {
        ClusterConfig {
            name: "Cortex-A15".to_string(),
            dvfs: DvfsTable::from_khz_mv(&EXYNOS5422_A15_KHZ_MV),
            cpi_scale: 1.0,
            ceff_core_f: BIGLITTLE_A15_CEFF_CORE_F,
            uncore_w_per_ghz: BIGLITTLE_A15_UNCORE_W_PER_GHZ,
            leakage: LeakageParams::nexus5(),
        }
    }

    /// The Exynos-5422-class LITTLE cluster (Cortex-A7).
    pub fn cortex_a7() -> Self {
        let big = LeakageParams::nexus5();
        ClusterConfig {
            name: "Cortex-A7".to_string(),
            dvfs: DvfsTable::from_khz_mv(&EXYNOS5422_A7_KHZ_MV),
            cpi_scale: BIGLITTLE_A7_CPI_SCALE,
            ceff_core_f: BIGLITTLE_A7_CEFF_CORE_F,
            uncore_w_per_ghz: BIGLITTLE_A7_UNCORE_W_PER_GHZ,
            leakage: LeakageParams {
                k1: big.k1 * BIGLITTLE_A7_LEAKAGE_SCALE,
                k2: big.k2 * BIGLITTLE_A7_LEAKAGE_SCALE,
                ..big
            },
        }
    }

    /// Validates parameter domains: every coefficient finite, the
    /// capacitance, the uncore residual and the two Eq. 5 scales `k1`
    /// and `k2` non-negative, the CPI scale positive.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.cpi_scale.is_finite() && self.cpi_scale > 0.0) {
            return Err(format!(
                "cluster {:?}: cpi_scale must be positive and finite, got {}",
                self.name, self.cpi_scale
            ));
        }
        let lk = &self.leakage;
        for (field, v, non_negative) in [
            ("ceff_core_f", self.ceff_core_f, true),
            ("uncore_w_per_ghz", self.uncore_w_per_ghz, true),
            ("leakage.k1", lk.k1, true),
            ("leakage.k2", lk.k2, true),
            ("leakage.alpha", lk.alpha, false),
            ("leakage.beta", lk.beta, false),
            ("leakage.gamma", lk.gamma, false),
            ("leakage.delta", lk.delta, false),
        ] {
            if !v.is_finite() || (non_negative && v < 0.0) {
                let domain = if non_negative {
                    "non-negative and finite"
                } else {
                    "finite"
                };
                return Err(format!(
                    "cluster {:?}: {field} must be {domain}, got {v}",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// The cost of rebinding a task from one cluster to another.
///
/// The paper's heterogeneous relatives model a cluster switch as a fixed
/// latency (pipeline drain, context transfer, cold-cache refill) plus an
/// energy term for the refill traffic (1710.03559 Section 4.2). Both are
/// charged once per migration, regardless of direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCost {
    /// Stall charged to the board when a core is rebound.
    pub latency: SimDuration,
    /// Energy charged to the device when a core is rebound.
    pub energy: Joules,
}

impl MigrationCost {
    /// A free migration — the only sensible value for single-cluster
    /// profiles, where no migration can ever happen.
    pub fn none() -> Self {
        MigrationCost {
            latency: SimDuration::ZERO,
            energy: Joules::ZERO,
        }
    }

    /// The cited Exynos-5422-class migration cost.
    pub fn biglittle() -> Self {
        MigrationCost {
            latency: SimDuration::from_secs_f64(BIGLITTLE_MIGRATION_LATENCY_S),
            energy: Joules::new(BIGLITTLE_MIGRATION_ENERGY_J),
        }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let e = self.energy.value();
        if !(e.is_finite() && e >= 0.0) {
            return Err(format!(
                "migration energy must be non-negative and finite, got {e}"
            ));
        }
        Ok(())
    }
}

/// A point in the (cluster, frequency) product space — what a
/// heterogeneous governor decides per interval, generalizing the single
/// frequency of the paper's Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperatingPoint {
    /// The cluster the governed task should run on.
    pub cluster: ClusterId,
    /// The frequency that cluster should run at.
    pub frequency: Frequency,
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.cluster, self.frequency)
    }
}

/// A named, validated platform description from the registry.
///
/// # Example
///
/// ```
/// use dora_soc::SocProfile;
///
/// let soc = SocProfile::by_name("biglittle-a15a7").expect("registered");
/// let board = soc.board_config();
/// assert_eq!(board.clusters.len(), 2);
/// assert!(board.validate().is_ok());
/// // The homogeneous default is the Nexus 5's one 14-OPP Krait cluster.
/// let nexus5 = SocProfile::msm8974().board_config();
/// assert_eq!(nexus5.clusters.len(), 1);
/// assert_eq!(nexus5.clusters[0].dvfs.len(), 14);
/// ```
#[derive(Debug, Clone)]
pub struct SocProfile {
    name: &'static str,
    board: BoardConfig,
}

impl SocProfile {
    /// The registry's stable profile names, in presentation order.
    pub fn names() -> &'static [&'static str] {
        &["msm8974", "biglittle-a15a7"]
    }

    /// Looks a profile up by its registry name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "msm8974" => Some(SocProfile::msm8974()),
            "biglittle-a15a7" => Some(SocProfile::biglittle_a15a7()),
            _ => None,
        }
    }

    /// The paper's Nexus 5 (Snapdragon 800 / MSM8974): one homogeneous
    /// cluster of four Krait cores (fourth switched off, as in
    /// Section IV-B), 2 MB shared L2, LPDDR3, the 14-entry DVFS table.
    pub fn msm8974() -> Self {
        let krait = ClusterConfig::krait400();
        SocProfile {
            name: "msm8974",
            board: BoardConfig {
                name: "Google Nexus 5 (MSM8974 Snapdragon 800)".to_string(),
                num_cores: 4,
                cores_enabled: vec![true, true, true, false],
                dvfs: krait.dvfs.clone(),
                clusters: vec![krait],
                affinity: vec![0; 4],
                migration: MigrationCost::none(),
                l2_capacity_bytes: 2.0 * 1024.0 * 1024.0,
                memory: MemorySystem::lpddr3(),
                power: PowerParams::nexus5(),
                thermal: ThermalParams::nexus5_room(),
                quantum: SimDuration::from_millis(1),
                dvfs_switch_stall: SimDuration::from_micros(60),
                mem_overlap: 0.65,
                dirty_fraction: 0.30,
            },
        }
    }

    /// An Exynos-5422-class big.LITTLE platform: a Cortex-A15 big
    /// cluster and a Cortex-A7 LITTLE cluster sharing the L2 and LPDDR3
    /// of the reference board, with the cited migration cost. All cores
    /// start on the big cluster (affinity 0), matching the stock
    /// launch-on-big policy both heterogeneous relatives observe.
    pub fn biglittle_a15a7() -> Self {
        let a15 = ClusterConfig::cortex_a15();
        SocProfile {
            name: "biglittle-a15a7",
            board: BoardConfig {
                name: "big.LITTLE devboard (Exynos 5422 class, A15+A7)".to_string(),
                num_cores: 4,
                cores_enabled: vec![true, true, true, false],
                dvfs: a15.dvfs.clone(),
                clusters: vec![a15, ClusterConfig::cortex_a7()],
                affinity: vec![0; 4],
                migration: MigrationCost::biglittle(),
                l2_capacity_bytes: 2.0 * 1024.0 * 1024.0,
                memory: MemorySystem::lpddr3(),
                power: PowerParams::nexus5(),
                thermal: ThermalParams::nexus5_room(),
                quantum: SimDuration::from_millis(1),
                dvfs_switch_stall: SimDuration::from_micros(60),
                mem_overlap: 0.65,
                dirty_fraction: 0.30,
            },
        }
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The profile's board configuration (cloned; profiles are
    /// immutable registry entries).
    pub fn board_config(&self) -> BoardConfig {
        self.board.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::MSM8974_KHZ_MV;

    #[test]
    fn every_registered_profile_validates() {
        for name in SocProfile::names() {
            let profile = SocProfile::by_name(name).expect("registered");
            assert_eq!(profile.name(), *name);
            profile
                .board_config()
                .validate()
                .unwrap_or_else(|e| panic!("profile {name}: {e}"));
        }
        assert!(SocProfile::by_name("sm8550").is_none());
    }

    #[test]
    fn msm8974_profile_matches_the_historical_config() {
        let board = SocProfile::msm8974().board_config();
        assert_eq!(board.dvfs, DvfsTable::default());
        assert_eq!(board.clusters[0].dvfs, DvfsTable::default());
        let opps: Vec<(u64, u32)> = board
            .dvfs
            .opps()
            .iter()
            .map(|opp| {
                (
                    opp.frequency.as_khz(),
                    (opp.voltage * 1000.0).round() as u32,
                )
            })
            .collect();
        assert_eq!(opps, MSM8974_KHZ_MV);
        assert_eq!(board.clusters.len(), 1);
        assert_eq!(board.clusters[0].cpi_scale, 1.0);
        assert_eq!(board.migration, MigrationCost::none());
        assert_eq!(board.affinity, vec![0; 4]);
    }

    #[test]
    fn biglittle_profile_shape() {
        let board = SocProfile::biglittle_a15a7().board_config();
        assert_eq!(board.clusters.len(), 2);
        let a15 = &board.clusters[0];
        let a7 = &board.clusters[1];
        assert_eq!(a15.dvfs.len(), EXYNOS5422_A15_KHZ_MV.len());
        assert_eq!(a7.dvfs.len(), EXYNOS5422_A7_KHZ_MV.len());
        // The primary-cluster alias points at the big cluster's table.
        assert_eq!(board.dvfs, a15.dvfs);
        // The LITTLE cluster is slower per clock and cheaper per switch.
        assert!(a7.cpi_scale > a15.cpi_scale);
        assert!(a7.ceff_core_f < a15.ceff_core_f);
        assert!(a7.dvfs.max_frequency() < a15.dvfs.max_frequency());
        // Migration is genuinely priced.
        assert!(board.migration.latency > SimDuration::ZERO);
        assert!(board.migration.energy > Joules::ZERO);
    }

    #[test]
    fn cluster_id_and_operating_point_display() {
        let point = OperatingPoint {
            cluster: ClusterId::new(1),
            frequency: Frequency::from_mhz(1400.0),
        };
        assert_eq!(point.to_string(), "cluster1@1.400GHz");
        assert_eq!(ClusterId::PRIMARY.index(), 0);
        assert_eq!(ClusterId::from(2).index(), 2);
    }

    #[test]
    fn invalid_cluster_parameters_are_rejected() {
        let mut cluster = ClusterConfig::krait400();
        cluster.cpi_scale = 0.0;
        assert!(cluster.validate().is_err());
        let mut cluster = ClusterConfig::cortex_a7();
        cluster.ceff_core_f = f64::NAN;
        assert!(cluster.validate().is_err());
        let bad = MigrationCost {
            latency: SimDuration::ZERO,
            energy: Joules::new(f64::NAN),
        };
        assert!(bad.validate().is_err());
    }

    /// Asserts that a leakage scale `k1` fails validation on the cluster
    /// and on a board built around it.
    fn assert_k1_rejected(k1: f64) {
        let mut cluster = ClusterConfig::krait400();
        cluster.leakage.k1 = k1;
        let err = cluster.validate().expect_err("bad k1 must be rejected");
        assert!(err.contains("leakage.k1"), "{err}");
        let mut board = SocProfile::msm8974().board_config();
        board.clusters[0].leakage.k1 = k1;
        assert!(
            board.validate().is_err(),
            "k1 = {k1} passed board validation"
        );
    }

    /// `(NaN + gate).max(0.0)` is zero: a NaN `k1` used to read as no
    /// leakage at all.
    #[test]
    fn nan_leakage_scale_is_rejected() {
        assert_k1_rejected(f64::NAN);
    }

    /// An infinite `k1` used to make `Board::energy` infinite.
    #[test]
    fn infinite_leakage_scale_is_rejected() {
        assert_k1_rejected(f64::INFINITY);
    }

    /// A negative `k1` drives Eq. 5 below zero, which clamps to no
    /// leakage at all.
    #[test]
    fn negative_leakage_scale_is_rejected() {
        assert_k1_rejected(-5.0);
    }

    #[test]
    fn other_leakage_coefficients_are_checked() {
        let mut cluster = ClusterConfig::cortex_a7();
        cluster.leakage.k2 = -0.01;
        assert!(cluster.validate().is_err());
        let mut cluster = ClusterConfig::cortex_a15();
        cluster.leakage.beta = f64::NEG_INFINITY;
        assert!(cluster.validate().is_err());
        // Negative exponent offsets are the cited Eq. 5 fit, not an error.
        assert!(ClusterConfig::krait400().leakage.beta < 0.0);
        assert!(ClusterConfig::krait400().validate().is_ok());
    }
}
