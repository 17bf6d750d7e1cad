//! Whole-device power model.
//!
//! The paper's DAQ measurements cover *the entire smartphone* — display,
//! application processor, storage, "and all other active components"
//! (Section IV-A) — which is why energy-efficiency gains translate directly
//! to battery life, and why the most energy-efficient frequency `fE` sits in
//! the middle of the range: at low frequency the fixed platform power
//! dominates a long-running load (race-to-idle), at high frequency dynamic
//! `C·V²·f` and hot leakage dominate.
//!
//! Components. The per-core and per-cluster terms take their coefficients
//! from the board's cluster list
//! ([`ClusterConfig`](crate::profile::ClusterConfig)); [`PowerParams`] holds
//! only the two whole-device terms.
//!
//! * **platform floor** — display at browsing brightness plus rails, radios
//!   idle: a constant.
//! * **core dynamic** — `util · C_eff · V² · f` per core, with the
//!   capacitance, voltage and clock of the cluster the core is bound to.
//! * **uncore dynamic** — per cluster: interconnect/L2 clock tree,
//!   proportional to the cluster clock and the mean utilization of the
//!   cores bound to it.
//! * **DRAM** — energy per byte moved; this term is what makes interference
//!   cost extra *energy*, not just time (Fig. 2b's `E_Δ`).
//! * **leakage** — the paper's Eq. 5 (Liao–He–Lepak form) per cluster at
//!   its own voltage, summed:
//!   `P_lkg = k1·v·T²·e^((α·v+β)/T) + k2·e^(γ·v+δ)` with `T` in kelvin.
//!
//! `evaluate` is the one evaluation every board steps through; like the
//! rest of the stepping path it allocates nothing.

use crate::config::BoardConfig;
use dora_sim_core::units::{Celsius, Watts};

// Ground-truth Nexus 5 model coefficients. This module is a designated
// constants module (`[constants] modules` in xtask/xtask.toml): every
// value states its provenance and `xtask lint` keeps it that way.

/// Eq. 5 subthreshold-term scale `k1`.
const NEXUS5_K1: f64 = 0.22; // paper: Eq. 5; tuned to ~0.15 W at (0.80 V, 35 °C)
/// Eq. 5 voltage slope `α` inside the exponential, kelvin per volt.
const NEXUS5_ALPHA: f64 = 800.0; // paper: Eq. 5
/// Eq. 5 exponential offset `β`, kelvin.
const NEXUS5_BETA: f64 = -4300.0; // paper: Eq. 5
/// Eq. 5 gate-term scale `k2`.
const NEXUS5_K2: f64 = 0.05; // paper: Eq. 5; tuned to ~1.2 W at (1.10 V, 65 °C)
/// Eq. 5 gate-term voltage slope `γ`.
const NEXUS5_GAMMA: f64 = 2.0; // paper: Eq. 5
/// Eq. 5 gate-term offset `δ`.
const NEXUS5_DELTA: f64 = -2.0; // paper: Eq. 5
/// Constant whole-device platform power, watts.
const NEXUS5_PLATFORM_FLOOR_W: f64 = 1.45; // paper: Section IV-A whole-phone DAQ floor
/// DRAM energy per byte moved, joules.
const NEXUS5_DRAM_J_PER_BYTE: f64 = 150.0e-12; // paper: Fig. 2b interference energy E_Δ

/// Parameters of the Eq. 5 leakage model.
///
/// `P_lkg(v, T) = k1·v·T²·exp((α·v + β)/T) + k2·exp(γ·v + δ)`, `T` in
/// kelvin, result in watts for one cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageParams {
    /// Scale of the temperature-dependent subthreshold term.
    pub k1: f64,
    /// Voltage slope inside the exponential (kelvin per volt).
    pub alpha: f64,
    /// Offset inside the exponential (kelvin).
    pub beta: f64,
    /// Scale of the temperature-independent (gate) term.
    pub k2: f64,
    /// Voltage slope of the gate term.
    pub gamma: f64,
    /// Offset of the gate term.
    pub delta: f64,
}

impl LeakageParams {
    /// Ground-truth parameters for the simulated SoC, tuned so leakage is
    /// ≈0.15 W at (0.80 V, 35 °C) and ≈1.2 W at (1.10 V, 65 °C) — a strong
    /// enough temperature dependence to reproduce the paper's Fig. 10.
    pub fn nexus5() -> Self {
        LeakageParams {
            k1: NEXUS5_K1,
            alpha: NEXUS5_ALPHA,
            beta: NEXUS5_BETA,
            k2: NEXUS5_K2,
            gamma: NEXUS5_GAMMA,
            delta: NEXUS5_DELTA,
        }
    }

    /// Evaluates the leakage power at supply `voltage` (volts) and die
    /// temperature `temp`.
    pub fn power(&self, voltage: f64, temp: Celsius) -> Watts {
        let t = temp.to_kelvin();
        if t <= 0.0 || !voltage.is_finite() || voltage <= 0.0 {
            return Watts::ZERO;
        }
        let sub = self.k1 * voltage * t * t * ((self.alpha * voltage + self.beta) / t).exp();
        let gate = self.k2 * (self.gamma * voltage + self.delta).exp();
        Watts::new((sub + gate).max(0.0))
    }
}

/// The whole-device terms of the power model: the ones no cluster owns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Constant platform power (display at browsing brightness, rails,
    /// idle radios).
    pub platform_floor: Watts,
    /// DRAM energy per byte moved, in joules.
    pub dram_j_per_byte: f64,
}

impl PowerParams {
    /// Nexus-5-like defaults.
    pub fn nexus5() -> Self {
        PowerParams {
            platform_floor: Watts::new(NEXUS5_PLATFORM_FLOOR_W),
            dram_j_per_byte: NEXUS5_DRAM_J_PER_BYTE,
        }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("platform_floor", self.platform_floor.value()),
            ("dram_j_per_byte", self.dram_j_per_byte),
        ];
        for (name, v) in fields {
            if !(v.is_finite() && v >= 0.0) {
                // alloc: configuration error path, never reached while stepping.
                return Err(format!("{name} must be non-negative and finite, got {v}"));
            }
        }
        Ok(())
    }
}

/// Itemized power at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Constant platform (display etc.) power.
    pub platform: Watts,
    /// Sum of per-core dynamic power.
    pub core_dynamic: Watts,
    /// Uncore/interconnect dynamic power.
    pub uncore: Watts,
    /// DRAM traffic power.
    pub dram: Watts,
    /// Eq. 5 leakage power.
    pub leakage: Watts,
}

impl PowerBreakdown {
    /// Total device power.
    pub fn total(&self) -> Watts {
        self.platform + self.core_dynamic + self.uncore + self.dram + self.leakage
    }

    /// The SoC-only share (everything except the platform floor) — the
    /// portion that heats the die.
    pub fn soc(&self) -> Watts {
        self.core_dynamic + self.uncore + self.leakage + self.dram * 0.5
    }
}

/// Evaluates instantaneous device power on a board.
///
/// * `freq_indices` — each cluster's current DVFS index.
/// * `cluster_of` — the cluster each core is bound to.
/// * `core_utilizations` — busy fraction per core, clamped to `[0, 1]`;
///   powered-off cores should be 0.
/// * `dram_bytes_per_sec` — aggregate DRAM traffic.
/// * `temp` — die temperature for the leakage term.
///
/// The sums run in a fixed order: core dynamic power in core order, each
/// cluster's busy share in core order, and uncore and leakage in cluster
/// order.
pub(crate) fn evaluate(
    config: &BoardConfig,
    freq_indices: &[usize],
    cluster_of: &[usize],
    core_utilizations: &[f64],
    dram_bytes_per_sec: f64,
    temp: Celsius,
) -> PowerBreakdown {
    let mut core_dynamic = 0.0;
    for (u, &c) in core_utilizations.iter().zip(cluster_of) {
        let cluster = &config.clusters[c];
        let o = cluster.dvfs.opp(freq_indices[c]);
        core_dynamic +=
            u.clamp(0.0, 1.0) * cluster.ceff_core_f * o.voltage * o.voltage * o.frequency.as_hz();
    }
    let mut uncore = 0.0;
    let mut leakage = Watts::ZERO;
    for (c, (cluster, &index)) in config.clusters.iter().zip(freq_indices).enumerate() {
        let o = cluster.dvfs.opp(index);
        let mut busy = 0.0;
        let mut cores = 0usize;
        for (u, &bound) in core_utilizations.iter().zip(cluster_of) {
            if bound == c {
                busy += u.clamp(0.0, 1.0);
                cores += 1;
            }
        }
        if cores > 0 {
            uncore += cluster.uncore_w_per_ghz * o.frequency.as_ghz() * (busy / cores as f64);
        }
        leakage += cluster.leakage.power(o.voltage, temp);
    }
    let p = &config.power;
    PowerBreakdown {
        platform: p.platform_floor,
        core_dynamic: Watts::new(core_dynamic),
        uncore: Watts::new(uncore),
        dram: Watts::new(p.dram_j_per_byte * dram_bytes_per_sec.max(0.0)),
        leakage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::Opp;
    use crate::profile::SocProfile;
    use proptest::prelude::*;

    fn c(t: f64) -> Celsius {
        Celsius::new(t)
    }

    fn msm8974() -> BoardConfig {
        SocProfile::msm8974().board_config()
    }

    /// The msm8974 board at OPP `index`, every listed core on cluster 0.
    fn eval(index: usize, utils: &[f64], dram: f64, temp: f64) -> PowerBreakdown {
        let config = msm8974();
        evaluate(
            &config,
            &[index],
            &vec![0; utils.len()],
            utils,
            dram,
            c(temp),
        )
    }

    /// The one-cluster `PowerModel::evaluate` this module used to carry
    /// next to the per-cluster path, transcribed verbatim with the
    /// coefficients read from a one-cluster board. It is the reference
    /// the single path must match bit for bit on msm8974.
    fn one_cluster_reference(
        config: &BoardConfig,
        opp: Opp,
        core_utilizations: &[f64],
        dram_bytes_per_sec: f64,
        temp: Celsius,
    ) -> PowerBreakdown {
        let cluster = &config.clusters[0];
        let v = opp.voltage;
        let f_hz = opp.frequency.as_hz();
        let core_dynamic: f64 = core_utilizations
            .iter()
            .map(|u| u.clamp(0.0, 1.0) * cluster.ceff_core_f * v * v * f_hz)
            .sum();
        let mean_util = if core_utilizations.is_empty() {
            0.0
        } else {
            core_utilizations
                .iter()
                .map(|u| u.clamp(0.0, 1.0))
                .sum::<f64>()
                / core_utilizations.len() as f64
        };
        let uncore = cluster.uncore_w_per_ghz * opp.frequency.as_ghz() * mean_util;
        let dram = config.power.dram_j_per_byte * dram_bytes_per_sec.max(0.0);
        PowerBreakdown {
            platform: config.power.platform_floor,
            core_dynamic: Watts::new(core_dynamic),
            uncore: Watts::new(uncore),
            dram: Watts::new(dram),
            leakage: cluster.leakage.power(v, temp),
        }
    }

    fn bits(b: &PowerBreakdown) -> [u64; 5] {
        [
            b.platform.value().to_bits(),
            b.core_dynamic.value().to_bits(),
            b.uncore.value().to_bits(),
            b.dram.value().to_bits(),
            b.leakage.value().to_bits(),
        ]
    }

    #[test]
    fn leakage_anchor_points() {
        let lk = LeakageParams::nexus5();
        let cold_low = lk.power(0.80, c(35.0)).value();
        let hot_high = lk.power(1.10, c(65.0)).value();
        assert!((0.10..0.25).contains(&cold_low), "low anchor {cold_low}");
        assert!((0.8..1.6).contains(&hot_high), "high anchor {hot_high}");
    }

    #[test]
    fn leakage_monotone_in_temperature_and_voltage() {
        let lk = LeakageParams::nexus5();
        let mut last = 0.0;
        for t in [20.0, 35.0, 50.0, 65.0, 80.0] {
            let p = lk.power(1.0, c(t)).value();
            assert!(p > last, "leakage must rise with temperature");
            last = p;
        }
        let mut last = 0.0;
        for v in [0.8, 0.9, 1.0, 1.1] {
            let p = lk.power(v, c(50.0)).value();
            assert!(p > last, "leakage must rise with voltage");
            last = p;
        }
    }

    #[test]
    fn leakage_handles_degenerate_inputs() {
        let lk = LeakageParams::nexus5();
        assert_eq!(lk.power(0.0, c(40.0)), Watts::ZERO);
        assert_eq!(lk.power(-1.0, c(40.0)), Watts::ZERO);
        assert_eq!(lk.power(1.0, c(-300.0)), Watts::ZERO);
        assert_eq!(lk.power(f64::NAN, c(40.0)), Watts::ZERO);
    }

    #[test]
    fn dynamic_power_scales_with_v_squared_f() {
        let t = msm8974().dvfs;
        let lo = eval(0, &[1.0], 0.0, 40.0);
        let hi = eval(13, &[1.0], 0.0, 40.0);
        let lo_opp = t.opp(0);
        let hi_opp = t.opp(13);
        let expected_ratio = (hi_opp.voltage / lo_opp.voltage).powi(2)
            * (hi_opp.frequency.as_hz() / lo_opp.frequency.as_hz());
        let actual_ratio = hi.core_dynamic.value() / lo.core_dynamic.value();
        assert!((actual_ratio - expected_ratio).abs() < 1e-9);
    }

    #[test]
    fn idle_cores_draw_no_dynamic_power() {
        let b = eval(10, &[0.0, 0.0, 0.0, 0.0], 0.0, 40.0);
        assert_eq!(b.core_dynamic, Watts::ZERO);
        assert_eq!(b.uncore, Watts::ZERO);
        assert!(b.platform > Watts::ZERO);
        assert!(b.leakage > Watts::ZERO);
    }

    #[test]
    fn dram_term_scales_with_traffic() {
        let quiet = eval(5, &[1.0], 1e8, 40.0);
        let busy = eval(5, &[1.0], 4e9, 40.0);
        assert!((busy.dram / quiet.dram - 40.0).abs() < 1e-9);
    }

    #[test]
    fn whole_device_power_is_plausible() {
        // Browser on two cores + co-runner at max frequency, warm die,
        // heavy DRAM traffic: a Nexus 5 pulls 3–6 W in this regime.
        let peak = eval(13, &[1.0, 0.8, 1.0, 0.0], 3e9, 60.0);
        assert!(
            (3.0..6.5).contains(&peak.total().value()),
            "peak power {}",
            peak.total()
        );
        // Idle at minimum frequency: dominated by the platform floor.
        let idle = eval(0, &[0.0, 0.0, 0.0, 0.0], 0.0, 30.0);
        assert!(
            (1.3..1.8).contains(&idle.total().value()),
            "idle power {}",
            idle.total()
        );
    }

    #[test]
    fn breakdown_total_is_sum_of_parts() {
        let b = eval(7, &[0.5, 0.5], 1e9, 45.0);
        let sum = b.platform + b.core_dynamic + b.uncore + b.dram + b.leakage;
        assert!((b.total() - sum).value().abs() < 1e-12);
        assert!(b.soc() < b.total());
    }

    #[test]
    fn utilization_is_clamped() {
        let a = eval(5, &[2.0], 0.0, 40.0);
        let b = eval(5, &[1.0], 0.0, 40.0);
        assert_eq!(a.core_dynamic, b.core_dynamic);
        let z = eval(5, &[-1.0], 0.0, 40.0);
        assert_eq!(z.core_dynamic, Watts::ZERO);
    }

    #[test]
    fn each_core_uses_its_own_clusters_coefficients() {
        let config = SocProfile::biglittle_a15a7().board_config();
        let (big, little) = (&config.clusters[0], &config.clusters[1]);
        // Core 0 busy on the LITTLE cluster, every other core idle on big.
        let b = evaluate(
            &config,
            &[3, 2],
            &[1, 0, 0, 0],
            &[1.0, 0.0, 0.0, 0.0],
            0.0,
            c(40.0),
        );
        let o = little.dvfs.opp(2);
        let dynamic = little.ceff_core_f * o.voltage * o.voltage * o.frequency.as_hz();
        assert_eq!(b.core_dynamic.value().to_bits(), dynamic.to_bits());
        // Only the LITTLE cluster has a busy core, so only it draws uncore.
        let uncore = little.uncore_w_per_ghz * o.frequency.as_ghz();
        assert_eq!(b.uncore.value().to_bits(), uncore.to_bits());
        // Leakage sums both clusters at their own voltages.
        let leakage = big.leakage.power(big.dvfs.opp(3).voltage, c(40.0))
            + little.leakage.power(o.voltage, c(40.0));
        assert_eq!(b.leakage, leakage);
    }

    #[test]
    fn invalid_params_rejected() {
        let bad = PowerParams {
            platform_floor: Watts::new(-1.0),
            ..PowerParams::nexus5()
        };
        assert!(bad.validate().is_err());
        let bad = PowerParams {
            dram_j_per_byte: f64::INFINITY,
            ..PowerParams::nexus5()
        };
        assert!(bad.validate().is_err());
        assert!(PowerParams::nexus5().validate().is_ok());
    }

    /// An empty core list is not a board (validation requires a core),
    /// and it is the one input where the two paths differ: the old
    /// formula's `Iterator::sum` starts at `-0.0` and returns it, the
    /// single path returns `+0.0`. The values still compare equal.
    #[test]
    fn empty_core_list_differs_only_in_the_sign_of_zero() {
        let config = msm8974();
        let got = evaluate(&config, &[3], &[], &[], 1e9, c(40.0));
        let want = one_cluster_reference(&config, config.dvfs.opp(3), &[], 1e9, c(40.0));
        assert_eq!(got, want);
        assert_eq!(got.core_dynamic.value().to_bits(), 0.0f64.to_bits());
        assert_eq!(want.core_dynamic.value().to_bits(), (-0.0f64).to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On the one-cluster msm8974 board the single path is the old
        /// one-cluster formula, bit for bit, component by component.
        #[test]
        fn single_path_matches_one_cluster_formula_bitwise(
            utils in proptest::collection::vec(-0.5f64..1.5, 1..6),
            index in 0usize..14,
            temp in -20.0f64..110.0,
            dram in -1.0e9f64..8.0e9,
        ) {
            let config = msm8974();
            let got = evaluate(&config, &[index], &vec![0; utils.len()], &utils, dram, c(temp));
            let want = one_cluster_reference(&config, config.dvfs.opp(index), &utils, dram, c(temp));
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}
