//! Lumped-RC thermal model.
//!
//! Smartphones have no active cooling, so sustained SoC power raises die
//! temperature, which raises leakage, which raises power — a feedback loop
//! the paper shows can move the optimal frequency (Fig. 10: fopt shifts
//! from 1.9 to 1.7 GHz between cold and room ambient because leakage grows
//! steeply at the hot, high-voltage end).
//!
//! The die is a single thermal node with resistance `R` (K/W) to ambient
//! and time constant `τ = R·C`:
//!
//! ```text
//! T_ss = T_amb + P·R,      T(t+dt) = T_ss + (T(t) − T_ss)·exp(−dt/τ)
//! ```

use dora_sim_core::units::{Celsius, Seconds, Watts};

/// Parameters of the thermal node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Junction-to-ambient thermal resistance in kelvin per watt.
    pub resistance_k_per_w: f64,
    /// RC time constant.
    pub time_constant: Seconds,
    /// Ambient temperature.
    pub ambient: Celsius,
}

impl ThermalParams {
    /// Nexus-5-like defaults at room ambient: R chosen so the maximum
    /// sustained SoC power lands near the 65 °C the paper reports at
    /// 1.9 GHz, with a ~8 s settling time constant.
    pub fn nexus5_room() -> Self {
        ThermalParams {
            resistance_k_per_w: 13.0,
            time_constant: Seconds::new(8.0),
            ambient: Celsius::new(25.0),
        }
    }

    /// The cold-ambient condition used by the paper's Fig. 10(b)
    /// ("low ambient temperature").
    pub fn nexus5_cold() -> Self {
        ThermalParams {
            ambient: Celsius::new(5.0),
            ..ThermalParams::nexus5_room()
        }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.resistance_k_per_w.is_finite() && self.resistance_k_per_w > 0.0) {
            return Err(format!(
                "bad thermal resistance {}",
                self.resistance_k_per_w
            ));
        }
        if !(self.time_constant.is_finite() && self.time_constant > Seconds::ZERO) {
            return Err(format!("bad time constant {}", self.time_constant));
        }
        let plausible = Celsius::new(-40.0)..=Celsius::new(60.0);
        if !(self.ambient.is_finite() && plausible.contains(&self.ambient)) {
            return Err(format!("implausible ambient {}", self.ambient));
        }
        Ok(())
    }
}

/// The die temperature state.
///
/// # Example
///
/// ```
/// use dora_sim_core::units::{Celsius, Seconds, Watts};
/// use dora_soc::thermal::{ThermalNode, ThermalParams};
///
/// let mut node = ThermalNode::new(ThermalParams::nexus5_room());
/// assert_eq!(node.temperature(), Celsius::new(25.0));
/// // 3 W sustained for a long time settles at ambient + P·R.
/// for _ in 0..10_000 {
///     node.step(Watts::new(3.0), Seconds::new(0.01));
/// }
/// let expected = 25.0 + 3.0 * node.params().resistance_k_per_w;
/// assert!((node.temperature().value() - expected).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct ThermalNode {
    params: ThermalParams,
    temperature: Celsius,
    peak: Celsius,
    /// `exp(-dt/τ)` of the last step length, keyed on that length.
    /// Boards step in fixed quanta, so the exponential is taken once
    /// rather than every quantum; the factor is the same value either way.
    decay: (Seconds, f64),
}

impl ThermalNode {
    /// Creates a node initialized to ambient temperature.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    pub fn new(params: ThermalParams) -> Self {
        #[expect(clippy::expect_used, reason = "constructor contract: documented panic")]
        params.validate().expect("invalid thermal parameters");
        ThermalNode {
            params,
            temperature: params.ambient,
            peak: params.ambient,
            decay: (Seconds::new(f64::NAN), f64::NAN),
        }
    }

    /// Advances the node by `dt` under `soc_power` of heat (SoC power
    /// only — the display's heat path is separate and excluded, as in the
    /// paper's CPU-focused thermal discussion).
    ///
    /// Negative or non-finite power is treated as zero.
    pub fn step(&mut self, soc_power: Watts, dt: Seconds) {
        if dt <= Seconds::ZERO || !dt.is_finite() {
            return;
        }
        let p = if soc_power.is_finite() {
            soc_power.max(Watts::ZERO)
        } else {
            Watts::ZERO
        };
        let t_ss = self
            .params
            .ambient
            .heated(p, self.params.resistance_k_per_w);
        // `dt > 0`, so comparing lengths is comparing their bits; the NaN
        // the node starts with matches no length.
        if self.decay.0 != dt {
            self.decay = (dt, (-(dt / self.params.time_constant)).exp());
        }
        self.temperature = t_ss + (self.temperature - t_ss) * self.decay.1;
        self.peak = self.peak.max(self.temperature);
    }

    /// Current die temperature.
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// The hottest temperature seen so far.
    pub fn peak(&self) -> Celsius {
        self.peak
    }

    /// The configured parameters.
    pub fn params(&self) -> ThermalParams {
        self.params
    }

    /// Changes the ambient temperature (e.g. moving the phone outdoors);
    /// the die temperature then relaxes toward the new steady state.
    ///
    /// # Panics
    ///
    /// Panics if the resulting parameters fail validation.
    pub fn set_ambient(&mut self, ambient: Celsius) {
        let next = ThermalParams {
            ambient,
            ..self.params
        };
        #[expect(clippy::expect_used, reason = "setter contract: documented panic")]
        next.validate().expect("invalid ambient");
        self.params = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: f64) -> Watts {
        Watts::new(v)
    }

    fn s(v: f64) -> Seconds {
        Seconds::new(v)
    }

    #[test]
    fn starts_at_ambient() {
        let node = ThermalNode::new(ThermalParams::nexus5_room());
        assert_eq!(node.temperature(), Celsius::new(25.0));
        assert_eq!(node.temperature().to_kelvin(), 298.15);
    }

    #[test]
    fn settles_at_ambient_plus_pr() {
        let params = ThermalParams::nexus5_room();
        let mut node = ThermalNode::new(params);
        for _ in 0..100_000 {
            node.step(w(2.0), s(0.01));
        }
        let expected = 25.0 + 2.0 * params.resistance_k_per_w;
        assert!((node.temperature().value() - expected).abs() < 0.01);
    }

    #[test]
    fn time_constant_governs_approach() {
        let params = ThermalParams::nexus5_room();
        let mut node = ThermalNode::new(params);
        // One time constant of heating at 1 W: should cover ~63% of the gap.
        let steps = (params.time_constant.value() / 0.001) as usize;
        for _ in 0..steps {
            node.step(w(1.0), s(0.001));
        }
        let frac = (node.temperature().value() - 25.0) / params.resistance_k_per_w;
        assert!((frac - 0.632).abs() < 0.01, "fraction {frac}");
    }

    #[test]
    fn cooling_when_power_drops() {
        let mut node = ThermalNode::new(ThermalParams::nexus5_room());
        for _ in 0..10_000 {
            node.step(w(3.0), s(0.01));
        }
        let hot = node.temperature().value();
        for _ in 0..10_000 {
            node.step(Watts::ZERO, s(0.01));
        }
        assert!(node.temperature().value() < hot);
        assert!((node.temperature().value() - 25.0).abs() < 0.1);
        assert!((node.peak().value() - hot).abs() < 1e-9);
    }

    #[test]
    fn cold_ambient_runs_cooler() {
        let mut room = ThermalNode::new(ThermalParams::nexus5_room());
        let mut cold = ThermalNode::new(ThermalParams::nexus5_cold());
        for _ in 0..50_000 {
            room.step(w(2.5), s(0.01));
            cold.step(w(2.5), s(0.01));
        }
        let gap = room.temperature().value() - cold.temperature().value();
        assert!((gap - 20.0).abs() < 0.1);
    }

    #[test]
    fn ignores_bad_inputs() {
        let mut node = ThermalNode::new(ThermalParams::nexus5_room());
        node.step(w(f64::NAN), s(1.0));
        node.step(w(-5.0), s(1.0));
        node.step(w(1.0), s(-1.0));
        node.step(w(1.0), s(f64::NAN));
        assert!(node.temperature().value() <= 25.0 + 1e-9);
        assert!(node.temperature().is_finite());
    }

    /// The memoised decay factor is the unmemoised update bit for bit,
    /// also when the step length changes (a board's final partial
    /// quantum) and changes back.
    #[test]
    fn memoised_decay_matches_the_direct_update() {
        let params = ThermalParams::nexus5_room();
        let mut node = ThermalNode::new(params);
        let mut temperature = params.ambient.value();
        for (i, dt) in [0.001, 0.001, 0.0004, 0.001, 0.0004, 0.0004, 0.01]
            .iter()
            .enumerate()
        {
            let p = 1.0 + i as f64 * 0.5;
            node.step(w(p), s(*dt));
            let t_ss = params.ambient.value() + p * params.resistance_k_per_w;
            let decay = (-dt / params.time_constant.value()).exp();
            temperature = t_ss + (temperature - t_ss) * decay;
            assert_eq!(node.temperature().value().to_bits(), temperature.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "implausible ambient")]
    fn rejects_absurd_ambient() {
        let _ = ThermalNode::new(ThermalParams {
            ambient: Celsius::new(500.0),
            ..ThermalParams::nexus5_room()
        });
    }
}
