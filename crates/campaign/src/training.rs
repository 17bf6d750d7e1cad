//! Offline measurement campaigns.
//!
//! Section IV-C: "Over 300 measurements of power and web page load times
//! are taken by executing multiple workload combinations at different
//! frequency settings." This module runs those sweeps in the simulator:
//!
//! * [`training_campaign`] — pinned-frequency loads of the
//!   Webpage-Inclusive workloads across the DVFS table, emitting
//!   [`TrainingObservation`]s for the trainer. The full sweep (42
//!   workloads × 14 frequencies = 588 runs) comfortably exceeds the
//!   paper's "over 300 measurements".
//! * [`leakage_calibration`] — idle thermal-soak measurements across
//!   operating points and ambient temperatures, emitting
//!   [`LeakageObservation`]s for the Eq. 5 fit. On the bench this is a
//!   rail measurement of the idle SoC (total minus the constant platform
//!   draw) after the die settles at each condition.

use crate::executor::Executor;
use crate::runner::{run_scenario, ScenarioConfig};
use crate::workload::{Workload, WorkloadSet};
use dora::models::PredictorInputs;
use dora::trainer::TrainingObservation;
use dora_governors::PinnedGovernor;
use dora_modeling::leakage::LeakageObservation;
use dora_sim_core::units::{Celsius, Watts};
use dora_sim_core::SimDuration;
use dora_soc::board::{Board, BoardConfig};
use dora_soc::Frequency;

/// Configuration of the training sweep.
#[derive(Debug, Clone, Default)]
pub struct TrainingCampaignConfig {
    /// Base scenario configuration (board, warm-up, deadline for the
    /// bookkeeping fields).
    pub scenario: ScenarioConfig,
    /// The frequencies to sweep; `None` sweeps the whole table.
    pub frequencies: Option<Vec<Frequency>>,
}

/// Runs one pinned-frequency measurement and converts it into a
/// [`TrainingObservation`].
pub fn measure_observation(
    workload: &Workload,
    frequency: Frequency,
    config: &ScenarioConfig,
) -> TrainingObservation {
    let mut pinned = PinnedGovernor::new("train", frequency);
    let result = run_scenario(workload, &mut pinned, config);
    let inputs = PredictorInputs::for_frequency(
        workload.page.features,
        frequency,
        &config.board.dvfs,
        result.mean_mpki,
        result.corun_utilization,
    );
    TrainingObservation {
        inputs,
        load_time: result.load_time,
        total_power: result.mean_power,
        mean_temp: result.final_temp,
    }
}

/// The full offline training sweep over the Webpage-Inclusive workloads,
/// behind [`crate::driver::CampaignDriver::training_campaign`]: one
/// observation per (training workload, frequency).
///
/// Each measurement is an independent seeded simulation, so the returned
/// observations are bit-identical to the sequential sweep, in the same
/// workload-major, frequency-minor order.
pub(crate) fn training_campaign_impl(
    set: &WorkloadSet,
    config: &TrainingCampaignConfig,
    executor: &Executor,
) -> Vec<TrainingObservation> {
    let freqs: Vec<Frequency> = match &config.frequencies {
        Some(fs) => fs.clone(),
        None => config.scenario.board.dvfs.frequencies().collect(),
    };
    let grid: Vec<(&Workload, Frequency)> = set
        .inclusive()
        .flat_map(|w| freqs.iter().map(move |&f| (w, f)))
        .collect();
    executor.map(&grid, |&(workload, f)| {
        measure_observation(workload, f, &config.scenario)
    })
}

/// Idle leakage calibration, behind
/// [`crate::driver::CampaignDriver::leakage_calibration`]: for each
/// operating point and ambient temperature, soak the idle board until the
/// die settles, then record
/// `(voltage, die temperature, idle power − platform floor)`.
///
/// The subtraction mirrors the bench procedure: the platform floor
/// (display and rails) is measured once with the SoC rails gated and
/// removed from every sample, leaving the SoC leakage, since idle cores
/// clock-gate their dynamic power away. Each soak is an independent
/// board, so observations are bit-identical to the sequential sweep.
#[expect(
    clippy::expect_used,
    reason = "table-sourced frequency: documented invariant"
)]
pub(crate) fn leakage_calibration_impl(
    base: &BoardConfig,
    ambients: &[Celsius],
    executor: &Executor,
) -> Vec<LeakageObservation> {
    let soak = SimDuration::from_secs(60);
    let grid: Vec<(Celsius, dora_soc::Opp)> = ambients
        .iter()
        .flat_map(|&ambient| base.dvfs.opps().iter().map(move |&opp| (ambient, opp)))
        .collect();
    executor.map(&grid, |&(ambient, opp)| {
        let config = BoardConfig {
            thermal: dora_soc::thermal::ThermalParams {
                ambient,
                ..base.thermal
            },
            ..base.clone()
        };
        let mut board = Board::new(config, 7);
        board.set_frequency(opp.frequency).expect("table frequency");
        board.step(soak);
        let idle_power = board.last_power().total();
        let platform = board.config().power.platform_floor;
        LeakageObservation {
            voltage: opp.voltage,
            temp: board.temperature(),
            power: (idle_power - platform).max(Watts::ZERO),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CampaignDriver;
    use dora_coworkloads::Intensity;
    use dora_modeling::leakage::fit_leakage;

    fn quick_scenario() -> ScenarioConfig {
        ScenarioConfig::builder()
            .warmup(SimDuration::from_secs(3))
            .build()
    }

    #[test]
    fn observation_carries_measured_dynamics() {
        let set = WorkloadSet::paper54();
        let w = set
            .find_by_class("Reddit", Intensity::High)
            .expect("present");
        let obs = measure_observation(w, Frequency::from_mhz(1497.6), &quick_scenario());
        let load_s = obs.load_time.value();
        assert!(load_s > 0.5 && load_s < 10.0);
        let power_w = obs.total_power.value();
        assert!(power_w > 1.5 && power_w < 6.5);
        assert!(
            obs.inputs.l2_mpki.value() > 1.0,
            "high co-runner must show MPKI"
        );
        assert!(obs.inputs.corun_utilization.value() > 0.5);
        assert!((obs.inputs.core_frequency.as_ghz() - 1.4976).abs() < 1e-9);
        assert_eq!(obs.inputs.bus_frequency.as_mhz(), 800.0);
        assert!(
            obs.mean_temp > Celsius::new(25.0),
            "warm-up must heat the die"
        );
    }

    #[test]
    fn small_campaign_produces_expected_grid() {
        let set = WorkloadSet::paper54();
        // Two pages only, three frequencies: 2 pages x 3 classes x 3 f.
        let subset = crate::workload::WorkloadSet::from_workloads(
            set.workloads()
                .iter()
                .filter(|w| w.page.name == "Amazon" || w.page.name == "MSN")
                .cloned()
                .collect(),
        );
        let config = TrainingCampaignConfig {
            scenario: quick_scenario(),
            frequencies: Some(vec![
                Frequency::from_mhz(729.6),
                Frequency::from_mhz(1497.6),
                Frequency::from_mhz(2265.6),
            ]),
        };
        let obs = CampaignDriver::new().training_campaign(&subset, &config);
        assert_eq!(obs.len(), 2 * 3 * 3);
        // One row per (class, frequency) for Amazon (1400 DOM nodes).
        let amazon: Vec<&TrainingObservation> = obs
            .iter()
            .filter(|o| o.inputs.page.dom_nodes() == 1400)
            .collect();
        assert_eq!(amazon.len(), 9);
        // Shared-L2 MPKI rises with the co-runner class at a fixed
        // frequency (the X6 signal DORA keys on).
        let at_15: Vec<&&TrainingObservation> = amazon
            .iter()
            .filter(|o| (o.inputs.core_frequency.as_ghz() - 1.4976).abs() < 1e-9)
            .collect();
        assert_eq!(at_15.len(), 3);
        let mut mpkis: Vec<f64> = at_15.iter().map(|o| o.inputs.l2_mpki.value()).collect();
        let unsorted = mpkis.clone();
        mpkis.sort_by(f64::total_cmp);
        assert!(
            mpkis[2] > mpkis[0] * 1.3,
            "MPKI spread too small: {unsorted:?}"
        );
    }

    #[test]
    fn parallel_training_campaign_matches_sequential() {
        use crate::executor::{Executor, Parallelism};
        let set = WorkloadSet::paper54();
        let subset = crate::workload::WorkloadSet::from_workloads(
            set.workloads()
                .iter()
                .filter(|w| w.page.name == "Amazon")
                .cloned()
                .collect(),
        );
        let config = TrainingCampaignConfig {
            scenario: quick_scenario(),
            frequencies: Some(vec![
                Frequency::from_mhz(729.6),
                Frequency::from_mhz(2265.6),
            ]),
        };
        let sequential = CampaignDriver::new().training_campaign(&subset, &config);
        let parallel = CampaignDriver::new()
            .executor(Executor::new(Parallelism::Fixed(3)))
            .training_campaign(&subset, &config);
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.load_time, p.load_time);
            assert_eq!(s.total_power, p.total_power);
            assert_eq!(s.inputs.l2_mpki, p.inputs.l2_mpki);
        }
    }

    #[test]
    fn leakage_calibration_is_fittable() {
        let obs = CampaignDriver::new().leakage_calibration(
            &dora_soc::SocProfile::msm8974().board_config(),
            &[Celsius::new(5.0), Celsius::new(25.0), Celsius::new(45.0)],
        );
        assert_eq!(obs.len(), 3 * 14);
        // Voltage and temperature must both vary for identifiability.
        let vmin = obs.iter().map(|o| o.voltage).fold(f64::INFINITY, f64::min);
        let vmax = obs.iter().map(|o| o.voltage).fold(0.0, f64::max);
        let tmin = obs
            .iter()
            .map(|o| o.temp.value())
            .fold(f64::INFINITY, f64::min);
        let tmax = obs.iter().map(|o| o.temp.value()).fold(0.0, f64::max);
        assert!(vmax - vmin > 0.25, "voltage span {vmin}..{vmax}");
        assert!(tmax - tmin > 20.0, "temperature span {tmin}..{tmax}");
        // And the Eq. 5 fit recovers the board's ground truth closely.
        let fit = fit_leakage(&obs, 3).expect("fits");
        let truth = dora_soc::power::LeakageParams::nexus5();
        for (v, c) in [(0.85, 40.0), (1.1, 65.0)] {
            let c = Celsius::new(c);
            let t = truth.power(v, c).value();
            let rel = (fit.params.eval(v, c).value() - t).abs() / t;
            assert!(rel < 0.05, "leakage fit off by {rel:.3} at ({v},{c})");
        }
    }

    #[test]
    fn idle_soak_reaches_near_ambient_steady_state() {
        let obs = CampaignDriver::new().leakage_calibration(
            &dora_soc::SocProfile::msm8974().board_config(),
            &[Celsius::new(25.0)],
        );
        // At the lowest OPP the leakage is tiny, so die ~ ambient.
        let coolest = obs
            .iter()
            .map(|o| o.temp.value())
            .fold(f64::INFINITY, f64::min);
        assert!((25.0..28.0).contains(&coolest), "coolest {coolest}");
    }
}
