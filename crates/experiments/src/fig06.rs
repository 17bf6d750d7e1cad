//! Fig. 6 — why small model errors don't move `fopt`.
//!
//! For Youtube co-run with a high-intensity kernel the paper plots the
//! measured PPW across frequencies: the optimum sits at an interior
//! frequency, and stepping one bin away changes load time and power by
//! tens of percent (Δt = +20.3 %, ΔP = −13.3 % below; Δt = −20.8 %,
//! ΔP = +34.8 % above). Because the PPW gaps between adjacent bins dwarf
//! the ~1 % model errors, DORA's argmax is robust (Section V-B).

use crate::pipeline::Pipeline;
use crate::report::{fmt_f, render_series, Table};
use dora::models::PredictorInputs;
use dora_campaign::driver::CampaignDriver;
use dora_campaign::runner::{OracleFrequencies, ScenarioConfig};
use dora_campaign::workload::WorkloadSet;
use dora_coworkloads::Intensity;
use dora_soc::Frequency;

/// The Fig. 6 dataset.
#[derive(Debug, Clone)]
pub struct Fig06 {
    /// The full measured sweep for Youtube+high.
    pub oracle: OracleFrequencies,
    /// The measured PPW-optimal frequency.
    pub fopt: Frequency,
    /// `(Δt, ΔP)` stepping one bin below `fopt` (fractions).
    pub below: (f64, f64),
    /// `(Δt, ΔP)` stepping one bin above `fopt` (fractions).
    pub above: (f64, f64),
    /// Model prediction errors at `fopt`: `(time, power)` relative errors.
    pub model_errors_at_fopt: (f64, f64),
}

/// Measures the figure. Needs the pipeline for the model-error overlay.
#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
pub fn run(pipeline: &Pipeline, config: &ScenarioConfig) -> Fig06 {
    let set = WorkloadSet::paper54();
    let workload = set
        .find_by_class("Youtube", Intensity::High)
        .expect("Youtube+high in the 54-workload set");
    let o = CampaignDriver::new()
        .executor(pipeline.executor)
        .oracle(workload, config);
    // fE is the measured PPW optimum regardless of the deadline.
    let fopt = o.fe;
    let dvfs = &config.board.dvfs;
    let at = |f: Frequency| {
        o.sweep
            .iter()
            .find(|p| (p.frequency.as_mhz() - f.as_mhz()).abs() < 1e-9)
            .expect("table frequency in sweep")
            .result
            .clone()
    };
    let center = at(fopt);
    let below_f = dvfs.step_down(fopt).expect("fopt is a table frequency");
    let above_f = dvfs.step_up(fopt).expect("fopt is a table frequency");
    let below_r = at(below_f);
    let above_r = at(above_f);
    let deltas = |r: &dora_campaign::RunResult| {
        (
            r.load_time.value() / center.load_time.value() - 1.0,
            r.mean_power.value() / center.mean_power.value() - 1.0,
        )
    };

    // Model prediction at fopt under the measured conditions.
    let inputs = PredictorInputs::for_frequency(
        workload.page.features,
        fopt,
        dvfs,
        center.mean_mpki,
        center.corun_utilization,
    );
    let t_pred = pipeline.models.predict_load_time(&inputs);
    let p_pred = pipeline
        .models
        .predict_total_power(&inputs, center.final_temp, true);

    Fig06 {
        fopt,
        below: deltas(&below_r),
        above: deltas(&above_r),
        model_errors_at_fopt: (
            (t_pred.value() - center.load_time.value()) / center.load_time.value(),
            (p_pred.value() - center.mean_power.value()) / center.mean_power.value(),
        ),
        oracle: o,
    }
}

impl Fig06 {
    /// Whether the model errors are small enough that the argmax cannot
    /// move to a neighboring bin (the paper's robustness argument): the
    /// PPW error bound `(1+Pe)(1+te) − 1` must be smaller than the PPW gap
    /// to the better neighbor.
    #[expect(
        clippy::expect_used,
        reason = "result rows come from the fixed sweep grid of `run`"
    )]
    pub fn fopt_is_robust(&self) -> bool {
        let (te, pe) = self.model_errors_at_fopt;
        let ppw_error = ((1.0 + pe.abs()) * (1.0 + te.abs())) - 1.0;
        let at = |mhz: f64| {
            self.oracle
                .sweep
                .iter()
                .find(|p| (p.frequency.as_mhz() - mhz).abs() < 1e-9)
                .expect("in sweep")
                .result
                .ppw
                .value()
        };
        let center = at(self.fopt.as_mhz());
        let neighbor_best = self
            .oracle
            .sweep
            .iter()
            .filter(|p| (p.frequency.as_mhz() - self.fopt.as_mhz()).abs() > 1e-9)
            .map(|p| p.result.ppw.value())
            .fold(0.0, f64::max);
        let gap = (center - neighbor_best) / center;
        ppw_error < gap.max(0.0) + 0.05 // small slack: adjacent bins may tie
    }

    /// Renders the panel.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["Freq (GHz)".into(), "PPW".into(), "load (s)".into()]);
        for p in &self.oracle.sweep {
            t.row(vec![
                fmt_f(p.frequency.as_ghz(), 3),
                fmt_f(p.result.ppw.value(), 4),
                fmt_f(p.result.load_time.value(), 2),
            ]);
        }
        let series: Vec<(f64, f64)> = self
            .oracle
            .sweep
            .iter()
            .map(|p| (p.frequency.as_ghz(), p.result.ppw.value()))
            .collect();
        format!(
            "Fig. 6: PPW across frequencies, Youtube + high-intensity co-runner\n{}\
             fopt = {}\n\
             one bin below: dt = {}, dP = {}\n\
             one bin above: dt = {}, dP = {}\n\
             model errors at fopt: time {}, power {}\n\
             fopt robust to model error: {}\n\n{}",
            t.render(),
            self.fopt,
            fmt_f(self.below.0 * 100.0, 1) + "%",
            fmt_f(self.below.1 * 100.0, 1) + "%",
            fmt_f(self.above.0 * 100.0, 1) + "%",
            fmt_f(self.above.1 * 100.0, 1) + "%",
            fmt_f(self.model_errors_at_fopt.0 * 100.0, 2) + "%",
            fmt_f(self.model_errors_at_fopt.1 * 100.0, 2) + "%",
            self.fopt_is_robust(),
            render_series("youtube_high_ppw", &series),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Scale;

    #[test]
    #[ignore = "needs the trained pipeline; exercised by the fig06 binary"]
    fn fopt_interior_and_neighbors_expensive() {
        let pipeline = Pipeline::build(Scale::Full, 42);
        let fig = run(&pipeline, &pipeline.scenario);
        let dvfs = &pipeline.scenario.board.dvfs;
        assert!(fig.fopt > dvfs.min_frequency());
        assert!(fig.fopt < dvfs.max_frequency());
        // Stepping down slows the load; stepping up burns power.
        assert!(fig.below.0 > 0.05, "below dt {:?}", fig.below);
        assert!(fig.above.1 > 0.05, "above dP {:?}", fig.above);
        // And the model errors are far smaller than those swings.
        assert!(fig.model_errors_at_fopt.0.abs() < 0.05);
        assert!(fig.model_errors_at_fopt.1.abs() < 0.05);
    }
}
