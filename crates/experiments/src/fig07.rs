//! Fig. 7 — headline comparison: energy efficiency and load-time CDF.
//!
//! (a) Mean PPW normalized to `interactive` for `performance`, `DL`,
//! `EE` and `DORA` over the Webpage-Inclusive, Webpage-Neutral and
//! combined workload sets. Paper: DORA +16 % overall (+18 % inclusive,
//! +10 % neutral); EE +19 % but with QoS violations.
//!
//! (b) The load-time CDF per governor against the 3 s deadline. Paper:
//! EE leaves ~21 % of workloads past the deadline (up to 6 s); DORA
//! tracks the feasible frontier.
//!
//! Also reproduces footnote 8's `Offline_opt` spot check on ten
//! workloads, and the Section V-C headline numbers.

use crate::pipeline::Pipeline;
use crate::report::{fmt_f, fmt_gain, render_series, Table};
use dora_campaign::driver::CampaignDriver;
use dora_campaign::evaluate::{Evaluation, Policy, Subset};
use dora_campaign::workload::WorkloadSet;
use dora_sim_core::stats::Samples;
use dora_sim_core::Rng;

/// The Fig. 7 dataset.
#[derive(Debug, Clone)]
pub struct Fig07 {
    /// The full five-governor evaluation over all 54 workloads.
    pub evaluation: Evaluation,
    /// `Offline_opt` spot check: (workload id, offline PPW / DORA PPW).
    pub offline_check: Vec<(String, f64)>,
}

/// The governors panel (a) compares, baseline first.
pub const GOVERNORS: [&str; 5] = ["interactive", "performance", "DL", "EE", "DORA"];

/// Runs the full evaluation.
///
/// # Panics
///
/// Panics on internal policy errors (models are always supplied here).
#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
pub fn run(pipeline: &Pipeline) -> Fig07 {
    let driver = CampaignDriver::new().executor(pipeline.executor);
    let evaluation = driver
        .evaluate(
            &pipeline.workloads,
            &Policy::FIG7,
            Some(&pipeline.models),
            &pipeline.scenario,
        )
        .expect("models supplied");

    // Footnote 8: Offline_opt enumerated for ten randomly chosen
    // workloads (the full enumeration is what the authors call
    // "prohibitively high"; here it is merely slow).
    let mut rng = Rng::seed_from_u64(pipeline.scenario.seed ^ 0x0FF1);
    let mut indices: Vec<usize> = (0..pipeline.workloads.len()).collect();
    rng.shuffle(&mut indices);
    let ten = WorkloadSet::from_workloads(
        indices[..10]
            .iter()
            .map(|&i| pipeline.workloads.workloads()[i].clone())
            .collect(),
    );
    let spot = driver
        .evaluate(
            &ten,
            &[Policy::OfflineOpt, Policy::Dora],
            Some(&pipeline.models),
            &pipeline.scenario,
        )
        .expect("models supplied");
    let offline_check = spot
        .results_for("DORA")
        .iter()
        .map(|d| {
            let o = spot
                .results_for("offline_opt")
                .iter()
                .find(|o| o.workload_id == d.workload_id)
                .expect("same workloads")
                .ppw;
            (d.workload_id.clone(), o.value() / d.ppw.value())
        })
        .collect();

    Fig07 {
        evaluation,
        offline_check,
    }
}

impl Fig07 {
    /// Panel (a): mean normalized PPW per governor and subset.
    pub fn panel_a(&self) -> Vec<(String, f64, f64, f64)> {
        GOVERNORS
            .iter()
            .map(|g| {
                (
                    (*g).to_string(),
                    self.evaluation
                        .mean_normalized_ppw(g, "interactive", Subset::Inclusive),
                    self.evaluation
                        .mean_normalized_ppw(g, "interactive", Subset::Neutral),
                    self.evaluation
                        .mean_normalized_ppw(g, "interactive", Subset::All),
                )
            })
            .collect()
    }

    /// The Section V-C headlines: (mean DORA gain, max DORA gain,
    /// deadline-feasibility fraction of the performance governor, DORA's
    /// deadline-met fraction).
    pub fn headlines(&self) -> (f64, f64, f64, f64) {
        let ratios = self.evaluation.normalized_ppw("DORA", "interactive");
        let mean = ratios.iter().map(|(_, r)| r).sum::<f64>() / ratios.len() as f64;
        let max = ratios.iter().map(|(_, r)| *r).fold(0.0, f64::max);
        (
            mean - 1.0,
            max - 1.0,
            self.evaluation.deadline_met_fraction("performance"),
            self.evaluation.deadline_met_fraction("DORA"),
        )
    }

    /// Renders both panels, the offline spot check, and CDF series.
    pub fn render(&self) -> String {
        let mut a = Table::new(vec![
            "Governor".into(),
            "inclusive".into(),
            "neutral".into(),
            "all".into(),
        ]);
        for (g, inc, neu, all) in self.panel_a() {
            a.row(vec![g, fmt_gain(inc), fmt_gain(neu), fmt_gain(all)]);
        }
        let mut b = Table::new(vec![
            "Governor".into(),
            "met 3s (%)".into(),
            "median load (s)".into(),
            "p90 load (s)".into(),
            "max load (s)".into(),
        ]);
        let mut series = String::new();
        for g in GOVERNORS {
            let samples: Samples = self
                .evaluation
                .load_time_samples(g)
                .iter()
                .map(|t| t.value())
                .collect();
            b.row(vec![
                g.to_string(),
                fmt_f(self.evaluation.deadline_met_fraction(g) * 100.0, 1),
                fmt_f(samples.quantile(0.5), 2),
                fmt_f(samples.quantile(0.9), 2),
                fmt_f(samples.quantile(1.0), 2),
            ]);
            series.push_str(&render_series(
                &format!("{g}_load_time_cdf"),
                &samples.cdf_points(),
            ));
        }
        let mut spot = Table::new(vec!["Workload".into(), "offline_opt PPW / DORA PPW".into()]);
        for (id, ratio) in &self.offline_check {
            spot.row(vec![id.clone(), fmt_f(*ratio, 3)]);
        }
        let (mean, max, perf_met, dora_met) = self.headlines();
        format!(
            "Fig. 7(a): mean energy efficiency vs interactive\n{}\n\
             Fig. 7(b): load-time distribution (3s deadline)\n{}\n\
             Offline_opt spot check (10 workloads, footnote 8)\n{}\n\
             headlines: DORA mean {} / max {} vs interactive; \
             deadline feasible under performance: {}%; DORA meets: {}%\n\n{}",
            a.render(),
            b.render(),
            spot.render(),
            fmt_gain(1.0 + mean),
            fmt_gain(1.0 + max),
            fmt_f(perf_met * 100.0, 1),
            fmt_f(dora_met * 100.0, 1),
            series,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Scale;

    #[test]
    #[ignore = "full 54-workload x 5-governor evaluation; exercised by the fig07 binary"]
    fn reproduces_fig7_shape() {
        let pipeline = Pipeline::build(Scale::Full, 42);
        let fig = run(&pipeline);
        let (mean, max, perf_met, dora_met) = fig.headlines();
        // Paper band: +16% average (we accept 8-30%), up to +35%.
        assert!(mean > 0.08 && mean < 0.35, "mean gain {mean:.3}");
        assert!(max > mean, "max gain {max:.3}");
        // DORA meets the deadline essentially whenever performance does.
        assert!(dora_met >= perf_met - 0.06, "{dora_met} vs {perf_met}");
        // EE beats DORA on PPW but violates deadlines.
        let ee = fig
            .evaluation
            .mean_normalized_ppw("EE", "interactive", Subset::All);
        assert!(ee >= 1.0 + mean - 0.02);
        assert!(fig.evaluation.deadline_met_fraction("EE") < dora_met);
        // Offline-opt never hugely exceeds DORA (paper: DORA matches it).
        for (id, ratio) in &fig.offline_check {
            assert!(*ratio < 1.25, "{id}: offline/DORA = {ratio:.3}");
        }
    }
}
