//! Fig. 11 — DORA's frequency selection across QoS deadlines.
//!
//! MSN with a high-intensity co-runner, deadline swept from 1 to 10
//! seconds, *no retraining* ("the models used by DORA do not need to be
//! re-parameterized for using a different QoS deadline"). The paper's
//! staircase: demanding deadlines (1–2 s) pin `fmax`; at 3 s DORA sits at
//! the deadline-meeting `fD`; relaxed deadlines let it slide down to the
//! energy-optimal `fE`, below which it never goes.

use crate::pipeline::Pipeline;
use crate::report::{fmt_f, render_series, Table};
use dora::{DoraConfig, DoraGovernor};
use dora_campaign::runner::run_scenario;
use dora_campaign::workload::WorkloadSet;
use dora_coworkloads::Intensity;

/// One deadline's outcome.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// The QoS deadline, seconds.
    pub deadline_s: f64,
    /// The table frequency nearest DORA's time-weighted mean (GHz) — the
    /// setting DORA effectively held.
    pub fopt_ghz: f64,
    /// Measured load time under DORA at this deadline.
    pub load_time_s: f64,
    /// Whether the load met this deadline.
    pub met: bool,
}

/// The Fig. 11 dataset.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// One row per deadline, 1 s to 10 s.
    pub rows: Vec<Fig11Row>,
}

/// Runs the deadline sweep.
#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
pub fn run(pipeline: &Pipeline) -> Fig11 {
    let set = WorkloadSet::paper54();
    let workload = set
        .find_by_class("MSN", Intensity::High)
        .expect("MSN+high exists");
    let dvfs = &pipeline.scenario.board.dvfs;
    let rows = (1..=10)
        .map(|deadline| {
            let deadline_s = deadline as f64;
            let mut governor = DoraGovernor::new(
                pipeline.models.clone(),
                workload.page.features,
                DoraConfig {
                    qos_target: dora::units::Seconds::new(deadline_s),
                    ..DoraConfig::default()
                },
            );
            let config = pipeline
                .scenario
                .to_builder()
                .deadline(dora::units::Seconds::new(deadline_s))
                .build();
            let r = run_scenario(workload, &mut governor, &config);
            let fopt_ghz = dvfs
                .nearest(dora_soc::Frequency::from_mhz(r.mean_frequency.as_mhz()))
                .as_ghz();
            Fig11Row {
                deadline_s,
                fopt_ghz,
                load_time_s: r.load_time.value(),
                met: r.met_deadline,
            }
        })
        .collect();
    Fig11 { rows }
}

impl Fig11 {
    /// The relaxed-deadline plateau frequency (the last row's choice) —
    /// DORA's `fE` for this workload.
    #[expect(
        clippy::expect_used,
        reason = "result rows come from the fixed sweep grid of `run`"
    )]
    pub fn fe_plateau_ghz(&self) -> f64 {
        self.rows.last().expect("ten rows").fopt_ghz
    }

    /// Renders the staircase.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Deadline (s)".into(),
            "fopt (GHz)".into(),
            "load (s)".into(),
            "met".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                fmt_f(r.deadline_s, 0),
                fmt_f(r.fopt_ghz, 2),
                fmt_f(r.load_time_s, 2),
                r.met.to_string(),
            ]);
        }
        let series: Vec<(f64, f64)> = self
            .rows
            .iter()
            .map(|r| (r.deadline_s, r.fopt_ghz))
            .collect();
        format!(
            "Fig. 11: DORA frequency selection vs deadline (MSN + high co-runner)\n{}\
             fE plateau: {} GHz\n\n{}",
            t.render(),
            fmt_f(self.fe_plateau_ghz(), 2),
            render_series("fopt_vs_deadline", &series),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Scale;

    #[test]
    #[ignore = "needs the trained pipeline; exercised by the fig11 binary"]
    fn reproduces_fig11_staircase() {
        let pipeline = Pipeline::build(Scale::Full, 42);
        let fig = run(&pipeline);
        assert_eq!(fig.rows.len(), 10);
        // Non-increasing staircase.
        for pair in fig.rows.windows(2) {
            assert!(
                pair[0].fopt_ghz >= pair[1].fopt_ghz - 1e-9,
                "staircase must not rise: {:#?}",
                fig.rows
            );
        }
        // Demanding deadlines pin the top of the range.
        assert!(fig.rows[0].fopt_ghz > 2.0, "{:#?}", fig.rows[0]);
        // Relaxed deadlines settle at an interior fE, not the minimum.
        let fe = fig.fe_plateau_ghz();
        assert!(fe < 2.0, "fE plateau {fe}");
        assert!(fe > 0.3, "fE plateau {fe}");
        // The plateau is flat at the tail (deadline no longer binds).
        let tail: Vec<f64> = fig.rows[7..].iter().map(|r| r.fopt_ghz).collect();
        assert!(
            tail.windows(2).all(|w| (w[0] - w[1]).abs() < 0.3),
            "{tail:?}"
        );
        // Feasible deadlines are met.
        for r in &fig.rows {
            if r.deadline_s >= 3.0 {
                assert!(r.met, "deadline {}s missed: {r:?}", r.deadline_s);
            }
        }
    }
}
