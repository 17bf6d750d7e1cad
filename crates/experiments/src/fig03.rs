//! Fig. 3 — the optimal operating mode: `fopt = max(fD, fE)`.
//!
//! For two workloads the paper sweeps frequency and plots load time and
//! PPW side by side:
//!
//! * **ESPN** (high complexity): the PPW-optimal `fE` misses the 3 s
//!   deadline, so `fopt = fD` (a high setting);
//! * **MSN** (low complexity): the deadline is easy, `fD < fE`, so
//!   `fopt = fE` (an interior setting).
//!
//! Running flat out instead of at `fopt` costs 17 % (ESPN) and 28 % (MSN)
//! of PPW in the paper; the module reports the same "PPW left on the
//! table at fmax" number.

use crate::report::{fmt_f, render_series, Table};
use dora_campaign::driver::CampaignDriver;
use dora_campaign::runner::{OracleFrequencies, ScenarioConfig};
use dora_campaign::workload::WorkloadSet;
use dora_campaign::Executor;
use dora_coworkloads::Intensity;

/// One workload's sweep and verdicts.
#[derive(Debug, Clone)]
pub struct Fig03Side {
    /// Page name.
    pub page: String,
    /// The oracle sweep (every table frequency).
    pub oracle: OracleFrequencies,
    /// PPW sacrificed by running at `fmax` instead of `fopt`, as a
    /// fraction of the `fopt` PPW.
    pub fmax_ppw_loss: f64,
}

/// The Fig. 3 dataset: ESPN (left) and MSN (right).
#[derive(Debug, Clone)]
pub struct Fig03 {
    /// ESPN side (expected `fD > fE`).
    pub espn: Fig03Side,
    /// MSN side (expected `fD < fE`).
    pub msn: Fig03Side,
}

#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
fn side(page: &str, config: &ScenarioConfig, executor: &Executor) -> Fig03Side {
    let set = WorkloadSet::paper54();
    let workload = set
        .find_by_class(page, Intensity::High)
        .expect("page in the 54-workload set");
    let o = CampaignDriver::new()
        .executor(*executor)
        .oracle(workload, config);
    let ppw_at = |mhz: f64| -> f64 {
        o.sweep
            .iter()
            .find(|p| (p.frequency.as_mhz() - mhz).abs() < 1e-9)
            .expect("table frequency in sweep")
            .result
            .ppw
            .value()
    };
    let ppw_fopt = ppw_at(o.fopt.as_mhz());
    let ppw_fmax = ppw_at(config.board.dvfs.max_frequency().as_mhz());
    Fig03Side {
        page: page.to_string(),
        fmax_ppw_loss: (1.0 - ppw_fmax / ppw_fopt).max(0.0),
        oracle: o,
    }
}

/// Measures both sides of the figure.
pub fn run(config: &ScenarioConfig) -> Fig03 {
    run_with(config, &Executor::auto())
}

/// [`run`] on a caller-chosen executor.
pub fn run_with(config: &ScenarioConfig, executor: &Executor) -> Fig03 {
    Fig03 {
        espn: side("ESPN", config, executor),
        msn: side("MSN", config, executor),
    }
}

impl Fig03Side {
    fn render(&self, deadline_s: f64) -> String {
        let mut t = Table::new(vec![
            "Freq (GHz)".into(),
            "load (s)".into(),
            "PPW".into(),
            "meets deadline".into(),
        ]);
        for p in &self.oracle.sweep {
            t.row(vec![
                fmt_f(p.frequency.as_ghz(), 3),
                fmt_f(p.result.load_time.value(), 2),
                fmt_f(p.result.ppw.value(), 4),
                p.result.met_deadline.to_string(),
            ]);
        }
        let fd = self
            .oracle
            .fd
            .map_or("none".to_string(), |f| format!("{f}"));
        format!(
            "{} + high-intensity co-runner (deadline {deadline_s}s)\n{}\
             fD={fd}  fE={}  fopt={}  PPW loss at fmax: {}\n",
            self.page,
            t.render(),
            self.oracle.fe,
            self.oracle.fopt,
            fmt_f(self.fmax_ppw_loss * 100.0, 1) + "%",
        )
    }

    /// The `(GHz, PPW)` series for plotting.
    pub fn ppw_series(&self) -> Vec<(f64, f64)> {
        self.oracle
            .sweep
            .iter()
            .map(|p| (p.frequency.as_ghz(), p.result.ppw.value()))
            .collect()
    }
}

impl Fig03 {
    /// Renders both panels plus plot-ready series.
    pub fn render(&self) -> String {
        format!(
            "Fig. 3: load time and energy efficiency vs frequency\n\n{}\n{}\n{}{}",
            self.espn.render(3.0),
            self.msn.render(3.0),
            render_series("espn_ppw", &self.espn.ppw_series()),
            render_series("msn_ppw", &self.msn.ppw_series()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dora_sim_core::SimDuration;

    fn quick() -> ScenarioConfig {
        ScenarioConfig::builder()
            .warmup(SimDuration::from_secs(5))
            .build()
    }

    #[test]
    fn reproduces_fig3_regimes() {
        let fig = run(&quick());
        // MSN: deadline easy, fopt = fE, strictly interior.
        let msn = &fig.msn.oracle;
        let fd_msn = msn.fd.expect("MSN meets 3s at some frequency");
        assert!(fd_msn <= msn.fe, "MSN should be in the fD <= fE regime");
        assert_eq!(msn.fopt, msn.fe);
        assert!(msn.fe < quick().board.dvfs.max_frequency());
        // ESPN: deadline hard — fD (if any) sits above fE, fopt = fD or
        // fmax.
        let espn = &fig.espn.oracle;
        match espn.fd {
            Some(fd) => {
                assert!(fd >= espn.fe, "ESPN should be in the fD > fE regime");
                assert_eq!(espn.fopt, fd);
            }
            None => {
                assert_eq!(espn.fopt, quick().board.dvfs.max_frequency());
            }
        }
        // Running at fmax instead of fopt visibly wastes PPW for MSN
        // (paper: 28%).
        assert!(
            fig.msn.fmax_ppw_loss > 0.10,
            "MSN fmax loss {:.3}",
            fig.msn.fmax_ppw_loss
        );
    }
}
