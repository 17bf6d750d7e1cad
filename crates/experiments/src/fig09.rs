//! Fig. 9 — DORA across page complexity and interference intensity.
//!
//! A drill-down on one low-complexity page (Amazon) and one
//! high-complexity page (IMDB), each under low/medium/high interference:
//! for `performance`, the static `fD` and `fE` pins and `DORA`, the PPW
//! normalized to `interactive` and the load time, with the chosen
//! frequencies annotated. Paper findings reproduced here:
//!
//! * Amazon's `fD` hovers at the bottom of the range and `fE` well above
//!   it, so DORA behaves like EE and gains up to ~27 %;
//! * IMDB's `fD` sits at 1.9–2.2 GHz, so DORA behaves like DL with
//!   modest (1–10 %) gains;
//! * rising interference pushes `fD` upward and load time with it.

use crate::pipeline::Pipeline;
use crate::report::{fmt_f, Table};
use dora_campaign::driver::CampaignDriver;
use dora_campaign::evaluate::Policy;
use dora_campaign::workload::WorkloadSet;
use dora_coworkloads::Intensity;
use std::collections::BTreeMap;

/// One (page, intensity) cell of the figure.
#[derive(Debug, Clone)]
pub struct Fig09Cell {
    /// Page name.
    pub page: String,
    /// Co-runner intensity.
    pub intensity: Intensity,
    /// Per-governor `(normalized PPW, load time s, mean frequency GHz)`.
    pub by_governor: BTreeMap<String, (f64, f64, f64)>,
    /// The measured oracle `fD` in GHz (`None` when infeasible).
    pub fd_ghz: Option<f64>,
    /// The measured oracle `fE` in GHz.
    pub fe_ghz: f64,
}

/// The Fig. 9 dataset.
#[derive(Debug, Clone)]
pub struct Fig09 {
    /// Six cells: {Amazon, IMDB} × {low, medium, high}.
    pub cells: Vec<Fig09Cell>,
}

/// The governors shown in the figure (plus the baseline).
pub const GOVERNORS: [&str; 5] = ["interactive", "performance", "fD", "fE", "DORA"];

/// Runs the drill-down.
///
/// # Panics
///
/// Panics on internal policy errors (models are always supplied here).
#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
pub fn run(pipeline: &Pipeline) -> Fig09 {
    let all = WorkloadSet::paper54();
    let mut cells = Vec::new();
    for page in ["Amazon", "IMDB"] {
        for intensity in Intensity::ALL {
            let workload = all
                .find_by_class(page, intensity)
                .expect("page x class exists")
                .clone();
            let set = WorkloadSet::from_workloads(vec![workload.clone()]);
            let eval = CampaignDriver::new()
                .executor(pipeline.executor)
                .evaluate(
                    &set,
                    &[
                        Policy::Interactive,
                        Policy::Performance,
                        Policy::OracleFd,
                        Policy::OracleFe,
                        Policy::Dora,
                    ],
                    Some(&pipeline.models),
                    &pipeline.scenario,
                )
                .expect("models supplied");
            let base = eval.results_for("interactive")[0].ppw.value();
            let by_governor = GOVERNORS
                .iter()
                .map(|g| {
                    let r = eval.results_for(g)[0];
                    (
                        (*g).to_string(),
                        (
                            r.ppw.value() / base,
                            r.load_time.value(),
                            r.mean_frequency.as_ghz(),
                        ),
                    )
                })
                .collect();
            let oracle = &eval.oracles()[&workload.id()];
            cells.push(Fig09Cell {
                page: page.to_string(),
                intensity,
                by_governor,
                fd_ghz: oracle.fd.map(|f| f.as_ghz()),
                fe_ghz: oracle.fe.as_ghz(),
            });
        }
    }
    Fig09 { cells }
}

impl Fig09 {
    /// The cells of one page, in intensity order.
    pub fn page_cells(&self, page: &str) -> Vec<&Fig09Cell> {
        self.cells.iter().filter(|c| c.page == page).collect()
    }

    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 9: DORA vs page complexity and interference\n\n");
        for page in ["Amazon", "IMDB"] {
            let mut t = Table::new(vec![
                "Intensity".into(),
                "fD (GHz)".into(),
                "fE (GHz)".into(),
                "gov".into(),
                "PPW vs interactive".into(),
                "load (s)".into(),
                "mean f (GHz)".into(),
            ]);
            for cell in self.page_cells(page) {
                for g in GOVERNORS.iter().skip(1) {
                    let (ppw, load, freq) = cell.by_governor[*g];
                    t.row(vec![
                        cell.intensity.to_string(),
                        cell.fd_ghz.map_or("-".into(), |f| fmt_f(f, 2)),
                        fmt_f(cell.fe_ghz, 2),
                        (*g).to_string(),
                        fmt_f(ppw, 3),
                        fmt_f(load, 2),
                        fmt_f(freq, 2),
                    ]);
                }
            }
            out.push_str(&format!("{page}\n{}\n", t.render()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Scale;

    #[test]
    #[ignore = "six oracle sweeps plus evaluations; exercised by the fig09 binary"]
    fn reproduces_fig9_regimes() {
        let pipeline = Pipeline::build(Scale::Full, 42);
        let fig = run(&pipeline);
        assert_eq!(fig.cells.len(), 6);
        // Amazon: easy page — fD well below fE at low/medium intensity.
        let amazon = fig.page_cells("Amazon");
        let low = amazon[0];
        let fd = low.fd_ghz.expect("Amazon+low is feasible");
        assert!(fd < low.fe_ghz, "Amazon low: fD {fd} vs fE {}", low.fe_ghz);
        // DORA gains visibly on Amazon.
        assert!(low.by_governor["DORA"].0 > 1.05);
        // IMDB: hard page — fD (when feasible) is >= 1.9 GHz.
        for cell in fig.page_cells("IMDB") {
            if let Some(fd) = cell.fd_ghz {
                assert!(fd > 1.8, "IMDB fD {fd} at {}", cell.intensity);
            }
        }
        // Interference pushes Amazon's fD upward (low -> high).
        let fd_low = amazon[0].fd_ghz.expect("feasible");
        let fd_high = amazon[2].fd_ghz.expect("feasible");
        assert!(fd_high >= fd_low);
    }
}
