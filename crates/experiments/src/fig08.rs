//! Fig. 8 — per-workload energy efficiency, seven governors.
//!
//! Every workload's PPW under `interactive`, `performance`, the measured
//! static `fD`/`fE` pins, `DORA`, `DL` and `EE`, normalized to
//! `interactive` and sorted by DORA's improvement. The paper's reading:
//! for workloads where `fE ≥ fD` (easy deadlines) DORA rides the EE
//! frontier (+24 % on average); where `fE < fD` it pivots to DL's
//! deadline-first behaviour while EE blows through the deadline.

use crate::pipeline::Pipeline;
use crate::report::{fmt_f, Table};
use dora_campaign::driver::CampaignDriver;
use dora_campaign::evaluate::{Evaluation, Policy};
use dora_soc::Frequency;
use std::collections::BTreeMap;

/// One workload's row in the figure.
#[derive(Debug, Clone)]
pub struct Fig08Row {
    /// Workload id (`page+kernel`).
    pub workload_id: String,
    /// Normalized PPW per governor, keyed by governor name.
    pub normalized_ppw: BTreeMap<String, f64>,
    /// Whether the workload is in the `fE < fD` regime (deadline-bound).
    pub deadline_bound: bool,
}

/// The Fig. 8 dataset.
#[derive(Debug, Clone)]
pub struct Fig08 {
    /// Rows sorted ascending by DORA's normalized PPW (the paper's
    /// x-axis ordering).
    pub rows: Vec<Fig08Row>,
    /// The evaluation behind the rows.
    pub evaluation: Evaluation,
}

/// The seven governors of the figure (baseline first).
pub const GOVERNORS: [&str; 7] = ["interactive", "performance", "fD", "fE", "DORA", "DL", "EE"];

/// Runs the evaluation and assembles the sorted rows.
///
/// # Panics
///
/// Panics on internal policy errors (models are always supplied here).
#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
pub fn run(pipeline: &Pipeline) -> Fig08 {
    let evaluation = CampaignDriver::new()
        .executor(pipeline.executor)
        .evaluate(
            &pipeline.workloads,
            &Policy::FIG8,
            Some(&pipeline.models),
            &pipeline.scenario,
        )
        .expect("models supplied");

    let base: BTreeMap<String, f64> = evaluation
        .results_for("interactive")
        .iter()
        .map(|r| (r.workload_id.clone(), r.ppw.value()))
        .collect();
    let mut rows: Vec<Fig08Row> = pipeline
        .workloads
        .workloads()
        .iter()
        .map(|w| {
            let id = w.id();
            let mut normalized_ppw = BTreeMap::new();
            for g in GOVERNORS {
                let ppw = evaluation
                    .results_for(g)
                    .iter()
                    .find(|r| r.workload_id == id)
                    .expect("every governor ran every workload")
                    .ppw;
                normalized_ppw.insert(g.to_string(), ppw.value() / base[&id]);
            }
            let oracle = &evaluation.oracles()[&id];
            let deadline_bound = match oracle.fd {
                Some(fd) => oracle.fe < fd,
                None => true, // infeasible: maximally deadline-bound
            };
            Fig08Row {
                workload_id: id,
                normalized_ppw,
                deadline_bound,
            }
        })
        .collect();
    rows.sort_by(|a, b| a.normalized_ppw["DORA"].total_cmp(&b.normalized_ppw["DORA"]));
    Fig08 { rows, evaluation }
}

impl Fig08 {
    /// Mean DORA gain over the non-deadline-bound (`fE ≥ fD`) regime —
    /// the paper's "+24 % for workloads 20 and beyond".
    pub fn mean_gain_easy_regime(&self) -> f64 {
        let easy: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| !r.deadline_bound)
            .map(|r| r.normalized_ppw["DORA"])
            .collect();
        if easy.is_empty() {
            0.0
        } else {
            easy.iter().sum::<f64>() / easy.len() as f64 - 1.0
        }
    }

    /// How often DORA's static oracle twin matches it: fraction of
    /// deadline-bound workloads where DORA tracks `fD`'s PPW within 5 %,
    /// and of easy workloads where it tracks `fE` within 5 %.
    pub fn regime_tracking(&self) -> (f64, f64) {
        let close = |r: &Fig08Row, twin: &str| {
            (r.normalized_ppw["DORA"] - r.normalized_ppw[twin]).abs()
                / r.normalized_ppw[twin].max(1e-9)
                < 0.05
        };
        let bound: Vec<&Fig08Row> = self.rows.iter().filter(|r| r.deadline_bound).collect();
        let easy: Vec<&Fig08Row> = self.rows.iter().filter(|r| !r.deadline_bound).collect();
        let frac = |rows: &[&Fig08Row], twin: &str| {
            if rows.is_empty() {
                1.0
            } else {
                rows.iter().filter(|r| close(r, twin)).count() as f64 / rows.len() as f64
            }
        };
        (frac(&bound, "fD"), frac(&easy, "fE"))
    }

    /// The measured oracle frequencies for a workload.
    pub fn oracle_frequencies(&self, workload_id: &str) -> Option<(Option<Frequency>, Frequency)> {
        self.evaluation
            .oracles()
            .get(workload_id)
            .map(|o| (o.fd, o.fe))
    }

    /// Renders the sorted per-workload table.
    pub fn render(&self) -> String {
        let mut header: Vec<String> = vec!["#".into(), "Workload".into(), "regime".into()];
        header.extend(GOVERNORS.iter().map(|g| (*g).to_string()));
        let mut t = Table::new(header);
        for (i, r) in self.rows.iter().enumerate() {
            let mut cells = vec![
                (i + 1).to_string(),
                r.workload_id.clone(),
                if r.deadline_bound { "fE<fD" } else { "fE>=fD" }.to_string(),
            ];
            cells.extend(GOVERNORS.iter().map(|g| fmt_f(r.normalized_ppw[*g], 3)));
            t.row(cells);
        }
        let (track_fd, track_fe) = self.regime_tracking();
        format!(
            "Fig. 8: per-workload PPW normalized to interactive, sorted by DORA\n{}\
             easy-regime (fE>=fD) mean DORA gain: {}\n\
             DORA tracks fD on {}% of deadline-bound workloads, fE on {}% of easy ones\n",
            t.render(),
            fmt_f(self.mean_gain_easy_regime() * 100.0, 1) + "%",
            fmt_f(track_fd * 100.0, 0),
            fmt_f(track_fe * 100.0, 0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Scale;

    #[test]
    #[ignore = "54 workloads x (7 governors + 14-point oracle sweep); exercised by the fig08 binary"]
    fn reproduces_fig8_shape() {
        let pipeline = Pipeline::build(Scale::Full, 42);
        let fig = run(&pipeline);
        assert_eq!(fig.rows.len(), 54);
        // Rows are sorted by DORA gain.
        for pair in fig.rows.windows(2) {
            assert!(pair[0].normalized_ppw["DORA"] <= pair[1].normalized_ppw["DORA"]);
        }
        // Both regimes are populated (the paper splits at workload ~19).
        let bound = fig.rows.iter().filter(|r| r.deadline_bound).count();
        assert!((8..=46).contains(&bound), "deadline-bound count {bound}");
        // In the easy regime DORA's gain is substantial.
        assert!(
            fig.mean_gain_easy_regime() > 0.10,
            "easy-regime gain {:.3}",
            fig.mean_gain_easy_regime()
        );
        // DORA hugs its per-regime twin for most workloads.
        let (track_fd, track_fe) = fig.regime_tracking();
        assert!(track_fe > 0.5, "fE tracking {track_fe:.2}");
        assert!(track_fd > 0.3, "fD tracking {track_fd:.2}");
    }
}
