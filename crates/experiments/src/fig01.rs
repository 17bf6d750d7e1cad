//! Fig. 1 — impact of memory interference on Reddit's load time across
//! frequencies.
//!
//! The paper plots, for each of eight frequencies from 0.7 to 2.2 GHz,
//! the range of Reddit load times under co-runners of different memory
//! intensities, against 2/3/4-second deadlines. The punchline: at a fixed
//! frequency the *same page* can swing from meeting to missing a deadline
//! purely due to interference — e.g. 0.9 GHz meets 3 s only when
//! interference is low.

use crate::report::{fmt_f, Table};
use dora_browser::catalog::Catalog;
use dora_campaign::runner::{run_page, ScenarioConfig};
use dora_coworkloads::Kernel;
use dora_governors::PinnedGovernor;
use dora_soc::Frequency;

/// Load times at one frequency under the four interference conditions.
#[derive(Debug, Clone)]
pub struct Fig01Row {
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// Load time with no co-runner.
    pub alone_s: f64,
    /// Load time with the low-intensity representative (kmeans).
    pub low_s: f64,
    /// Load time with the medium-intensity representative (bfs).
    pub medium_s: f64,
    /// Load time with the high-intensity representative (backprop).
    pub high_s: f64,
}

impl Fig01Row {
    /// The smallest load time at this frequency.
    pub fn min_s(&self) -> f64 {
        self.alone_s
            .min(self.low_s)
            .min(self.medium_s)
            .min(self.high_s)
    }

    /// The largest load time at this frequency.
    pub fn max_s(&self) -> f64 {
        self.alone_s
            .max(self.low_s)
            .max(self.medium_s)
            .max(self.high_s)
    }
}

/// The Fig. 1 dataset.
#[derive(Debug, Clone)]
pub struct Fig01 {
    /// One row per paper-ladder frequency, ascending.
    pub rows: Vec<Fig01Row>,
}

/// Measures the figure.
#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
pub fn run(config: &ScenarioConfig) -> Fig01 {
    let catalog = Catalog::alexa18();
    let reddit = catalog.page("Reddit").expect("Reddit in catalog");
    let [low, medium, high] = Kernel::representatives();
    let measure = |freq: Frequency, kernel: Option<&Kernel>| -> f64 {
        let mut pinned = PinnedGovernor::new("pin", freq);
        run_page(reddit, kernel, &mut pinned, config)
            .load_time
            .value()
    };
    let rows = config
        .board
        .dvfs
        .paper_ladder()
        .into_iter()
        .map(|f| Fig01Row {
            freq_ghz: f.as_ghz(),
            alone_s: measure(f, None),
            low_s: measure(f, Some(&low)),
            medium_s: measure(f, Some(&medium)),
            high_s: measure(f, Some(&high)),
        })
        .collect();
    Fig01 { rows }
}

impl Fig01 {
    /// Renders the table with the 2/3/4 s deadline verdict columns the
    /// paper draws as horizontal lines.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Freq (GHz)".into(),
            "alone (s)".into(),
            "low (s)".into(),
            "medium (s)".into(),
            "high (s)".into(),
            "range".into(),
            "meets 3s".into(),
        ]);
        for r in &self.rows {
            let verdict = if r.max_s() <= 3.0 {
                "always"
            } else if r.min_s() <= 3.0 {
                "depends on interference"
            } else {
                "never"
            };
            t.row(vec![
                fmt_f(r.freq_ghz, 2),
                fmt_f(r.alone_s, 2),
                fmt_f(r.low_s, 2),
                fmt_f(r.medium_s, 2),
                fmt_f(r.high_s, 2),
                format!("{}-{}", fmt_f(r.min_s(), 2), fmt_f(r.max_s(), 2)),
                verdict.to_string(),
            ]);
        }
        format!(
            "Fig. 1: Reddit load time vs core frequency under memory interference\n\
             (deadlines of interest: 2s / 3s / 4s)\n{}",
            t.render()
        )
    }

    /// The frequencies where the 3 s verdict flips with interference —
    /// the paper's motivating observation.
    pub fn interference_sensitive_frequencies(&self) -> Vec<f64> {
        self.rows
            .iter()
            .filter(|r| r.min_s() <= 3.0 && r.max_s() > 3.0)
            .map(|r| r.freq_ghz)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dora_sim_core::SimDuration;

    fn quick() -> ScenarioConfig {
        ScenarioConfig::builder()
            .warmup(SimDuration::from_secs(3))
            .build()
    }

    #[test]
    fn reproduces_fig1_shape() {
        let fig = run(&quick());
        assert_eq!(fig.rows.len(), 8);
        for r in &fig.rows {
            // Interference only slows the page down.
            assert!(r.alone_s <= r.low_s + 0.02, "{r:?}");
            assert!(r.low_s <= r.medium_s + 0.05, "{r:?}");
            assert!(r.medium_s <= r.high_s + 0.10, "{r:?}");
        }
        // Load time falls as frequency rises (alone series).
        for pair in fig.rows.windows(2) {
            assert!(pair[0].alone_s > pair[1].alone_s);
        }
        // The paper's punchline: some frequency's 3s verdict depends on
        // the co-runner.
        assert!(
            !fig.interference_sensitive_frequencies().is_empty(),
            "no frequency shows the deadline flip: {:#?}",
            fig.rows
        );
        // At the top frequency Reddit always meets 3 s; at the bottom it
        // misses under heavy interference (Fig. 1's ~4-5.5s band).
        let top = fig.rows.last().expect("eight rows");
        assert!(top.max_s() < 3.0, "top row {top:?}");
        let bottom = &fig.rows[0];
        assert!(bottom.high_s > 3.0, "bottom row {bottom:?}");
    }
}
