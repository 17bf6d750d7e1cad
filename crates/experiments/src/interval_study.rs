//! Section IV-C — the decision-interval study.
//!
//! "For DORA's decision making granularity, we evaluate three decision
//! intervals of 50ms, 100ms, and 250ms. We observe that while 250ms is
//! too slow to capture web page phases, 50ms and 100ms decision intervals
//! perform similarly. Therefore, we choose the less intrusive 100ms
//! decision interval for DORA."
//!
//! This module reruns that sweep: DORA at each cadence over a
//! representative workload slice, reporting mean PPW (normalized to
//! `interactive`), deadline behaviour and switch counts.

use crate::pipeline::Pipeline;
use crate::report::{fmt_f, fmt_gain, Table};
use dora::{DoraConfig, DoraGovernor};
use dora_browser::engine::RenderEngine;
use dora_campaign::runner::{
    run_scenario, GovernedLoop, BROWSER_AUX_CORE, BROWSER_MAIN_CORE, CORUN_CORE,
};
use dora_campaign::workload::WorkloadSet;
use dora_coworkloads::Kernel;
use dora_governors::InteractiveGovernor;
use dora_sim_core::SimDuration;
use dora_soc::board::Board;

/// One cadence's aggregate outcome.
#[derive(Debug, Clone)]
pub struct IntervalRow {
    /// The decision interval.
    pub interval: SimDuration,
    /// Mean PPW normalized to `interactive` over the slice.
    pub mean_nppw: f64,
    /// Fraction of workloads meeting the 3 s deadline.
    pub met_fraction: f64,
    /// Mean DVFS switches per load.
    pub mean_switches: f64,
    /// Mean load time, seconds.
    pub mean_load_s: f64,
}

/// The study dataset.
#[derive(Debug, Clone)]
pub struct IntervalStudy {
    /// One row per cadence (50, 100, 250 ms).
    pub rows: Vec<IntervalRow>,
    /// Number of workloads in the evaluation slice.
    pub workloads: usize,
}

/// The pages of the evaluation slice: a complexity spread, both splits.
const SLICE_PAGES: [&str; 4] = ["Amazon", "Reddit", "ESPN", "IMDB"];

/// Runs the study.
pub fn run(pipeline: &Pipeline) -> IntervalStudy {
    let all = WorkloadSet::paper54();
    let slice: Vec<_> = all
        .workloads()
        .iter()
        .filter(|w| SLICE_PAGES.contains(&w.page.name))
        .cloned()
        .collect();
    let config = &pipeline.scenario;

    // Baseline per workload.
    let baseline: Vec<f64> = slice
        .iter()
        .map(|w| {
            let mut g = InteractiveGovernor::new(config.board.dvfs.clone());
            run_scenario(w, &mut g, config).ppw.value()
        })
        .collect();

    let rows = [50u64, 100, 250]
        .iter()
        .map(|&ms| {
            let interval = SimDuration::from_millis(ms);
            let mut ratios = Vec::new();
            let mut met = 0usize;
            let mut switches = 0u64;
            let mut load_total = 0.0;
            for (w, &base) in slice.iter().zip(&baseline) {
                let mut governor = DoraGovernor::new(
                    pipeline.models.clone(),
                    w.page.features,
                    DoraConfig {
                        decision_interval: interval,
                        ..DoraConfig::default()
                    },
                );
                let r = run_scenario(w, &mut governor, config);
                ratios.push(r.ppw.value() / base);
                met += usize::from(r.met_deadline);
                switches += r.switches;
                load_total += r.load_time.value();
            }
            IntervalRow {
                interval,
                mean_nppw: ratios.iter().sum::<f64>() / ratios.len() as f64,
                met_fraction: met as f64 / slice.len() as f64,
                mean_switches: switches as f64 / slice.len() as f64,
                mean_load_s: load_total / slice.len() as f64,
            }
        })
        .collect();
    IntervalStudy {
        rows,
        workloads: slice.len(),
    }
}

/// One cadence's outcome under *dynamic* interference: the co-runner
/// switches from a low- to a high-intensity kernel mid-load, so a slower
/// decision cadence reacts later to the MPKI jump (Section V-D's
/// "adaptive nature of DORA").
#[derive(Debug, Clone)]
pub struct AdaptationRow {
    /// The decision interval.
    pub interval: SimDuration,
    /// Load time of the page across the interference step, seconds.
    pub load_time_s: f64,
    /// DVFS switches during the load.
    pub switches: u64,
    /// Mean frequency over the load, GHz.
    pub mean_freq_ghz: f64,
}

/// Runs the dynamic-interference probe: MSN loading while the co-runner
/// steps from `kmeans` (low) to `backprop` (high) 0.6 s into the load,
/// under a 2.5 s deadline that the post-step conditions make tight.
#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
pub fn run_adaptation(pipeline: &Pipeline) -> Vec<AdaptationRow> {
    let catalog = dora_browser::Catalog::alexa18();
    let page = catalog.page("MSN").expect("MSN in catalog");
    let [low, _, high] = Kernel::representatives();
    let config = &pipeline.scenario;
    let step_at = SimDuration::from_millis(600);

    [50u64, 100, 250]
        .iter()
        .map(|&ms| {
            let interval = SimDuration::from_millis(ms);
            let mut governor = DoraGovernor::new(
                pipeline.models.clone(),
                page.features,
                DoraConfig {
                    qos_target: dora::units::Seconds::new(2.5),
                    decision_interval: interval,
                    ..DoraConfig::default()
                },
            );
            let mut board = Board::new(config.board.clone(), config.seed);
            board
                .assign(CORUN_CORE, Box::new(low.spawn(config.seed)))
                .expect("fresh board");
            // Thermal warm-up with the co-runner alone, ungoverned.
            let job = RenderEngine::default().spawn(page, config.seed);
            board.step(config.warmup);
            board
                .assign(BROWSER_MAIN_CORE, Box::new(job.main))
                .expect("main core free");
            board
                .assign(BROWSER_AUX_CORE, Box::new(job.aux))
                .expect("aux core free");

            let t0 = board.time();
            let switches0 = board.switch_count();
            let mut governed = GovernedLoop::new(&board, &governor);
            let mut swapped = false;
            while !board.task_finished(BROWSER_MAIN_CORE)
                && board.time().duration_since(t0) < SimDuration::from_secs(30)
            {
                if !swapped && board.time().duration_since(t0) >= step_at {
                    board.clear_core(CORUN_CORE).expect("corun core exists");
                    board
                        .assign(CORUN_CORE, Box::new(high.spawn(config.seed)))
                        .expect("corun core cleared");
                    swapped = true;
                }
                governed.step(&mut board, &mut governor);
            }
            let load_time_s = board
                .finish_time(BROWSER_MAIN_CORE)
                .map_or(30.0, |t| t.duration_since(t0).as_secs_f64());
            AdaptationRow {
                interval,
                load_time_s,
                switches: board.switch_count() - switches0,
                mean_freq_ghz: governed
                    .mean_frequency_ghz()
                    .unwrap_or_else(|| board.frequency().as_ghz()),
            }
        })
        .collect()
}

impl IntervalStudy {
    /// Renders the study table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Interval".into(),
            "PPW vs interactive".into(),
            "met 3s (%)".into(),
            "mean load (s)".into(),
            "switches/load".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.interval.to_string(),
                fmt_gain(r.mean_nppw),
                fmt_f(r.met_fraction * 100.0, 1),
                fmt_f(r.mean_load_s, 2),
                fmt_f(r.mean_switches, 1),
            ]);
        }
        format!(
            "Section IV-C: decision-interval study ({} workloads)\n{}\
             expectation: 50ms ~ 100ms, 250ms lags (too slow for page phases)\n",
            self.workloads,
            t.render()
        )
    }

    /// Renders the dynamic-interference probe rows.
    pub fn render_adaptation(rows: &[AdaptationRow]) -> String {
        let mut t = Table::new(vec![
            "Interval".into(),
            "load (s)".into(),
            "switches".into(),
            "mean f (GHz)".into(),
        ]);
        for r in rows {
            t.row(vec![
                r.interval.to_string(),
                fmt_f(r.load_time_s, 3),
                r.switches.to_string(),
                fmt_f(r.mean_freq_ghz, 2),
            ]);
        }
        format!(
            "Section V-D probe: co-runner steps low->high 0.6s into the load\n{}",
            t.render()
        )
    }

    /// The paper's conclusion as a predicate: 100 ms within a small margin
    /// of 50 ms, and at least as good as 250 ms.
    #[expect(
        clippy::expect_used,
        reason = "result rows come from the fixed sweep grid of `run`"
    )]
    pub fn hundred_ms_is_the_sweet_spot(&self) -> bool {
        let at = |ms: u64| {
            self.rows
                .iter()
                .find(|r| r.interval == SimDuration::from_millis(ms))
                .expect("all three cadences present")
        };
        let fast = at(50);
        let medium = at(100);
        let slow = at(250);
        medium.mean_nppw > fast.mean_nppw - 0.03 && medium.mean_nppw >= slow.mean_nppw - 0.01
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Scale;

    #[test]
    #[ignore = "needs the trained pipeline; exercised by the interval_study binary"]
    fn hundred_ms_holds_up() {
        let pipeline = Pipeline::build(Scale::Full, 42);
        let study = run(&pipeline);
        assert_eq!(study.rows.len(), 3);
        assert!(study.hundred_ms_is_the_sweet_spot(), "{:#?}", study.rows);
        // All cadences stay deadline-correct on this (feasible) slice.
        for r in &study.rows {
            assert!(r.met_fraction > 0.6, "{r:?}");
        }
        // Under dynamic interference the slow cadence reacts late and the
        // load stretches (the paper's "250ms is too slow" observation).
        let adaptation = run_adaptation(&pipeline);
        assert_eq!(adaptation.len(), 3);
        let fast = adaptation[0].load_time_s;
        let slow = adaptation[2].load_time_s;
        assert!(
            slow > fast + 0.05,
            "250ms should lag 50ms: {fast:.3}s vs {slow:.3}s"
        );
        // 100ms performs like 50ms (the paper's pick).
        assert!(
            (adaptation[1].load_time_s - fast).abs() < 0.15,
            "{adaptation:#?}"
        );
    }
}
