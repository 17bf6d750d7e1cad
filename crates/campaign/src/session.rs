//! Browsing sessions: many page loads back to back.
//!
//! The paper evaluates single page loads; real browsing is a *session* —
//! load, read, load the next page — and battery life is the session-level
//! integral the paper's PPW metric stands in for. This module runs a page
//! sequence with think time between loads (browser cores idle while the
//! user reads, the co-runner keeps going), under any governor, and reports
//! session energy, per-load QoS, and a battery-life estimate.
//!
//! Governors are notified of each page change through
//! [`Governor::page_changed`], which lets DORA retarget its complexity
//! inputs exactly as the paper's implementation reads the page features
//! "before a page is rendered".

use crate::runner::{GovernedLoop, BROWSER_AUX_CORE, BROWSER_MAIN_CORE, CORUN_CORE};
use dora_browser::catalog::CatalogPage;
use dora_browser::engine::RenderEngine;
use dora_coworkloads::Kernel;
use dora_governors::Governor;
use dora_sim_core::units::{Celsius, Joules, Seconds, WattHours, Watts};
use dora_sim_core::SimDuration;
use dora_soc::board::{Board, BoardConfig};

/// Configuration of one browsing session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Seed for workload jitter.
    pub seed: u64,
    /// Platform configuration.
    pub board: BoardConfig,
    /// Per-load QoS deadline.
    pub deadline: Seconds,
    /// Idle "reading" time between loads.
    pub think_time: SimDuration,
    /// Abort a single load after this long.
    pub per_load_timeout: SimDuration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            seed: 42,
            board: dora_soc::SocProfile::msm8974().board_config(),
            deadline: Seconds::new(3.0),
            think_time: SimDuration::from_secs(8),
            per_load_timeout: SimDuration::from_secs(60),
        }
    }
}

/// One page load's outcome within a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionLoad {
    /// Page name.
    pub page: String,
    /// Load time.
    pub load_time: Seconds,
    /// Whether the per-load deadline was met.
    pub met_deadline: bool,
}

/// The whole session's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Governor name.
    pub governor: String,
    /// Total session wall time (loads + think time).
    pub duration: Seconds,
    /// Total device energy.
    pub energy: Joules,
    /// Per-load outcomes in sequence order.
    pub loads: Vec<SessionLoad>,
    /// DVFS switches across the session.
    pub switches: u64,
    /// Peak die temperature.
    pub peak_temp: Celsius,
}

impl SessionResult {
    /// Mean device power over the session.
    pub fn mean_power(&self) -> Watts {
        if self.duration > Seconds::ZERO {
            self.energy / self.duration
        } else {
            Watts::ZERO
        }
    }

    /// Fraction of loads that met the deadline.
    pub fn met_fraction(&self) -> f64 {
        if self.loads.is_empty() {
            return 0.0;
        }
        self.loads.iter().filter(|l| l.met_deadline).count() as f64 / self.loads.len() as f64
    }

    /// Hours of this usage pattern a `battery` pack sustains; zero for a
    /// degenerate (zero-power, zero-duration) session.
    pub fn battery_hours(&self, battery: WattHours) -> f64 {
        battery.hours_at(self.mean_power())
    }
}

/// Runs a browsing session: `pages` in order, with think time between.
///
/// # Panics
///
/// Panics if `pages` is empty or the governor returns a frequency outside
/// the board's DVFS table.
#[expect(
    clippy::expect_used,
    reason = "fresh-board invariants: documented panic"
)]
pub fn run_session(
    pages: &[&CatalogPage],
    kernel: Option<&Kernel>,
    governor: &mut dyn Governor,
    config: &SessionConfig,
) -> SessionResult {
    assert!(!pages.is_empty(), "a session needs at least one page");
    let mut board = Board::new(config.board.clone(), config.seed);
    if let Some(kernel) = kernel {
        board
            .assign(CORUN_CORE, Box::new(kernel.spawn(config.seed)))
            .expect("fresh board");
    }
    let engine = RenderEngine::default();
    let session_start = board.time();
    // One loop for the whole session: the decision cadence and counter
    // snapshot run on across load and think phases.
    let mut governed = GovernedLoop::new(&board, governor);
    let mut loads = Vec::with_capacity(pages.len());

    for (index, page) in pages.iter().enumerate() {
        governor.page_changed(&page.features);
        let job = engine.spawn(page, config.seed ^ (index as u64).wrapping_mul(0x9E37));
        board
            .assign(BROWSER_MAIN_CORE, Box::new(job.main))
            .expect("main core idle between loads");
        board
            .assign(BROWSER_AUX_CORE, Box::new(job.aux))
            .expect("aux core idle between loads");
        let t0 = board.time();
        governed.run_until(&mut board, governor, t0 + config.per_load_timeout, |b| {
            b.task_finished(BROWSER_MAIN_CORE)
        });
        let load_time = Seconds::new(
            board
                .finish_time(BROWSER_MAIN_CORE)
                .map_or(config.per_load_timeout.as_secs_f64(), |t| {
                    t.duration_since(t0).as_secs_f64()
                }),
        );
        loads.push(SessionLoad {
            page: page.name.to_string(),
            load_time,
            met_deadline: load_time <= config.deadline,
        });
        board.clear_core(BROWSER_MAIN_CORE).expect("core id valid");
        board.clear_core(BROWSER_AUX_CORE).expect("core id valid");

        // Think time: the user reads; browser cores idle.
        let think_until = board.time() + config.think_time;
        governed.run_until(&mut board, governor, think_until, |_| false);
    }

    SessionResult {
        governor: governor.name().to_string(),
        duration: Seconds::new(board.time().duration_since(session_start).as_secs_f64()),
        energy: board.energy(),
        loads,
        switches: board.switch_count(),
        peak_temp: board.peak_temperature(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dora_browser::Catalog;
    use dora_governors::{InteractiveGovernor, PerformanceGovernor};
    use dora_soc::DvfsTable;

    fn pages<'a>(catalog: &'a Catalog, names: &[&str]) -> Vec<&'a CatalogPage> {
        names
            .iter()
            .map(|n| catalog.page(n).expect("page in catalog"))
            .collect()
    }

    fn quick() -> SessionConfig {
        SessionConfig {
            think_time: SimDuration::from_secs(3),
            ..SessionConfig::default()
        }
    }

    #[test]
    fn session_loads_every_page_in_order() {
        let catalog = Catalog::alexa18();
        let ps = pages(&catalog, &["Amazon", "Reddit", "MSN"]);
        let mut g = PerformanceGovernor::new(DvfsTable::default());
        let r = run_session(&ps, None, &mut g, &quick());
        assert_eq!(r.loads.len(), 3);
        assert_eq!(r.loads[0].page, "Amazon");
        assert_eq!(r.loads[2].page, "MSN");
        assert!(r.loads.iter().all(|l| l.met_deadline), "{:#?}", r.loads);
        // Session time = loads + think periods.
        let load_total: Seconds = r.loads.iter().map(|l| l.load_time).sum();
        assert!(r.duration > load_total + Seconds::new(8.9), "{r:?}");
        assert!((r.met_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn think_time_saves_energy_under_utilization_governors() {
        // interactive idles down between loads; performance never does.
        let catalog = Catalog::alexa18();
        let ps = pages(&catalog, &["Amazon", "Reddit"]);
        let mut perf = PerformanceGovernor::new(DvfsTable::default());
        let high = run_session(&ps, None, &mut perf, &quick());
        let mut inter = InteractiveGovernor::new(DvfsTable::default());
        let low = run_session(&ps, None, &mut inter, &quick());
        assert!(
            low.energy < high.energy * 0.95,
            "interactive {} vs performance {}",
            low.energy,
            high.energy
        );
    }

    #[test]
    fn battery_estimate_is_sane() {
        let catalog = Catalog::alexa18();
        let ps = pages(&catalog, &["Amazon"]);
        let mut g = InteractiveGovernor::new(DvfsTable::default());
        let r = run_session(&ps, None, &mut g, &quick());
        // Nexus 5 battery ~8.8 Wh; browsing should sustain 2-6 hours.
        let hours = r.battery_hours(WattHours::new(8.8));
        assert!((1.0..8.0).contains(&hours), "battery estimate {hours}h");
    }

    #[test]
    fn corunner_runs_through_the_whole_session() {
        let catalog = Catalog::alexa18();
        let ps = pages(&catalog, &["Amazon", "Reddit"]);
        let kernel = Kernel::by_name("backprop").expect("in suite");
        let mut g = PerformanceGovernor::new(DvfsTable::default());
        let with = run_session(&ps, Some(&kernel), &mut g, &quick());
        let mut g = PerformanceGovernor::new(DvfsTable::default());
        let without = run_session(&ps, None, &mut g, &quick());
        assert!(with.energy > without.energy);
        assert!(with.loads[0].load_time > without.loads[0].load_time);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn empty_session_rejected() {
        let mut g = PerformanceGovernor::new(DvfsTable::default());
        let _ = run_session(&[], None, &mut g, &quick());
    }
}
