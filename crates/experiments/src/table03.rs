//! Table III — web page and co-run application classification.
//!
//! The paper classifies pages by alone-load-time (< 2 s vs > 2 s at the
//! top frequency) and kernels by solo L2 MPKI (< 1 / 1–7 / > 7). Both
//! classifications are *measured* here, and the module reports whether
//! each measurement lands in its published class.

use crate::report::{fmt_f, Table};
use dora_browser::catalog::{Catalog, PageClass};
use dora_campaign::runner::{run_page, ScenarioConfig};
use dora_coworkloads::{Intensity, Kernel};
use dora_governors::PinnedGovernor;
use dora_sim_core::SimDuration;
use dora_soc::board::Board;

/// One measured page row.
#[derive(Debug, Clone)]
pub struct PageRow {
    /// Page name.
    pub name: String,
    /// Published class.
    pub class: PageClass,
    /// Measured alone-load-time at the top frequency, seconds.
    pub alone_load_s: f64,
    /// Whether the measurement lands in the published class.
    pub consistent: bool,
}

/// One measured kernel row.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name.
    pub name: String,
    /// Published intensity class.
    pub class: Intensity,
    /// Measured solo L2 MPKI.
    pub solo_mpki: f64,
    /// Whether the measurement lands in the published class.
    pub consistent: bool,
}

/// The measured Table III.
#[derive(Debug, Clone)]
pub struct Table03 {
    /// Page classification rows.
    pub pages: Vec<PageRow>,
    /// Kernel classification rows.
    pub kernels: Vec<KernelRow>,
}

/// Measures both classifications.
#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
pub fn run(config: &ScenarioConfig) -> Table03 {
    let catalog = Catalog::alexa18();
    let fmax = config.board.dvfs.max_frequency();
    let pages = catalog
        .pages()
        .iter()
        .map(|page| {
            let mut pinned = PinnedGovernor::new("pin", fmax);
            let r = run_page(page, None, &mut pinned, config);
            let load_s = r.load_time.value();
            let consistent = match page.class {
                PageClass::Low => load_s < 2.0,
                PageClass::High => load_s > 2.0,
            };
            PageRow {
                name: page.name.to_string(),
                class: page.class,
                alone_load_s: load_s,
                consistent,
            }
        })
        .collect();

    let kernels = Kernel::all()
        .into_iter()
        .map(|kernel| {
            let mut board = Board::new(config.board.clone(), config.seed);
            board.set_frequency(fmax).expect("table frequency");
            board
                .assign(2, Box::new(kernel.spawn(config.seed)))
                .expect("fresh board");
            board.step(SimDuration::from_secs(1));
            let solo_mpki = board.counters(2).mpki().value();
            KernelRow {
                name: kernel.name().to_string(),
                class: kernel.intensity(),
                solo_mpki,
                consistent: Intensity::classify(solo_mpki) == kernel.intensity(),
            }
        })
        .collect();

    Table03 { pages, kernels }
}

impl Table03 {
    /// Whether every measurement matched its published class.
    pub fn all_consistent(&self) -> bool {
        self.pages.iter().all(|p| p.consistent) && self.kernels.iter().all(|k| k.consistent)
    }

    /// Renders both halves of the table.
    pub fn render(&self) -> String {
        let mut pages = Table::new(vec![
            "Page".into(),
            "Class".into(),
            "Alone load (s)".into(),
            "Consistent".into(),
        ]);
        for p in &self.pages {
            pages.row(vec![
                p.name.clone(),
                p.class.to_string(),
                fmt_f(p.alone_load_s, 2),
                p.consistent.to_string(),
            ]);
        }
        let mut kernels = Table::new(vec![
            "Co-run kernel".into(),
            "Class".into(),
            "Solo L2 MPKI".into(),
            "Consistent".into(),
        ]);
        for k in &self.kernels {
            kernels.row(vec![
                k.name.clone(),
                k.class.to_string(),
                fmt_f(k.solo_mpki, 2),
                k.consistent.to_string(),
            ]);
        }
        format!(
            "Table III(a): Web page classification (alone @ fmax, 2s threshold)\n{}\n\
             Table III(b): Co-run application classification (solo L2 MPKI)\n{}",
            pages.render(),
            kernels.render()
        )
    }
}

/// The default board/scenario for this table (3 s warm-up keeps it fast;
/// classification does not depend on die temperature).
pub fn default_config() -> ScenarioConfig {
    ScenarioConfig::builder()
        .warmup(SimDuration::from_secs(3))
        .board(dora_soc::SocProfile::msm8974().board_config())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_classes_match_table3() {
        let t = run(&default_config());
        assert_eq!(t.pages.len(), 18);
        assert_eq!(t.kernels.len(), 9);
        let bad: Vec<String> = t
            .pages
            .iter()
            .filter(|p| !p.consistent)
            .map(|p| format!("{} ({:.2}s)", p.name, p.alone_load_s))
            .chain(
                t.kernels
                    .iter()
                    .filter(|k| !k.consistent)
                    .map(|k| format!("{} ({:.2} MPKI)", k.name, k.solo_mpki)),
            )
            .collect();
        assert!(t.all_consistent(), "inconsistent: {bad:?}");
    }
}
