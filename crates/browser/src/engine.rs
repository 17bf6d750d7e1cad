//! The rendering-engine workload model.
//!
//! Section II-A abstracts a browser into networking and rendering, and the
//! paper studies rendering only (pages are served from memory). The
//! rendering engine parses HTML into a DOM tree, attaches CSS to form the
//! render tree, then performs layout and paint. This module compiles a
//! [`PageFeatures`] vector into that pipeline as a
//! [`PhasedTask`]: six stages whose instruction budgets are affine in the
//! features and whose cache behaviour tracks what each stage touches.
//!
//! Firefox in the paper runs on **two** cores (Section IV-B); a spawn
//! therefore yields a [`BrowserJob`] with a `main` task (the critical path
//! whose completion defines load time) and an `aux` task (image decoding /
//! compositor helper) for the second core.

use crate::page::PageFeatures;
use dora_sim_core::Rng;
use dora_soc::task::{PhaseProfile, PhasedTask};

/// Tunable coefficients of the engine model.
///
/// Instruction budgets: `I = base + Σ coefficient·feature`. The defaults
/// are calibrated so the Table III catalog reproduces the paper's
/// alone-load-time classes on the Nexus 5 board model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineParams {
    /// Fixed per-load instruction overhead (browser chrome, GC, IPC).
    pub base_instructions: f64,
    /// Instructions per DOM node (X1).
    pub instr_per_node: f64,
    /// Instructions per `class` attribute (X2) — style matching.
    pub instr_per_class: f64,
    /// Instructions per `href` attribute (X3) — URL resolution.
    pub instr_per_href: f64,
    /// Instructions per `<a>` tag (X4) — link boxes and hit regions.
    pub instr_per_a: f64,
    /// Instructions per `<div>` tag (X5) — block layout.
    pub instr_per_div: f64,
    /// Aux-task work as a fraction of the main task's.
    pub aux_fraction: f64,
    /// Lognormal sigma of per-stage run-to-run jitter.
    pub jitter_sigma: f64,
    /// Working-set bytes contributed per DOM node.
    pub ws_per_node: f64,
    /// Working-set bytes contributed per `class` attribute.
    pub ws_per_class: f64,
    /// Base working set (code, heap, textures).
    pub ws_base: f64,
}

impl Default for EngineParams {
    fn default() -> Self {
        EngineParams {
            base_instructions: 2.0e8,
            instr_per_node: 3.6e5,
            instr_per_class: 2.25e5,
            instr_per_href: 3.0e4,
            instr_per_a: 4.0e4,
            instr_per_div: 3.15e5,
            aux_fraction: 0.45,
            jitter_sigma: 0.03,
            ws_per_node: 350.0,
            ws_per_class: 120.0,
            ws_base: 600.0 * 1024.0,
        }
    }
}

impl EngineParams {
    /// Validates that every coefficient is finite and non-negative, the
    /// jitter is small, and the aux fraction is in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let nonneg = [
            ("base_instructions", self.base_instructions),
            ("instr_per_node", self.instr_per_node),
            ("instr_per_class", self.instr_per_class),
            ("instr_per_href", self.instr_per_href),
            ("instr_per_a", self.instr_per_a),
            ("instr_per_div", self.instr_per_div),
            ("ws_per_node", self.ws_per_node),
            ("ws_per_class", self.ws_per_class),
            ("ws_base", self.ws_base),
        ];
        for (name, v) in nonneg {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be non-negative, got {v}"));
            }
        }
        if self.base_instructions <= 0.0 {
            return Err("base_instructions must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.aux_fraction) {
            return Err(format!("aux_fraction {} outside [0,1]", self.aux_fraction));
        }
        if !(0.0..=0.5).contains(&self.jitter_sigma) {
            return Err(format!(
                "jitter_sigma {} outside [0,0.5]",
                self.jitter_sigma
            ));
        }
        Ok(())
    }
}

/// One rendering pipeline stage's shape: its share of the instruction
/// budget and its microarchitectural character.
#[derive(Debug, Clone, Copy)]
struct Stage {
    name: &'static str,
    /// Fraction of the total instruction budget.
    share: f64,
    base_cpi: f64,
    l2_apki: f64,
    reuse_fraction: f64,
    /// Multiplier on the page working set for this stage.
    ws_scale: f64,
}

/// The six-stage pipeline: parse → DOM build → style → layout → paint →
/// script. Shares sum to 1.
///
/// paper: Section II-A — Chromium's rendering pipeline under Telemetry
/// page loads; per-stage shares/CPI/MPKI are modeling choices calibrated
/// so the 14-point frequency sweeps reproduce the Fig. 2 load-time and
/// energy curves.
const STAGES: [Stage; 6] = [
    Stage {
        name: "parse",
        share: 0.15,
        base_cpi: 1.1,
        l2_apki: 6.0,
        reuse_fraction: 0.80,
        ws_scale: 0.30,
    },
    Stage {
        name: "dom",
        share: 0.10,
        base_cpi: 1.2,
        l2_apki: 10.0,
        reuse_fraction: 0.85,
        ws_scale: 0.60,
    },
    Stage {
        name: "style",
        share: 0.25,
        base_cpi: 1.3,
        l2_apki: 14.0,
        reuse_fraction: 0.85,
        ws_scale: 0.90,
    },
    Stage {
        name: "layout",
        share: 0.25,
        base_cpi: 1.4,
        l2_apki: 18.0,
        reuse_fraction: 0.80,
        ws_scale: 1.00,
    },
    Stage {
        name: "paint",
        share: 0.15,
        base_cpi: 1.0,
        l2_apki: 24.0,
        reuse_fraction: 0.55,
        ws_scale: 1.00,
    },
    Stage {
        name: "script",
        share: 0.10,
        base_cpi: 1.6,
        l2_apki: 10.0,
        reuse_fraction: 0.90,
        ws_scale: 0.50,
    },
];

/// A spawned browser load: the critical-path task and its helper.
#[derive(Debug)]
pub struct BrowserJob {
    /// The rendering critical path; its completion is the page load time.
    pub main: PhasedTask,
    /// Second-core helper (decode/compositing). Contributes cache and
    /// memory pressure and power but does not gate completion.
    pub aux: PhasedTask,
}

/// The rendering-engine model.
///
/// # Example
///
/// ```
/// use dora_browser::engine::RenderEngine;
/// use dora_browser::PageFeatures;
///
/// let engine = RenderEngine::default();
/// let page = PageFeatures::new(2000, 1200, 500, 550, 600)?;
/// let job = engine.spawn_features(&page, 7);
/// // Same seed, same work; different seed, jittered work.
/// let again = engine.spawn_features(&page, 7);
/// assert_eq!(job.main.total_instructions(), again.main.total_instructions());
/// # Ok::<(), dora_browser::page::InvalidPageError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RenderEngine {
    params: EngineParams,
}

impl RenderEngine {
    /// Creates an engine after validating the parameters.
    ///
    /// # Errors
    ///
    /// Returns the validation failure for out-of-domain parameters.
    pub fn new(params: EngineParams) -> Result<Self, String> {
        params.validate()?;
        Ok(RenderEngine { params })
    }

    /// The configured coefficients.
    pub fn params(&self) -> &EngineParams {
        &self.params
    }

    /// The deterministic (pre-jitter) total instruction budget for a page.
    pub fn total_instructions(&self, page: &PageFeatures) -> f64 {
        let p = &self.params;
        let [n, c, h, a, d] = page.as_vector();
        p.base_instructions
            + p.instr_per_node * n
            + p.instr_per_class * c
            + p.instr_per_href * h
            + p.instr_per_a * a
            + p.instr_per_div * d
    }

    /// The page's cache working set in bytes.
    pub fn working_set_bytes(&self, page: &PageFeatures) -> f64 {
        let p = &self.params;
        p.ws_base
            + p.ws_per_node * page.dom_nodes() as f64
            + p.ws_per_class * page.class_attrs() as f64
    }

    /// Spawns the two-core browser job for a catalog page, applying the
    /// page's memory weight.
    pub fn spawn(&self, page: &crate::catalog::CatalogPage, seed: u64) -> BrowserJob {
        self.spawn_weighted(&page.features, page.memory_weight, seed)
    }

    /// Spawns the two-core browser job for a bare feature vector at the
    /// nominal memory weight. `seed` pins the run-to-run jitter: the same
    /// seed reproduces the exact same load.
    pub fn spawn_features(&self, page: &PageFeatures, seed: u64) -> BrowserJob {
        self.spawn_weighted(page, 1.0, seed)
    }

    /// Spawns with an explicit memory weight: the page's L2 traffic and
    /// working set scale by `memory_weight` (see
    /// [`crate::catalog::CatalogPage::memory_weight`]).
    ///
    /// # Panics
    ///
    /// Panics if `memory_weight` is outside `[0.25, 2.5]`.
    pub fn spawn_weighted(&self, page: &PageFeatures, memory_weight: f64, seed: u64) -> BrowserJob {
        assert!(
            (0.25..=2.5).contains(&memory_weight),
            "implausible memory weight {memory_weight}"
        );
        let mut rng = Rng::seed_from_u64(seed);
        let total = self.total_instructions(page);
        let ws = self.working_set_bytes(page) * memory_weight;
        let phases: Vec<(f64, PhaseProfile)> = STAGES
            .iter()
            .map(|s| {
                let budget = (total * s.share * rng.jitter(self.params.jitter_sigma)).max(1.0);
                let profile = PhaseProfile {
                    base_cpi: s.base_cpi,
                    l2_apki: s.l2_apki * memory_weight,
                    working_set_bytes: ws * s.ws_scale,
                    reuse_fraction: s.reuse_fraction,
                    duty_cycle: 1.0,
                };
                (budget, profile)
            })
            .collect();
        let main = PhasedTask::new("browser-main", phases);

        let aux_budget =
            (total * self.params.aux_fraction * rng.jitter(self.params.jitter_sigma)).max(1.0);
        let aux_profile = PhaseProfile {
            base_cpi: 1.1,
            l2_apki: 16.0,
            working_set_bytes: 1.0 * 1024.0 * 1024.0,
            reuse_fraction: 0.60,
            duty_cycle: 0.90,
        };
        let aux = PhasedTask::new("browser-aux", vec![(aux_budget, aux_profile)]);
        BrowserJob { main, aux }
    }

    /// The stage names in pipeline order (for reports).
    pub fn stage_names() -> [&'static str; 6] {
        [
            STAGES[0].name,
            STAGES[1].name,
            STAGES[2].name,
            STAGES[3].name,
            STAGES[4].name,
            STAGES[5].name,
        ]
    }
}

impl Default for RenderEngine {
    #[expect(
        clippy::expect_used,
        reason = "EngineParams::default is validated by test"
    )]
    fn default() -> Self {
        RenderEngine::new(EngineParams::default()).expect("defaults are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    #[test]
    fn stage_shares_sum_to_one() {
        let total: f64 = STAGES.iter().map(|s| s.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn instruction_budget_is_affine_in_features() {
        let engine = RenderEngine::default();
        let a = PageFeatures::new(1000, 600, 200, 220, 280).expect("valid");
        let b = PageFeatures::new(2000, 1200, 400, 440, 560).expect("valid");
        let base = engine.params().base_instructions;
        let ia = engine.total_instructions(&a);
        let ib = engine.total_instructions(&b);
        // Doubling every feature doubles the feature-dependent part.
        assert!(((ib - base) / (ia - base) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn spawn_is_deterministic_per_seed_and_jitters_across_seeds() {
        let engine = RenderEngine::default();
        let page = Catalog::alexa18();
        let reddit = page.page("Reddit").expect("present");
        let j1 = engine.spawn(reddit, 5);
        let j2 = engine.spawn(reddit, 5);
        assert_eq!(j1.main.total_instructions(), j2.main.total_instructions());
        let j3 = engine.spawn(reddit, 6);
        assert_ne!(j1.main.total_instructions(), j3.main.total_instructions());
        // Jitter is small: within ~20%.
        let ratio = j1.main.total_instructions() / j3.main.total_instructions();
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn complex_pages_cost_more() {
        let engine = RenderEngine::default();
        let c = Catalog::alexa18();
        let amazon = engine.spawn(c.page("Amazon").expect("present"), 1);
        let aliexpress = engine.spawn(c.page("Aliexpress").expect("present"), 1);
        assert!(aliexpress.main.total_instructions() > 2.0 * amazon.main.total_instructions());
    }

    #[test]
    fn aux_task_is_a_fraction_of_main() {
        let engine = RenderEngine::default();
        let c = Catalog::alexa18();
        let job = engine.spawn(c.page("MSN").expect("present"), 9);
        let frac = job.aux.total_instructions() / job.main.total_instructions();
        assert!((0.3..0.6).contains(&frac), "aux fraction {frac}");
    }

    #[test]
    fn working_set_scales_with_page() {
        let engine = RenderEngine::default();
        let small = PageFeatures::new(800, 500, 100, 120, 200).expect("valid");
        let large = PageFeatures::new(6000, 4000, 1500, 1700, 1900).expect("valid");
        assert!(engine.working_set_bytes(&large) > 2.0 * engine.working_set_bytes(&small));
        // Big pages overflow the 2 MB L2 — that's the interference surface.
        assert!(engine.working_set_bytes(&large) > 2.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn invalid_params_rejected() {
        let bad = EngineParams {
            aux_fraction: 1.5,
            ..EngineParams::default()
        };
        assert!(RenderEngine::new(bad).is_err());
        let bad = EngineParams {
            instr_per_node: f64::NAN,
            ..EngineParams::default()
        };
        assert!(RenderEngine::new(bad).is_err());
    }

    #[test]
    fn stage_names_exported() {
        assert_eq!(
            RenderEngine::stage_names(),
            ["parse", "dom", "style", "layout", "paint", "script"]
        );
    }
}
