//! Ablations of this reproduction's own design choices.
//!
//! DESIGN.md makes four load-bearing decisions beyond what the paper
//! spells out; each is ablated here against the same training campaign
//! and evaluation slice so their contribution is measurable rather than
//! asserted:
//!
//! 1. **Piecewise-per-bus-tier fits** (Section III-A's "piece-wise
//!    models") vs a single global surface.
//! 2. **Period encoding** of X7/X8 for the load-time surface vs the
//!    natural frequency encoding.
//! 3. **QoS safety margin** (3 %) vs none.
//! 4. **Switch hysteresis** (3 % PPW margin) vs switching on every
//!    argmax move.

use crate::pipeline::Pipeline;
use crate::report::{fmt_f, Table};
use dora::trainer::{evaluate_models, train, TrainerConfig, TrainingObservation};
use dora::{DoraConfig, DoraGovernor, DoraModels};
use dora_campaign::driver::CampaignDriver;
use dora_campaign::evaluate::Policy;
use dora_campaign::runner::run_scenario;
use dora_campaign::workload::WorkloadSet;

/// Model-side ablation: held-out accuracy of trainer variants.
#[derive(Debug, Clone)]
pub struct ModelAblationRow {
    /// Variant label.
    pub variant: String,
    /// Held-out load-time MAPE.
    pub time_mape: f64,
    /// Held-out power MAPE.
    pub power_mape: f64,
}

/// Governor-side ablation: behaviour of DORA config variants.
#[derive(Debug, Clone)]
pub struct GovernorAblationRow {
    /// Variant label.
    pub variant: String,
    /// Mean PPW normalized to interactive over the slice.
    pub mean_nppw: f64,
    /// Deadline-met fraction.
    pub met_fraction: f64,
    /// Mean switches per load.
    pub mean_switches: f64,
}

/// The combined ablation report.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Trainer-variant rows.
    pub model_rows: Vec<ModelAblationRow>,
    /// Governor-variant rows.
    pub governor_rows: Vec<GovernorAblationRow>,
}

/// Trains a variant and evaluates it on held-out observations.
#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
fn model_variant(
    label: &str,
    pipeline: &Pipeline,
    eval_set: &[TrainingObservation],
    config: TrainerConfig,
) -> ModelAblationRow {
    let models = train(
        &pipeline.observations,
        &pipeline.leakage_observations,
        &pipeline.scenario.board.dvfs,
        config,
    )
    .expect("campaign grids are identifiable");
    let eval = evaluate_models(&models, eval_set);
    ModelAblationRow {
        variant: label.to_string(),
        time_mape: eval.load_time.mape,
        power_mape: eval.power.mape,
    }
}

/// Runs a DORA config variant over a workload slice.
#[expect(
    clippy::expect_used,
    reason = "figure driver: asserts on its own fixed sweep grid; a panic is a broken experiment, not a runtime error"
)]
fn governor_variant(
    label: &str,
    pipeline: &Pipeline,
    models: &DoraModels,
    config: DoraConfig,
) -> GovernorAblationRow {
    let all = WorkloadSet::paper54();
    let slice: Vec<_> = all
        .workloads()
        .iter()
        .filter(|w| ["Amazon", "Reddit", "MSN", "ESPN", "Imgur"].contains(&w.page.name))
        .cloned()
        .collect();
    let scenario = &pipeline.scenario;
    let baseline_eval = CampaignDriver::new()
        .executor(pipeline.executor)
        .evaluate(
            &WorkloadSet::from_workloads(slice.clone()),
            &[Policy::Interactive],
            None,
            scenario,
        )
        .expect("no models needed");
    let mut ratios = Vec::new();
    let mut met = 0usize;
    let mut switches = 0u64;
    for w in &slice {
        let base_ppw = baseline_eval
            .results_for("interactive")
            .iter()
            .find(|r| r.workload_id == w.id())
            .expect("ran above")
            .ppw
            .value();
        let mut governor = DoraGovernor::new(models.clone(), w.page.features, config);
        let r = run_scenario(w, &mut governor, scenario);
        ratios.push(r.ppw.value() / base_ppw);
        met += usize::from(r.met_deadline);
        switches += r.switches;
    }
    GovernorAblationRow {
        variant: label.to_string(),
        mean_nppw: ratios.iter().sum::<f64>() / ratios.len() as f64,
        met_fraction: met as f64 / slice.len() as f64,
        mean_switches: switches as f64 / slice.len() as f64,
    }
}

/// Runs all four ablations.
pub fn run(pipeline: &Pipeline) -> Ablation {
    // Held-out observations: the neutral pages' fresh measurements.
    let eval_set: Vec<TrainingObservation> = crate::fig05::evaluation_observations(pipeline)
        .into_iter()
        .filter(|(_, training, _)| !training)
        .map(|(_, _, obs)| obs)
        .collect();

    let default = TrainerConfig::default();
    let model_rows = vec![
        model_variant(
            "default (piecewise, period-encoded)",
            pipeline,
            &eval_set,
            default,
        ),
        model_variant(
            "no piecewise tiers (global fit only)",
            pipeline,
            &eval_set,
            TrainerConfig {
                // A tier would need more rows per term than the campaign
                // has in total, so every tier falls back to the global fit.
                min_rows_per_term: usize::MAX / 1024,
                ..default
            },
        ),
        model_variant(
            "natural frequency encoding for time",
            pipeline,
            &eval_set,
            TrainerConfig {
                time_encoding: dora::FrequencyEncoding::Natural,
                ..default
            },
        ),
        // The two choices interact: piecewise tiers partially rescue the
        // natural encoding (each tier spans a narrow frequency range);
        // without either, the polynomial cannot represent work/frequency.
        model_variant(
            "natural encoding AND global fit only",
            pipeline,
            &eval_set,
            TrainerConfig {
                time_encoding: dora::FrequencyEncoding::Natural,
                min_rows_per_term: usize::MAX / 1024,
                ..default
            },
        ),
    ];

    let governor_rows = vec![
        governor_variant(
            "default (3% QoS margin, 3% hysteresis)",
            pipeline,
            &pipeline.models,
            DoraConfig::default(),
        ),
        governor_variant(
            "no QoS margin",
            pipeline,
            &pipeline.models,
            DoraConfig {
                qos_margin: 0.0,
                ..DoraConfig::default()
            },
        ),
        governor_variant(
            "no switch hysteresis",
            pipeline,
            &pipeline.models,
            DoraConfig {
                switch_margin: 0.0,
                ..DoraConfig::default()
            },
        ),
    ];

    Ablation {
        model_rows,
        governor_rows,
    }
}

impl Ablation {
    /// Renders both tables.
    pub fn render(&self) -> String {
        let mut m = Table::new(vec![
            "Trainer variant".into(),
            "held-out time MAPE (%)".into(),
            "held-out power MAPE (%)".into(),
        ]);
        for r in &self.model_rows {
            m.row(vec![
                r.variant.clone(),
                fmt_f(r.time_mape * 100.0, 2),
                fmt_f(r.power_mape * 100.0, 2),
            ]);
        }
        let mut g = Table::new(vec![
            "Governor variant".into(),
            "PPW vs interactive".into(),
            "met 3s (%)".into(),
            "switches/load".into(),
        ]);
        for r in &self.governor_rows {
            g.row(vec![
                r.variant.clone(),
                fmt_f(r.mean_nppw, 3),
                fmt_f(r.met_fraction * 100.0, 1),
                fmt_f(r.mean_switches, 1),
            ]);
        }
        format!(
            "Design-choice ablations (this reproduction's own decisions)\n\n\
             Trainer ablations\n{}\nGovernor ablations\n{}",
            m.render(),
            g.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Scale;

    #[test]
    #[ignore = "trains multiple model variants; exercised by the ablation binary"]
    fn design_choices_pull_their_weight() {
        let pipeline = Pipeline::build(Scale::Full, 42);
        let ablation = run(&pipeline);
        let default = &ablation.model_rows[0];
        let global_only = &ablation.model_rows[1];
        // Piecewise fits must not hurt, and usually help visibly.
        assert!(
            default.time_mape <= global_only.time_mape + 0.005,
            "{ablation:#?}"
        );
        // Governor variants: dropping the QoS margin must not *improve*
        // deadline behaviour; dropping hysteresis must not reduce switches.
        let d = &ablation.governor_rows[0];
        let no_margin = &ablation.governor_rows[1];
        let no_hyst = &ablation.governor_rows[2];
        assert!(
            no_margin.met_fraction <= d.met_fraction + 1e-9,
            "{ablation:#?}"
        );
        assert!(
            no_hyst.mean_switches >= d.mean_switches - 1e-9,
            "{ablation:#?}"
        );
    }
}
