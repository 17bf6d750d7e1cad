//! Cross-crate integration tests: the full train-then-govern pipeline and
//! the paper's end-to-end behavioural guarantees, at a size that stays
//! tolerable in debug builds. The full-scale equivalents live as
//! `#[ignore]`d tests in `dora-experiments` and run in release.

#![expect(clippy::expect_used, reason = "test code asserts invariants directly")]
#![allow(
    clippy::disallowed_methods,
    reason = "tests compare quantities against plain-number references"
)]

use dora_repro::campaign::driver::CampaignDriver;
use dora_repro::campaign::evaluate::{Policy, Subset};
use dora_repro::campaign::runner::ScenarioConfig;
use dora_repro::campaign::training::TrainingCampaignConfig;
use dora_repro::campaign::workload::WorkloadSet;
use dora_repro::dora::trainer::{evaluate_models, train, TrainerConfig};
use dora_repro::sim::SimDuration;
use dora_repro::soc::Frequency;

/// A small but representative pipeline: 4 pages (spanning both Table III
/// classes and both train/held-out splits) × 3 classes × 5 frequencies.
fn small_pipeline() -> (dora_repro::dora::DoraModels, WorkloadSet, ScenarioConfig) {
    let scenario = ScenarioConfig::builder()
        .warmup(SimDuration::from_secs(5))
        .build();
    let all = WorkloadSet::paper54();
    let train_pages = ["Amazon", "Reddit", "MSN", "ESPN", "IMDB", "CNN"];
    let train_set = WorkloadSet::from_workloads(
        all.workloads()
            .iter()
            .filter(|w| train_pages.contains(&w.page.name))
            .cloned()
            .collect(),
    );
    let frequencies: Vec<Frequency> = scenario.board.dvfs.frequencies().step_by(2).collect();
    let driver = CampaignDriver::new();
    let observations = driver.training_campaign(
        &train_set,
        &TrainingCampaignConfig {
            scenario: scenario.clone(),
            frequencies: Some(frequencies),
        },
    );
    let leakage = driver.leakage_calibration(
        &scenario.board,
        &[15.0, 35.0].map(dora_repro::units::Celsius::new),
    );
    let models = train(
        &observations,
        &leakage,
        &scenario.board.dvfs,
        TrainerConfig::default(),
    )
    .expect("grid is identifiable");
    // Sanity: the models explain their own training data tightly.
    let eval = evaluate_models(&models, &observations);
    assert!(
        eval.load_time.mape < 0.08,
        "train-set time MAPE {:.3}",
        eval.load_time.mape
    );
    assert!(
        eval.power.mape < 0.08,
        "train-set power MAPE {:.3}",
        eval.power.mape
    );
    (models, all, scenario)
}

#[test]
fn dora_beats_interactive_without_sacrificing_deadlines() {
    let (models, all, scenario) = small_pipeline();
    // Evaluate on pages the models never saw (Alibaba is a held-out page)
    // plus one training page.
    let eval_set = WorkloadSet::from_workloads(
        all.workloads()
            .iter()
            .filter(|w| ["Amazon", "Alibaba", "MSN"].contains(&w.page.name))
            .cloned()
            .collect(),
    );
    let result = CampaignDriver::new()
        .evaluate(
            &eval_set,
            &[Policy::Interactive, Policy::Performance, Policy::Dora],
            Some(&models),
            &scenario,
        )
        .expect("models supplied");

    // Energy efficiency: DORA ahead of the baseline on average.
    let gain = result.mean_normalized_ppw("DORA", "interactive", Subset::All);
    assert!(gain > 1.05, "DORA gain {gain:.3}");

    // QoS: DORA meets the deadline whenever the performance governor
    // does (the paper's 82%-feasibility argument).
    let perf_met: Vec<&str> = result
        .results_for("performance")
        .iter()
        .filter(|r| r.met_deadline)
        .map(|r| r.workload_id.as_str())
        .collect();
    for r in result.results_for("DORA") {
        if perf_met.contains(&r.workload_id.as_str()) {
            assert!(
                r.met_deadline,
                "{} feasible under performance but DORA missed ({:.2}s)",
                r.workload_id,
                r.load_time.value()
            );
        }
    }
}

#[test]
fn dora_tracks_oracle_fopt_for_an_easy_page() {
    let (models, all, scenario) = small_pipeline();
    let w = all
        .find_by_class("Amazon", dora_repro::coworkloads::Intensity::Low)
        .expect("exists");
    let result = CampaignDriver::new()
        .evaluate(
            &WorkloadSet::from_workloads(vec![w.clone()]),
            &[Policy::Interactive, Policy::OfflineOpt, Policy::Dora],
            Some(&models),
            &scenario,
        )
        .expect("models supplied");
    let dora = result.results_for("DORA")[0];
    let offline = result.results_for("offline_opt")[0];
    // DORA lands within 12% of the exhaustively enumerated optimum.
    assert!(
        dora.ppw.value() > offline.ppw.value() * 0.88,
        "DORA {:.4} vs offline {:.4}",
        dora.ppw,
        offline.ppw
    );
}

#[test]
fn deadline_governor_is_energy_suboptimal_and_ee_violates() {
    // The Section V-C contrast that motivates DORA: DL wastes energy,
    // EE wastes deadlines.
    let (models, all, scenario) = small_pipeline();
    let eval_set = WorkloadSet::from_workloads(
        all.workloads()
            .iter()
            .filter(|w| ["Amazon", "MSN", "IMDB"].contains(&w.page.name))
            .cloned()
            .collect(),
    );
    let result = CampaignDriver::new()
        .evaluate(
            &eval_set,
            &[
                Policy::Interactive,
                Policy::Dora,
                Policy::DeadlineOnly,
                Policy::EnergyOnly,
            ],
            Some(&models),
            &scenario,
        )
        .expect("models supplied");
    let dora = result.mean_normalized_ppw("DORA", "interactive", Subset::All);
    let dl = result.mean_normalized_ppw("DL", "interactive", Subset::All);
    let ee = result.mean_normalized_ppw("EE", "interactive", Subset::All);
    assert!(dora >= dl - 0.02, "DORA {dora:.3} vs DL {dl:.3}");
    assert!(ee >= dora - 0.02, "EE {ee:.3} vs DORA {dora:.3}");
    assert!(
        result.deadline_met_fraction("EE") <= result.deadline_met_fraction("DORA"),
        "EE should not meet more deadlines than DORA"
    );
}

#[test]
fn models_transfer_across_deadlines_without_retraining() {
    // Section V-G: the same trained models serve any QoS target.
    let (models, all, scenario) = small_pipeline();
    let w = all
        .find_by_class("MSN", dora_repro::coworkloads::Intensity::High)
        .expect("exists");
    let mut chosen = Vec::new();
    for deadline_s in [1.0, 3.0, 8.0] {
        let deadline = dora_repro::units::Seconds::new(deadline_s);
        let mut governor = dora_repro::dora::DoraGovernor::new(
            models.clone(),
            w.page.features,
            dora_repro::dora::DoraConfig {
                qos_target: deadline,
                ..dora_repro::dora::DoraConfig::default()
            },
        );
        let config = scenario.to_builder().deadline(deadline).build();
        let r = dora_repro::campaign::runner::run_scenario(w, &mut governor, &config);
        chosen.push(r.mean_frequency.as_ghz());
    }
    assert!(
        chosen[0] > chosen[2],
        "tight deadlines must clock higher: {chosen:?}"
    );
}
