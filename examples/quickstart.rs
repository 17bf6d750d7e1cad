//! Quickstart: train DORA's models in the simulator, then let the
//! governor drive a page load under memory interference.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![expect(
    clippy::expect_used,
    reason = "failing fast on setup keeps the walkthrough readable"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "prints quantities as plain numbers"
)]

use dora_repro::campaign::driver::CampaignDriver;
use dora_repro::campaign::evaluate::{Policy, Subset};
use dora_repro::campaign::workload::WorkloadSet;
use dora_repro::experiments::pipeline::{Pipeline, Scale};

fn main() {
    // 1. Train: run the offline measurement campaign (Section IV-C) and
    //    fit the load-time, power and leakage models. `Scale::Quick`
    //    sweeps a reduced grid; use `Scale::Full` for the paper's 588
    //    observations.
    println!("training DORA's models (quick grid)...");
    let pipeline = Pipeline::build(Scale::Quick, 42);
    println!(
        "  {} observations, {} leakage calibration points",
        pipeline.observations.len(),
        pipeline.leakage_observations.len()
    );

    // 2. Check the models the way the paper does (Section V-A).
    let eval = dora_repro::dora::trainer::evaluate_models(&pipeline.models, &pipeline.observations);
    println!(
        "  load-time model accuracy: {:.1}%   power model accuracy: {:.1}%",
        100.0 * (1.0 - eval.load_time.mape),
        100.0 * (1.0 - eval.power.mape)
    );

    // 3. Evaluate DORA against the Android baseline on one hard and one
    //    easy workload.
    let all = WorkloadSet::paper54();
    let subset = WorkloadSet::from_workloads(
        all.workloads()
            .iter()
            .filter(|w| w.page.name == "Amazon" || w.page.name == "IMDB")
            .cloned()
            .collect(),
    );
    let result = CampaignDriver::new()
        .evaluate(
            &subset,
            &[Policy::Interactive, Policy::Dora],
            Some(&pipeline.models),
            &pipeline.scenario,
        )
        .expect("models were supplied");

    println!("\nworkload results under DORA:");
    for r in result.results_for("DORA") {
        println!(
            "  {:<24} load {:.2}s  power {:.2}W  deadline {}  mean clock {:.2} GHz",
            r.workload_id,
            r.load_time.value(),
            r.mean_power.value(),
            if r.met_deadline { "met" } else { "missed" },
            r.mean_frequency.as_ghz(),
        );
    }
    let gain = result.mean_normalized_ppw("DORA", "interactive", Subset::All);
    println!(
        "\nDORA energy efficiency vs interactive: {:+.1}%",
        (gain - 1.0) * 100.0
    );
}
