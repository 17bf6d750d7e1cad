//! End-to-end smoke run: quick-train DORA, then compare it with the
//! interactive baseline on a handful of workloads.

#![expect(clippy::expect_used, reason = "the smoke binary fails fast by design")]
#![allow(
    clippy::disallowed_methods,
    reason = "prints quantities as plain numbers"
)]

use dora_campaign::driver::CampaignDriver;
use dora_campaign::evaluate::{Policy, Subset};
use dora_campaign::workload::WorkloadSet;
use dora_experiments::Pipeline;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let pipeline = if full {
        Pipeline::full()
    } else {
        Pipeline::quick()
    };
    println!(
        "trained on {} observations; leakage points: {}",
        pipeline.observations.len(),
        pipeline.leakage_observations.len()
    );
    let eval = dora::trainer::evaluate_models(&pipeline.models, &pipeline.observations);
    println!(
        "train-set MAPE: time {:.2}% power {:.2}%",
        eval.load_time.mape * 100.0,
        eval.power.mape * 100.0
    );

    let all = WorkloadSet::paper54();
    let subset = WorkloadSet::from_workloads(
        ["Amazon", "MSN", "ESPN", "IMDB", "Alibaba", "Imgur"]
            .iter()
            .flat_map(|p| {
                all.workloads()
                    .iter()
                    .filter(move |w| w.page.name == *p)
                    .cloned()
            })
            .collect(),
    );
    let policies = [
        Policy::Interactive,
        Policy::Performance,
        Policy::Dora,
        Policy::DeadlineOnly,
        Policy::EnergyOnly,
    ];
    let result = CampaignDriver::new()
        .executor(pipeline.executor)
        .evaluate(
            &subset,
            &policies,
            Some(&pipeline.models),
            &pipeline.scenario,
        )
        .expect("models provided");
    for p in &policies {
        let name = p.name();
        println!(
            "{:<12} mean nPPW {:.3}  deadline-met {:.0}%",
            name,
            result.mean_normalized_ppw(name, "interactive", Subset::All),
            result.deadline_met_fraction(name) * 100.0
        );
    }
    for r in result.results_for("DORA") {
        println!(
            "  DORA {:<22} t={:.2}s P={:.2}W ppw={:.4} met={} switches={} fmean={:.2}GHz",
            r.workload_id,
            r.load_time.value(),
            r.mean_power.value(),
            r.ppw.value(),
            r.met_deadline,
            r.switches,
            r.mean_frequency.as_ghz()
        );
    }
}
