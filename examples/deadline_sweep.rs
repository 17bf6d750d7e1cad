//! Fig. 11 as an interactive experiment: how DORA's frequency choice
//! moves as the user-satisfaction deadline is relaxed — with *no model
//! retraining* between deadlines.
//!
//! ```text
//! cargo run --release --example deadline_sweep -- MSN high
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "prints quantities as plain numbers"
)]

use dora_repro::campaign::runner::run_scenario;
use dora_repro::campaign::workload::WorkloadSet;
use dora_repro::coworkloads::Intensity;
use dora_repro::dora::{DoraConfig, DoraGovernor};
use dora_repro::experiments::pipeline::{Pipeline, Scale};

fn parse_intensity(s: &str) -> Option<Intensity> {
    match s.to_ascii_lowercase().as_str() {
        "low" => Some(Intensity::Low),
        "medium" | "med" => Some(Intensity::Medium),
        "high" => Some(Intensity::High),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let page = args.first().map(String::as_str).unwrap_or("MSN");
    let intensity = args
        .get(1)
        .and_then(|s| parse_intensity(s))
        .unwrap_or(Intensity::High);

    let set = WorkloadSet::paper54();
    let Some(workload) = set.find_by_class(page, intensity) else {
        eprintln!("unknown page {page:?}");
        std::process::exit(1);
    };

    println!("training (quick grid)...");
    let pipeline = Pipeline::build(Scale::Quick, 42);

    println!(
        "\nDORA on {} across deadlines (the fmax -> fD -> fE staircase):\n",
        workload.id()
    );
    println!(
        "{:>12} {:>11} {:>9} {:>9}",
        "deadline(s)", "fopt(GHz)", "load(s)", "met"
    );
    for deadline in 1..=10u32 {
        let deadline_s = dora_repro::units::Seconds::new(f64::from(deadline));
        let mut governor = DoraGovernor::new(
            pipeline.models.clone(),
            workload.page.features,
            DoraConfig {
                qos_target: deadline_s,
                ..DoraConfig::default()
            },
        );
        let config = pipeline.scenario.to_builder().deadline(deadline_s).build();
        let r = run_scenario(workload, &mut governor, &config);
        println!(
            "{:>12} {:>11.2} {:>9.2} {:>9}",
            deadline,
            r.mean_frequency.as_ghz(),
            r.load_time.value(),
            if r.met_deadline { "yes" } else { "no" }
        );
    }
}
