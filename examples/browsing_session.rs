//! Battery-life view: a multi-page browsing session (load, read, repeat)
//! with a background co-runner, compared across governors — including a
//! freshly trained DORA, which retargets its page model at every
//! navigation.
//!
//! ```text
//! cargo run --release --example browsing_session
//! ```

#![expect(
    clippy::expect_used,
    reason = "failing fast on setup keeps the walkthrough readable"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "prints quantities as plain numbers"
)]

use dora_repro::browser::Catalog;
use dora_repro::campaign::session::{run_session, SessionConfig};
use dora_repro::coworkloads::Kernel;
use dora_repro::dora::{DoraConfig, DoraGovernor};
use dora_repro::experiments::pipeline::{Pipeline, Scale};
use dora_repro::governors::{Governor, InteractiveGovernor, OndemandGovernor, PerformanceGovernor};
use dora_repro::soc::DvfsTable;
use dora_repro::units::WattHours;

/// Nexus 5 battery capacity (2300 mAh at 3.8 V).
const BATTERY: WattHours = WattHours::new(8.74);

fn main() {
    let catalog = Catalog::alexa18();
    let itinerary = [
        "Reddit", "CNN", "Amazon", "Youtube", "MSN", "ESPN", "BBC", "Twitter",
    ];
    let pages: Vec<_> = itinerary
        .iter()
        .map(|n| catalog.page(n).expect("page in catalog"))
        .collect();
    let kernel = Kernel::by_name("bfs").expect("in suite");
    let config = SessionConfig::default();
    let table = DvfsTable::default();

    println!("training DORA (quick grid)...");
    let pipeline = Pipeline::build(Scale::Quick, 42);

    println!(
        "\n{}-page session with medium-intensity co-runner (bfs), 8s think time:\n",
        pages.len()
    );
    println!(
        "{:<13} {:>10} {:>10} {:>10} {:>11} {:>12}",
        "governor", "energy(J)", "mean(W)", "met 3s", "peak die(C)", "battery(h)"
    );
    let mut governors: Vec<Box<dyn Governor>> = vec![
        Box::new(InteractiveGovernor::new(table.clone())),
        Box::new(OndemandGovernor::new(table.clone())),
        Box::new(PerformanceGovernor::new(table.clone())),
        Box::new(DoraGovernor::new(
            pipeline.models.clone(),
            pages[0].features,
            DoraConfig::default(),
        )),
    ];
    for governor in &mut governors {
        let r = run_session(&pages, Some(&kernel), governor.as_mut(), &config);
        println!(
            "{:<13} {:>10.1} {:>10.2} {:>9.0}% {:>11.1} {:>12.1}",
            r.governor,
            r.energy.value(),
            r.mean_power().value(),
            r.met_fraction() * 100.0,
            r.peak_temp.value(),
            r.battery_hours(BATTERY),
        );
    }
    println!(
        "\nDORA races each load to its deadline-safe optimum, then the idle \
         think time costs the same for everyone — so its per-load PPW edge \
         compounds into session battery life."
    );
}
