//! The paper's motivating experiment as a playground: pick a page, pick a
//! co-runner, pick a governor, watch what happens.
//!
//! ```text
//! cargo run --release --example browse_under_interference -- Reddit backprop
//! ```
//!
//! Arguments default to `Reddit backprop`. Any catalog page
//! (`cargo run --example browse_under_interference -- list` prints them)
//! and any Table III kernel name (or `alone`) work.

#![allow(
    clippy::disallowed_methods,
    reason = "prints quantities as plain numbers"
)]

use dora_repro::browser::catalog::Catalog;
use dora_repro::campaign::runner::{run_page, ScenarioConfig};
use dora_repro::coworkloads::Kernel;
use dora_repro::governors::{
    ConservativeGovernor, Governor, InteractiveGovernor, PerformanceGovernor, PowersaveGovernor,
};
use dora_repro::soc::DvfsTable;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let catalog = Catalog::alexa18();
    if args.first().map(String::as_str) == Some("list") {
        println!("pages:");
        for p in catalog.pages() {
            println!(
                "  {:<12} ({:?}, {} DOM nodes)",
                p.name,
                p.class,
                p.features.dom_nodes()
            );
        }
        println!("kernels:");
        for k in Kernel::all() {
            println!("  {:<18} ({})", k.name(), k.intensity());
        }
        return;
    }

    let page_name = args.first().map(String::as_str).unwrap_or("Reddit");
    let kernel_name = args.get(1).map(String::as_str).unwrap_or("backprop");
    let Some(page) = catalog.page(page_name) else {
        eprintln!("unknown page {page_name:?}; try `-- list`");
        std::process::exit(1);
    };
    let kernel = if kernel_name.eq_ignore_ascii_case("alone") {
        None
    } else {
        match Kernel::by_name(kernel_name) {
            Some(k) => Some(k),
            None => {
                eprintln!("unknown kernel {kernel_name:?}; try `-- list`");
                std::process::exit(1);
            }
        }
    };

    let config = ScenarioConfig::default();
    let table = DvfsTable::default();
    println!(
        "loading {} with co-runner {} under each stock governor:\n",
        page.name,
        kernel.as_ref().map_or("none", |k| k.name())
    );
    println!(
        "{:<14} {:>8} {:>9} {:>8} {:>10} {:>9}",
        "governor", "load(s)", "power(W)", "PPW", "deadline", "f(GHz)"
    );
    let mut governors: Vec<Box<dyn Governor>> = vec![
        Box::new(PowersaveGovernor::new(table.clone())),
        Box::new(ConservativeGovernor::new(table.clone())),
        Box::new(InteractiveGovernor::new(table.clone())),
        Box::new(PerformanceGovernor::new(table.clone())),
    ];
    for governor in &mut governors {
        let r = run_page(page, kernel.as_ref(), governor.as_mut(), &config);
        println!(
            "{:<14} {:>8.2} {:>9.2} {:>8.4} {:>10} {:>9.2}",
            r.governor,
            r.load_time.value(),
            r.mean_power.value(),
            r.ppw.value(),
            if r.met_deadline { "met" } else { "missed" },
            r.mean_frequency.as_ghz(),
        );
    }
    println!("\n(train DORA with the quickstart example to add it to this table)");
}
