//! Extending the framework: write your own governor and race it against
//! the stock policies on the paper's workloads.
//!
//! The example implements a naive "race-to-idle" policy (pin `fmax` while
//! any core is busy, drop to `fmin` otherwise) — a strategy that folklore
//! sometimes recommends and that this platform's whole-device power model
//! shows to be mediocre for sustained rendering.
//!
//! ```text
//! cargo run --release --example custom_governor
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "prints quantities as plain numbers"
)]

use dora_repro::campaign::runner::{run_page_observed, run_scenario, ScenarioConfig};
use dora_repro::campaign::workload::WorkloadSet;
use dora_repro::governors::{Governor, GovernorObservation, InteractiveGovernor};
use dora_repro::sim::probe::{Probe, ProbeEvent};
use dora_repro::sim::{SimDuration, SimTime};
use dora_repro::soc::{DvfsTable, Frequency};
use std::cell::RefCell;
use std::rc::Rc;

/// Pin the top frequency whenever anything is running; idle at the
/// bottom. Implementing [`Governor`] is all it takes to enter the
/// evaluation harness.
#[derive(Debug)]
struct RaceToIdle {
    table: DvfsTable,
}

/// Watches the measured window through the typed probe bus: every
/// [`ProbeEvent::GovernorDecision`] and [`ProbeEvent::DvfsSwitch`] the
/// custom governor produces, cross-checked against the summary result.
#[derive(Debug, Default)]
struct DecisionTally {
    decisions: u64,
    switches: u64,
}

impl Probe for DecisionTally {
    fn on_event(&mut self, _at: SimTime, event: &ProbeEvent) {
        match event {
            ProbeEvent::GovernorDecision { .. } => self.decisions += 1,
            ProbeEvent::DvfsSwitch { .. } => self.switches += 1,
            _ => {}
        }
    }
}

impl Governor for RaceToIdle {
    fn name(&self) -> &str {
        "race-to-idle"
    }

    fn decision_interval(&self) -> SimDuration {
        SimDuration::from_millis(20)
    }

    fn decide(&mut self, observation: &GovernorObservation) -> Frequency {
        if observation.max_utilization().value() > 0.05 {
            self.table.max_frequency()
        } else {
            self.table.min_frequency()
        }
    }
}

fn main() {
    let table = DvfsTable::default();
    let config = ScenarioConfig::default();
    let set = WorkloadSet::paper54();

    println!(
        "{:<26} {:>14} {:>14} {:>12}",
        "workload", "race-to-idle", "interactive", "PPW ratio"
    );
    let mut ratios = Vec::new();
    for w in set.workloads().iter().take(12) {
        let mut custom = RaceToIdle {
            table: table.clone(),
        };
        let tally = Rc::new(RefCell::new(DecisionTally::default()));
        let mine = run_page_observed(
            &w.page,
            Some(&w.kernel),
            &mut custom,
            &config,
            tally.clone(),
        );
        // The probe and the summary saw the same measured window.
        assert_eq!(tally.borrow().switches, mine.switches);
        assert!(tally.borrow().decisions > 0, "governor was consulted");
        let mut baseline = InteractiveGovernor::new(table.clone());
        let theirs = run_scenario(w, &mut baseline, &config);
        let ratio = mine.ppw.value() / theirs.ppw.value();
        ratios.push(ratio);
        println!(
            "{:<26} {:>9.2}s {:>3} {:>9.2}s {:>3} {:>11.3}",
            w.id(),
            mine.load_time.value(),
            if mine.met_deadline { "ok" } else { "X" },
            theirs.load_time.value(),
            if theirs.met_deadline { "ok" } else { "X" },
            ratio,
        );
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("\nmean PPW vs interactive: {:+.1}%", (mean - 1.0) * 100.0);
    println!(
        "During a sustained page load the cores never go idle, so \
race-to-idle degenerates into the performance governor - all the V2f \
premium, none of the idling. A deadline-aware model-based policy (DORA) \
is what actually converts slack into energy; see the quickstart example."
    );
}
