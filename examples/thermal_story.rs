//! The leakage feedback loop made visible: browse hard at a fixed clock,
//! watch the die heat up and the power bill follow (Fig. 10's physics).
//!
//! The story is narrated by a typed [`Probe`]: instead of polling board
//! accessors, a `StoryProbe` rides the observation bus and keeps the
//! latest thermal/power samples plus a count of finished page loads.
//!
//! ```text
//! cargo run --release --example thermal_story
//! ```

#![expect(
    clippy::expect_used,
    reason = "failing fast on setup keeps the walkthrough readable"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "prints quantities as plain numbers"
)]

use dora_repro::browser::catalog::Catalog;
use dora_repro::browser::engine::RenderEngine;
use dora_repro::sim::probe::{Probe, ProbeEvent};
use dora_repro::sim::{SimDuration, SimTime};
use dora_repro::soc::board::{Board, BoardConfig};
use dora_repro::soc::Frequency;
use std::cell::RefCell;
use std::rc::Rc;

/// Collects the story's running numbers from the probe bus: the die
/// temperature and leakage tracked per quantum, plus every finish of the
/// browser's main task on core 0.
#[derive(Debug, Default)]
struct StoryProbe {
    loads_finished: u32,
    die_c: f64,
    peak_die_c: f64,
    leakage_w: f64,
}

impl Probe for StoryProbe {
    fn on_event(&mut self, _at: SimTime, event: &ProbeEvent) {
        match event {
            ProbeEvent::TaskFinished { core: 0, .. } => self.loads_finished += 1,
            ProbeEvent::ThermalSample { temperature } => {
                self.die_c = temperature.value();
                self.peak_die_c = self.peak_die_c.max(self.die_c);
            }
            ProbeEvent::PowerSample { leakage, .. } => self.leakage_w = leakage.value(),
            _ => {}
        }
    }
}

fn main() {
    let catalog = Catalog::alexa18();
    let page = catalog.page("IMDB").expect("IMDB in catalog");
    let engine = RenderEngine::default();

    for (label, config) in [
        (
            "room ambient (25C)",
            dora_soc::SocProfile::msm8974().board_config(),
        ),
        (
            "cold ambient (5C)",
            BoardConfig {
                thermal: dora_soc::thermal::ThermalParams::nexus5_cold(),
                ..dora_soc::SocProfile::msm8974().board_config()
            },
        ),
    ] {
        println!("== {label} ==");
        let mut board = Board::new(config, 7);
        let story = Rc::new(RefCell::new(StoryProbe::default()));
        board.attach_probe(story.clone());
        board
            .set_frequency(Frequency::from_mhz(1958.4))
            .expect("table frequency");
        println!(
            "{:>6} {:>9} {:>10} {:>11} {:>10}",
            "t(s)", "die(C)", "mean(W)", "leakage(W)", "loads done"
        );
        let mut loads = 0u32;
        let mut window_energy = board.energy();
        for second in 1..=40u32 {
            // Keep the browser permanently busy: as soon as the probe has
            // seen the main task finish, start the next load.
            let finished = story.borrow().loads_finished;
            if finished > loads || board.task(0).is_none() {
                if board.task(0).is_some() {
                    board.clear_core(0).expect("core exists");
                    board.clear_core(1).expect("core exists");
                    loads = finished;
                }
                let job = engine.spawn(page, u64::from(second));
                board.assign(0, Box::new(job.main)).expect("core 0 free");
                board.assign(1, Box::new(job.aux)).expect("core 1 free");
            }
            board.step(SimDuration::from_secs(1));
            if second % 4 == 0 {
                let mean_w = (board.energy() - window_energy).value() / 4.0;
                window_energy = board.energy();
                let s = story.borrow();
                println!(
                    "{:>6} {:>9.1} {:>10.2} {:>11.2} {:>10}",
                    second, s.die_c, mean_w, s.leakage_w, loads
                );
            }
        }
        let e = board.energy_breakdown();
        println!(
            "peak die temperature: {:.1}C; energy: {:.0}J \
             (platform {:.0}J, cores {:.0}J, leakage {:.0}J, dram {:.0}J)\n",
            story.borrow().peak_die_c,
            board.energy().value(),
            e.platform.value(),
            (e.core_dynamic + e.uncore).value(),
            e.leakage.value(),
            e.dram.value(),
        );
    }
    println!(
        "same clock, same work — the warm device pays a growing leakage tax.\n\
         This is why DORA feeds die temperature into its power model (Eq. 5)."
    );
}
