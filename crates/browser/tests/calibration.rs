//! Calibration check: the catalog's computed alone-load-times must
//! reproduce the paper's Table III classes on the Nexus 5 board model.
//!
//! "They also vary widely in complexity resulting in load times in the
//! range of hundred of milliseconds to 4 seconds, when running alone."
//! (Section IV-B). Low-class pages load in < 2 s at the top frequency;
//! High-class pages take > 2 s.

#![expect(clippy::expect_used, reason = "test code asserts invariants directly")]

use dora_browser::catalog::{Catalog, PageClass};
use dora_browser::engine::RenderEngine;
use dora_sim_core::SimDuration;
use dora_soc::board::Board;

/// Loads `page` alone (both browser cores, no co-runner) at the given
/// table frequency and returns the load time in seconds.
fn load_alone(name: &str, mhz: f64, seed: u64) -> f64 {
    let catalog = Catalog::alexa18();
    let page = catalog.page(name).expect("page in catalog");
    let engine = RenderEngine::default();
    let job = engine.spawn(page, seed);
    let mut board = Board::new(dora_soc::SocProfile::msm8974().board_config(), seed);
    board
        .set_frequency(dora_soc::Frequency::from_mhz(mhz))
        .expect("table frequency");
    board.assign(0, Box::new(job.main)).expect("core 0 free");
    board.assign(1, Box::new(job.aux)).expect("core 1 free");
    let limit = SimDuration::from_secs(60);
    while !board.task_finished(0) && board.time().as_secs_f64() < limit.as_secs_f64() {
        board.step(SimDuration::from_millis(20));
    }
    board
        .finish_time(0)
        .expect("page should load within 60 s")
        .as_secs_f64()
}

#[test]
fn table3_alone_load_time_classes_hold_at_fmax() {
    let catalog = Catalog::alexa18();
    let mut report = String::new();
    let mut violations = Vec::new();
    for page in catalog.pages() {
        let t = load_alone(page.name, 2265.6, 11);
        report.push_str(&format!("{:<12} {:?} {:>6.2}s\n", page.name, page.class, t));
        match page.class {
            PageClass::Low if t >= 2.0 => {
                violations.push(format!("{} classed Low but loads in {t:.2}s", page.name))
            }
            PageClass::High if t <= 2.0 => {
                violations.push(format!("{} classed High but loads in {t:.2}s", page.name))
            }
            _ => {}
        }
    }
    assert!(
        violations.is_empty(),
        "{violations:?}\nfull report:\n{report}"
    );
}

#[test]
fn alone_load_times_span_subsecond_to_four_seconds() {
    // The paper's corpus spans "hundreds of milliseconds to 4 seconds".
    let fastest = load_alone("Alipay", 2265.6, 3);
    let slowest = load_alone("Aliexpress", 2265.6, 3);
    assert!(fastest < 1.0, "lightest page took {fastest:.2}s");
    assert!(
        (2.8..4.5).contains(&slowest),
        "heaviest page took {slowest:.2}s, expected ~3-4s"
    );
}

#[test]
fn load_time_rises_as_frequency_falls() {
    let mut last = 0.0;
    for mhz in [2265.6, 1497.6, 883.2, 729.6] {
        let t = load_alone("Reddit", mhz, 5);
        assert!(t > last, "load time must rise as frequency falls");
        last = t;
    }
    // Fig. 1 shows Reddit spanning roughly 1-2 s at 2.2 GHz up to ~4-5.5 s
    // at 0.7 GHz under interference; alone it should sit below those bands.
    let top = load_alone("Reddit", 2265.6, 5);
    let bottom = load_alone("Reddit", 729.6, 5);
    assert!((0.8..2.0).contains(&top), "Reddit @2.27GHz: {top:.2}s");
    assert!(
        (2.0..5.0).contains(&bottom),
        "Reddit @0.73GHz: {bottom:.2}s"
    );
}
