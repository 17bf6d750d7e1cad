//! Emergent-classification check: each kernel's *measured* solo MPKI on
//! the Nexus 5 board model must land in its Table III class.
//!
//! The paper classifies co-run applications by the L2 MPKI they exhibit;
//! this test runs every kernel alone for one simulated second at the top
//! frequency and asserts the measurement, so the suite's labels can never
//! drift from its behaviour.

#![expect(clippy::expect_used, reason = "test code asserts invariants directly")]
#![allow(
    clippy::disallowed_methods,
    reason = "tests compare quantities against plain-number references"
)]

use dora_coworkloads::{Intensity, Kernel};
use dora_sim_core::SimDuration;
use dora_soc::board::Board;

/// Measured solo MPKI of a kernel after one second at `mhz`.
fn solo_mpki(kernel: &Kernel, mhz: f64) -> f64 {
    let mut board = Board::new(dora_soc::SocProfile::msm8974().board_config(), 13);
    board
        .set_frequency(dora_soc::Frequency::from_mhz(mhz))
        .expect("table frequency");
    board
        .assign(2, Box::new(kernel.spawn(13)))
        .expect("core 2 free");
    board.step(SimDuration::from_secs(1));
    board.counters(2).mpki().value()
}

#[test]
fn every_kernel_measures_into_its_class() {
    let mut report = String::new();
    let mut violations = Vec::new();
    for kernel in Kernel::all() {
        let mpki = solo_mpki(&kernel, 2265.6);
        let (lo, hi) = kernel.intensity().mpki_bounds();
        report.push_str(&format!(
            "{:<18} {:<7} mpki={:>6.2}\n",
            kernel.name(),
            kernel.intensity().to_string(),
            mpki
        ));
        if mpki < lo || mpki >= hi {
            violations.push(format!(
                "{} measured {mpki:.2} MPKI, outside [{lo}, {hi})",
                kernel.name()
            ));
        }
        assert_eq!(Intensity::classify(mpki), kernel.intensity(), "{report}");
    }
    assert!(violations.is_empty(), "{violations:?}\n{report}");
}

#[test]
fn classification_is_stable_across_frequency() {
    // MPKI is a per-instruction metric; it should not change class when
    // the clock moves (the paper classifies once, then sweeps frequency).
    for kernel in Kernel::all() {
        let hi = solo_mpki(&kernel, 2265.6);
        let lo = solo_mpki(&kernel, 729.6);
        assert_eq!(
            Intensity::classify(hi),
            Intensity::classify(lo),
            "{} flips class between frequencies ({hi:.2} vs {lo:.2})",
            kernel.name()
        );
    }
}

#[test]
fn kernel_utilization_matches_duty_cycle() {
    for kernel in Kernel::all() {
        let mut board = Board::new(dora_soc::SocProfile::msm8974().board_config(), 29);
        board
            .set_frequency(dora_soc::Frequency::from_mhz(1497.6))
            .expect("table frequency");
        board
            .assign(2, Box::new(kernel.spawn(29)))
            .expect("core 2 free");
        board.step(SimDuration::from_secs(2));
        let util = board.counters(2).utilization();
        let expected = kernel.mean_duty_cycle();
        assert!(
            (util.value() - expected).abs() < 0.08,
            "{}: utilization {util:.2} vs duty {expected:.2}",
            kernel.name()
        );
    }
}
