//! The campaign executor's determinism guarantee, end to end: parallel
//! fan-out must produce `RunResult` vectors byte-identical to the
//! sequential loop, for the evaluation grid, the oracle sweeps behind
//! the pinned policies, and the training campaign — plus the snapshot
//! kernel's replay guarantee: restore + re-step reproduces the original
//! trajectory bit for bit, observable events included.

use dora_repro::campaign::driver::CampaignDriver;
use dora_repro::campaign::evaluate::Policy;
use dora_repro::campaign::executor::{Executor, Parallelism};
use dora_repro::campaign::runner::ScenarioConfig;
use dora_repro::campaign::training::TrainingCampaignConfig;
use dora_repro::campaign::workload::WorkloadSet;
use dora_repro::sim::SimDuration;
use dora_repro::soc::Frequency;

fn quick() -> ScenarioConfig {
    ScenarioConfig::builder()
        .warmup(SimDuration::from_secs(2))
        .build()
}

#[test]
fn full_54_workload_campaign_is_deterministic_across_executors() {
    // The whole paper54 grid under the baseline policy: 54 scenarios per
    // executor width. Every result field must match bit for bit, in the
    // same workload-major order.
    let set = WorkloadSet::paper54();
    let config = quick();
    let sequential = CampaignDriver::new()
        .evaluate(&set, &[Policy::Interactive], None, &config)
        .expect("runs");
    let parallel = CampaignDriver::new()
        .executor(Executor::new(Parallelism::Fixed(4)))
        .evaluate(&set, &[Policy::Interactive], None, &config)
        .expect("runs");
    assert_eq!(sequential.results().len(), 54);
    assert_eq!(sequential.results(), parallel.results());
}

#[test]
fn oracle_backed_policies_are_deterministic_across_executors() {
    // Oracle sweeps fan out as (workload × frequency) tasks; the derived
    // fD/fE/fopt pins — and therefore the pinned-policy results — must
    // not depend on the executor width.
    let all = WorkloadSet::paper54();
    let set = WorkloadSet::from_workloads(
        all.workloads()
            .iter()
            .filter(|w| w.page.name == "Amazon")
            .cloned()
            .collect(),
    );
    let config = quick();
    let policies = [Policy::Interactive, Policy::OfflineOpt];
    let sequential = CampaignDriver::new()
        .evaluate(&set, &policies, None, &config)
        .expect("runs");
    let parallel = CampaignDriver::new()
        .executor(Executor::new(Parallelism::Fixed(3)))
        .evaluate(&set, &policies, None, &config)
        .expect("runs");
    assert_eq!(sequential.results(), parallel.results());
    assert_eq!(sequential.oracles(), parallel.oracles());
    for oracle in parallel.oracles().values() {
        assert_eq!(oracle.sweep.len(), 14, "full-table sweep");
    }
}

#[test]
fn training_campaign_is_deterministic_across_executors() {
    let all = WorkloadSet::paper54();
    let set = WorkloadSet::from_workloads(
        all.workloads()
            .iter()
            .filter(|w| w.page.name == "MSN" && w.is_training())
            .cloned()
            .collect(),
    );
    let config = TrainingCampaignConfig {
        scenario: quick(),
        frequencies: Some(vec![
            Frequency::from_mhz(729.6),
            Frequency::from_mhz(1497.6),
            Frequency::from_mhz(2265.6),
        ]),
    };
    let sequential = CampaignDriver::new().training_campaign(&set, &config);
    let parallel = CampaignDriver::new()
        .executor(Executor::new(Parallelism::Fixed(4)))
        .training_campaign(&set, &config);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.load_time, p.load_time);
        assert_eq!(s.total_power, p.total_power);
        assert_eq!(s.mean_temp, p.mean_temp);
        assert_eq!(s.inputs.l2_mpki, p.inputs.l2_mpki);
        assert_eq!(s.inputs.corun_utilization, p.inputs.corun_utilization);
    }
}

#[test]
fn snapshot_restore_replays_the_trajectory_bitwise_with_events() {
    use dora_repro::sim::probe::ProbeRing;
    use dora_repro::soc::task::{LoopTask, PhaseProfile, PhasedTask};
    use dora_repro::soc::Board;

    let mut board = Board::new(dora_soc::SocProfile::msm8974().board_config(), 11);
    board
        .set_frequency(Frequency::from_mhz(1190.4))
        .expect("in table");
    // A finite foreground task (so both runs see a TaskFinished event)
    // next to an endless streaming co-runner.
    board
        .assign(
            0,
            Box::new(PhasedTask::new(
                "page",
                vec![
                    (1.0e8, PhaseProfile::compute_bound()),
                    (0.5e8, PhaseProfile::streaming(30.0)),
                ],
            )),
        )
        .expect("free");
    board
        .assign(
            2,
            Box::new(LoopTask::new("hog", PhaseProfile::streaming(45.0))),
        )
        .expect("free");
    board.step(SimDuration::from_millis(120));

    let snapshot = board.snapshot();
    let d = SimDuration::from_millis(700);

    // Observers go on after the snapshot so both runs watch the same
    // window: a fresh ring per run.
    let ring_a = ProbeRing::shared(1 << 14);
    let id_a = board.attach_probe(ring_a.clone());
    board.step(d);
    board.detach_probe(id_a);
    let run_a = (
        board.time(),
        board.energy(),
        board.energy_breakdown(),
        board.temperature(),
        board.counters(0),
        board.counters(2),
        board.finish_time(0),
    );
    let events_a = ring_a.borrow().to_vec();
    assert!(
        board.task_finished(0),
        "the page task should finish in run A"
    );
    assert!(!events_a.is_empty(), "run A should observe events");

    board.restore(&snapshot).expect("snapshot fits");
    // A fresh observer for run B: ring A still holds run A's events
    // (observers are deliberately outside the snapshot).
    let ring_b = ProbeRing::shared(1 << 14);
    board.attach_probe(ring_b.clone());
    board.step(d);
    let run_b = (
        board.time(),
        board.energy(),
        board.energy_breakdown(),
        board.temperature(),
        board.counters(0),
        board.counters(2),
        board.finish_time(0),
    );
    assert_eq!(run_a, run_b, "restore + re-step must replay run A bitwise");
    assert_eq!(
        events_a,
        ring_b.borrow().to_vec(),
        "the observable event stream must replay bitwise too"
    );
}
