//! The board's stepping work counters, pinned exactly.
//!
//! `Board::step_quantum` calls `ContentionSolver::solve` once per
//! quantum, and the solver runs the fixed point only when the inputs
//! differ from the previous quantum's. The rest of the quantum is
//! memoised in the board's quantum plan, which a quantum replays unless
//! the solver missed, a stall or a new step length shows up, a task
//! executes less than it was offered, or `assign`, `clear_core`,
//! `migrate`, a frequency change or `restore` came in between. Every
//! other quantum *derives* the plan afresh. These tests drive one
//! scripted board per SoC profile and assert the exact `(quanta, solves,
//! derivations)` triple. The counters are deterministic, so a drop in
//! either memo's hit rate fails here rather than showing up later as a
//! slower benchmark. A change to a memo key or to the stepping cadence
//! must re-pin these numbers on purpose.

use dora_repro::sim::SimDuration;
use dora_repro::soc::board::{Board, StepWork};
use dora_repro::soc::task::{LoopTask, PhaseProfile, PhasedTask};
use dora_repro::soc::{ClusterId, SocProfile};

/// Runs the script on a fresh board of profile `name` and returns the
/// solver's work counters.
///
/// The script is a browsing-shaped load: a three-phase `PhasedTask`
/// browser on core 0 (parse, a memory-heavy layout, paint) beside a
/// streaming `LoopTask` co-runner on core 2. A fixed program steps
/// every cluster through its table and, on a multi-cluster board,
/// moves the co-runner to the last cluster and back. Then the browser
/// runs to completion, the co-runner is cleared, and the board soaks
/// idle for two seconds.
#[expect(clippy::expect_used, reason = "test code asserts invariants directly")]
fn run_script(name: &str) -> StepWork {
    let config = SocProfile::by_name(name)
        .expect("registered profile")
        .board_config();
    let clusters = config.clusters.len();
    let quantum = config.quantum;
    let mut board = Board::new(config, 1);
    let browser = PhasedTask::new(
        "browser",
        vec![
            (6.0e7, PhaseProfile::compute_bound()),
            (
                9.0e7,
                PhaseProfile {
                    base_cpi: 1.3,
                    l2_apki: 12.0,
                    working_set_bytes: 1.5 * 1024.0 * 1024.0,
                    reuse_fraction: 0.85,
                    duty_cycle: 0.9,
                },
            ),
            (4.0e7, PhaseProfile::compute_bound()),
        ],
    );
    board.assign(0, Box::new(browser)).expect("free core");
    board
        .assign(
            2,
            Box::new(LoopTask::new("co-runner", PhaseProfile::streaming(30.0))),
        )
        .expect("free core");
    // The DVFS/migration program: each step sets every cluster to the
    // entry `3·step` places up its own table (wrapping) and runs 25 ms;
    // on a multi-cluster board, even steps migrate the co-runner 12 ms in.
    for step in 0..8 {
        for c in 0..clusters {
            let table = &board.config().clusters[c].dvfs;
            let f = table.opp((3 * step) % table.len()).frequency;
            board
                .set_cluster_frequency(ClusterId::new(c), f)
                .expect("own table entry");
        }
        board.step(SimDuration::from_millis(12));
        if clusters > 1 && step % 2 == 0 {
            let to = if step % 4 == 0 { clusters - 1 } else { 0 };
            board.migrate(2, ClusterId::new(to)).expect("valid cluster");
        }
        board.step(SimDuration::from_millis(13));
    }
    while !board.task_finished(0) {
        board.step(quantum);
    }
    board.clear_core(2).expect("in range");
    board.step(SimDuration::from_secs(2));
    board.step_work()
}

/// msm8974: 2,258 quanta and 11 solves, a 99.51 % hit rate. The solves
/// are the first quantum, the seven later frequency steps, the browser's
/// two phase changes, and the first idle quantum. The browser's last
/// quantum and the co-runner's clearing fall together, so they cost one
/// solve, not two. DVFS switch stalls change no solver input.
///
/// 19 derivations, so 99.16 % of quanta replay the plan:
/// - the first quantum (1);
/// - each of the seven frequency steps: its stall quantum, and the one
///   after it, since a stall quantum's plan cannot seed a replay (14);
/// - the quantum after each of the browser's two phase changes, whose
///   solver input changed (2). The quantum a phase ends in still
///   executes what it was offered, so it replays;
/// - the browser's last quantum, which executes less than it was
///   offered (1);
/// - the first idle quantum, after `clear_core` (1).
#[test]
fn msm8974_script_solves_only_on_input_changes() {
    assert_eq!(
        run_script("msm8974"),
        StepWork {
            quanta: 2258,
            solves: 11,
            derivations: 19,
        }
    );
}

/// biglittle-a15a7: 2,352 quanta and 15 solves, a 99.36 % hit rate: the
/// eleven of the homogeneous script plus one per migration, since a
/// migration changes the co-runner's clock and its scaled base CPI.
///
/// 31 derivations, so 98.68 % of quanta replay the plan: the 19 of the
/// homogeneous script, plus three per migration (12). A migration's
/// latency is two quanta of stall, and the quantum after the stall
/// derives again, as after a frequency step.
#[test]
fn biglittle_script_solves_only_on_input_changes() {
    assert_eq!(
        run_script("biglittle-a15a7"),
        StepWork {
            quanta: 2352,
            solves: 15,
            derivations: 31,
        }
    );
}
