//! The zero-cost-observation contract, asserted with a real allocator.
//!
//! The old string trace ring built a `format!` message on every quantum
//! retire whether tracing was on or not. The probe bus's `emit_with`
//! builds events lazily, so with no probe attached a warmed board must
//! step without touching the allocator at all. This test installs a
//! counting wrapper around the system allocator and holds the stepping
//! hot path to exactly zero allocations on every registered SoC profile,
//! with frequencies taken from each board's own cluster tables: first a
//! bare board, then the governed loop every campaign runs, whose
//! per-quantum steps must allocate nothing between decisions.
//!
//! The test lives in `dora-campaign` because the governed loop does;
//! `dora-soc` cannot depend on it.

#![allow(
    unsafe_code,
    reason = "counting allocations means implementing the unsafe `GlobalAlloc` trait"
)]
#![expect(clippy::expect_used, reason = "test code asserts invariants directly")]

use dora_campaign::runner::{GovernedLoop, BROWSER_AUX_CORE, BROWSER_MAIN_CORE, CORUN_CORE};
use dora_governors::{Governor, GovernorObservation};
use dora_sim_core::SimDuration;
use dora_soc::board::Board;
use dora_soc::task::{LoopTask, PhaseProfile, PhasedTask};
use dora_soc::{ClusterId, Frequency, OperatingPoint, SocProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every heap allocation made through the global allocator.
struct CountingAllocator;

thread_local! {
    // Per thread: the test harness runs the tests of this file, and
    // prints their results, on other threads concurrently.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialised `Cell` has no destructor, so this never fails
    // for lack of the slot; ignoring the error keeps `alloc` panic-free.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made on this thread so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Every registered profile runs the steady-state browsing + co-runner
/// shape, and stepping it allocates nothing, with or without a probe
/// attached.
#[test]
fn warmed_board_steps_without_allocating_when_no_probe_listens() {
    for name in SocProfile::names() {
        let profile = SocProfile::by_name(name).expect("registered");
        let config = profile.board_config();
        // A middle entry of each cluster's own table.
        let mid: Vec<Frequency> = config
            .clusters
            .iter()
            .map(|c| c.dvfs.opp(c.dvfs.len() / 2).frequency)
            .collect();
        let last = ClusterId::new(config.clusters.len() - 1);
        let mut board = Board::new(config, 3);
        for (c, &f) in mid.iter().enumerate() {
            board
                .set_cluster_frequency(ClusterId::new(c), f)
                .expect("own table entry");
        }
        // Endless tasks on every enabled core: the steady-state browsing +
        // co-runner shape, with nobody ever finishing (finish events would
        // not allocate either, but endless tasks keep the workload steady).
        board
            .assign(0, Box::new(LoopTask::compute_bound("main", 0.9)))
            .expect("free");
        board
            .assign(1, Box::new(LoopTask::compute_bound("aux", 0.5)))
            .expect("free");
        board
            .assign(
                2,
                Box::new(LoopTask::new("hog", PhaseProfile::streaming(40.0))),
            )
            .expect("free");
        // On a multi-cluster board the co-runner moves to the last cluster,
        // so the counted window steps every cluster at once.
        board.migrate(2, last).expect("valid cluster");

        // Warm-up: lets the solver and scratch buffers grow to their final
        // sizes (first-use allocations are one-time and expected).
        board.step(SimDuration::from_millis(50));

        let before = allocations();
        board.step(SimDuration::from_secs(1));
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{name}: probe-off stepping must not allocate (got {} allocations over 1000 quanta)",
            after - before
        );

        // With a probe attached the per-quantum events (QuantumRetired,
        // PowerSample, ThermalSample) are plain-old-data and the ring is
        // preallocated, so steady stepping STILL must not allocate.
        let ring = dora_sim_core::probe::ProbeRing::shared(1 << 12);
        board.attach_probe(ring);
        let before = allocations();
        board.step(SimDuration::from_secs(1));
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{name}: probed steady stepping emits only plain-old-data events (got {} allocations)",
            after - before
        );

        // Sanity: the counter does observe this code path. TaskAssigned owns
        // the task's name, so assigning while a probe listens must allocate.
        board.clear_core(1).expect("in range");
        let before = allocations();
        board
            .assign(1, Box::new(LoopTask::compute_bound("late", 0.3)))
            .expect("free");
        let after = allocations();
        assert!(
            after > before,
            "{name}: assigning a task with a probe attached should allocate (event owns the name)"
        );
    }
}

/// Walks a fixed script of operating points, one per decision, and flags
/// each decision so the test can tell deciding steps from quiet ones.
#[derive(Debug)]
struct ScriptedGovernor {
    script: Vec<OperatingPoint>,
    next: usize,
    decided: bool,
}

impl Governor for ScriptedGovernor {
    fn name(&self) -> &str {
        "scripted"
    }

    fn decision_interval(&self) -> SimDuration {
        SimDuration::from_millis(20)
    }

    fn decide(&mut self, observation: &GovernorObservation) -> Frequency {
        self.decide_point(observation).frequency
    }

    fn decide_point(&mut self, _observation: &GovernorObservation) -> OperatingPoint {
        self.decided = true;
        let point = self.script[self.next % self.script.len()];
        self.next += 1;
        point
    }
}

/// A finite page load: a compute phase, then a memory-bound one.
fn page_task() -> Box<PhasedTask> {
    Box::new(PhasedTask::new(
        "page",
        vec![
            (2e7, PhaseProfile::compute_bound()),
            (2e7, PhaseProfile::streaming(20.0)),
        ],
    ))
}

/// What one run of the governed loop did.
#[derive(Debug, Default)]
struct Window {
    decisions: usize,
    quiet_steps: usize,
    migrations: usize,
    finishes: usize,
    /// The first step that allocated without a decision: (quantum,
    /// allocations).
    leak: Option<(usize, usize)>,
}

/// Steps the governed loop `quanta` times, one quantum per call,
/// counting each call's allocations. A finished page task is replaced
/// between steps, outside the counted calls, as a browsing session
/// loads its next page.
fn governed_window(
    board: &mut Board,
    governed: &mut GovernedLoop,
    governor: &mut ScriptedGovernor,
    quanta: usize,
) -> Window {
    let mut window = Window::default();
    for quantum in 0..quanta {
        let cluster = board.cluster_of(BROWSER_MAIN_CORE);
        governor.decided = false;
        let before = allocations();
        governed.step(board, governor);
        let allocated = allocations() - before;
        if governor.decided {
            window.decisions += 1;
        } else {
            window.quiet_steps += 1;
            if allocated > 0 && window.leak.is_none() {
                window.leak = Some((quantum, allocated));
            }
        }
        if board.cluster_of(BROWSER_MAIN_CORE) != cluster {
            window.migrations += 1;
        }
        if board.task_finished(BROWSER_MAIN_CORE) {
            window.finishes += 1;
            board.clear_core(BROWSER_MAIN_CORE).expect("in range");
            board
                .assign(BROWSER_MAIN_CORE, page_task())
                .expect("just cleared");
        }
    }
    window
}

/// The governed loop on every registered profile: a scripted governor
/// walks low, middle and top DVFS steps of every cluster in turn, so on
/// big.LITTLE each decision migrates the browser cores. Page tasks
/// finish and are replaced inside the counted window. Only the quanta on
/// which the governor decides may allocate (the observation it reads).
#[test]
fn governed_loop_steps_without_allocating_between_decisions() {
    for name in SocProfile::names() {
        let config = SocProfile::by_name(name)
            .expect("registered")
            .board_config();
        let mut script = Vec::new();
        for step in 0..3 {
            for (c, cluster) in config.clusters.iter().enumerate() {
                let last = cluster.dvfs.len() - 1;
                let index = [0, last / 2, last][step];
                script.push(OperatingPoint {
                    cluster: ClusterId::new(c),
                    frequency: cluster.dvfs.opp(index).frequency,
                });
            }
        }
        let multi_cluster = config.clusters.len() > 1;
        let mut board = Board::new(config, 11);
        board.assign(BROWSER_MAIN_CORE, page_task()).expect("free");
        board
            .assign(
                BROWSER_AUX_CORE,
                Box::new(LoopTask::compute_bound("aux", 0.5)),
            )
            .expect("free");
        board
            .assign(
                CORUN_CORE,
                Box::new(LoopTask::new("hog", PhaseProfile::streaming(40.0))),
            )
            .expect("free");
        let mut governor = ScriptedGovernor {
            script,
            next: 0,
            decided: false,
        };
        let mut governed = GovernedLoop::new(&board, &governor);

        // Warm-up: every scripted point once, so the board's buffers
        // reach their final sizes (first-use growth is expected).
        governed_window(&mut board, &mut governed, &mut governor, 500);

        let switches = board.switch_count();
        let window = governed_window(&mut board, &mut governed, &mut governor, 2_000);
        assert_eq!(
            window.leak, None,
            "{name}: a step without a decision allocated (quantum, allocations)"
        );
        assert!(window.decisions >= 50, "{name}: {window:?}");
        assert!(window.quiet_steps >= 1_000, "{name}: {window:?}");
        assert!(window.finishes >= 1, "{name}: no page finished: {window:?}");
        assert!(
            board.switch_count() > switches,
            "{name}: the script must switch DVFS steps"
        );
        if multi_cluster {
            assert!(
                window.migrations >= 1,
                "{name}: the script must migrate: {window:?}"
            );
        }
    }
}
