//! The zero-cost-observation contract, asserted with a real allocator.
//!
//! The old string trace ring built a `format!` message on every quantum
//! retire whether tracing was on or not. The probe bus's `emit_with`
//! builds events lazily, so with no probe attached a warmed board must
//! step without touching the allocator at all. This test installs a
//! counting wrapper around the system allocator and holds the stepping
//! hot path to exactly zero allocations on every registered SoC profile,
//! with frequencies taken from each board's own cluster tables.

#![allow(
    unsafe_code,
    reason = "counting allocations means implementing the unsafe `GlobalAlloc` trait"
)]

use dora_sim_core::SimDuration;
use dora_soc::board::Board;
use dora_soc::task::{LoopTask, PhaseProfile};
use dora_soc::{ClusterId, Frequency, SocProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every heap allocation made through the global allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
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

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        board.step(SimDuration::from_secs(1));
        let after = ALLOCATIONS.load(Ordering::SeqCst);
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
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        board.step(SimDuration::from_secs(1));
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "{name}: probed steady stepping emits only plain-old-data events (got {} allocations)",
            after - before
        );

        // Sanity: the counter does observe this code path. TaskAssigned owns
        // the task's name, so assigning while a probe listens must allocate.
        board.clear_core(1).expect("in range");
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        board
            .assign(1, Box::new(LoopTask::compute_bound("late", 0.3)))
            .expect("free");
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert!(
            after > before,
            "{name}: assigning a task with a probe attached should allocate (event owns the name)"
        );
    }
}
