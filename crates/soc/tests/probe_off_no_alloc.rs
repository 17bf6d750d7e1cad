//! The zero-cost-observation contract, asserted with a real allocator.
//!
//! The old string trace ring built a `format!` message on every quantum
//! retire whether tracing was on or not. The probe bus's `emit_with`
//! builds events lazily, so with no probe attached a warmed board must
//! step without touching the allocator at all. This test installs a
//! counting wrapper around the system allocator and holds the stepping
//! hot path to exactly zero allocations.

#![allow(
    unsafe_code,
    reason = "counting allocations means implementing the unsafe `GlobalAlloc` trait"
)]

use dora_sim_core::SimDuration;
use dora_soc::board::Board;
use dora_soc::task::{LoopTask, PhaseProfile};
use dora_soc::{Frequency, SocProfile};
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

#[test]
fn warmed_board_steps_without_allocating_when_no_probe_listens() {
    let mut board = Board::new(SocProfile::msm8974().board_config(), 3);
    board
        .set_frequency(Frequency::from_mhz(1497.6))
        .expect("in table");
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

    // Warm-up: lets the solver and scratch buffers grow to their final
    // sizes (first-use allocations are one-time and expected).
    board.step(SimDuration::from_millis(50));

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    board.step(SimDuration::from_secs(1));
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "probe-off stepping must not allocate (got {} allocations over 1000 quanta)",
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
        "probed steady stepping emits only plain-old-data events (got {} allocations)",
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
        "assigning a task with a probe attached should allocate (event owns the name)"
    );
}
