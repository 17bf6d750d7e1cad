//! The allocation budget of a DORA decision, asserted with a real
//! allocator.
//!
//! Algorithm 1 runs every 100 ms on the phone. Predicting a candidate must
//! not touch the heap, and a whole decision may allocate only the curve it
//! returns. This test installs a counting wrapper around the system
//! allocator and holds the prediction paths to zero allocations and
//! `select_frequency` to exactly one.

#![allow(
    unsafe_code,
    reason = "counting allocations means implementing the unsafe `GlobalAlloc` trait"
)]
// Test code asserts invariants directly; the panic ratchet covers libraries.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dora::models::{DoraModels, FrequencyEncoding, PiecewiseSurface, PredictorInputs};
use dora::select_frequency;
use dora_browser::PageFeatures;
use dora_modeling::leakage::Eq5Params;
use dora_modeling::surface::{FittedSurface, ResponseSurface, SurfaceKind};
use dora_sim_core::units::{Celsius, Mpki, Seconds, Utilization};
use dora_soc::DvfsTable;
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

/// Heap allocations made while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

fn page() -> PageFeatures {
    PageFeatures::new(2100, 1300, 620, 680, 590).expect("valid")
}

/// Fits a nine-input surface of `kind` to `T = 2.2/f + 0.05·mpki`,
/// presenting X7/X8 in `encoding`.
fn fit(kind: SurfaceKind, encoding: FrequencyEncoding) -> FittedSurface {
    let dvfs = DvfsTable::default();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for f in dvfs.frequencies() {
        for mpki in [0.0f64, 2.0, 5.0, 10.0, 20.0] {
            for util in [0.0f64, 0.5, 1.0] {
                let inputs = PredictorInputs::for_frequency(
                    page(),
                    f,
                    &dvfs,
                    Mpki::clamped(mpki),
                    Utilization::clamped(util),
                );
                let mut x = inputs.to_vector();
                encoding.encode(&mut x);
                xs.push(x);
                ys.push(2.2 / f.as_ghz() + 0.05 * mpki);
            }
        }
    }
    ResponseSurface::new(kind, 9)
        .fit(&xs, &ys)
        .expect("well posed")
}

/// The paper's model shapes, with the low and high tiers carrying their
/// own fits and the middle one falling back to the global fit.
fn models() -> DoraModels {
    let time = fit(SurfaceKind::Interaction, FrequencyEncoding::Period);
    let power = fit(SurfaceKind::Linear, FrequencyEncoding::Natural);
    DoraModels {
        load_time: PiecewiseSurface::new(
            [Some(time.clone()), None, Some(time.clone())],
            time,
            FrequencyEncoding::Period,
        ),
        power: PiecewiseSurface::new(
            [Some(power.clone()), None, Some(power.clone())],
            power,
            FrequencyEncoding::Natural,
        ),
        leakage: Eq5Params {
            k1: 0.22,
            alpha: 800.0,
            beta: -4300.0,
            k2: 0.05,
            gamma: 2.0,
            delta: -2.0,
        },
        dvfs: DvfsTable::default(),
    }
}

#[test]
fn predictions_allocate_nothing_and_a_decision_only_its_curve() {
    let m = models();
    let inputs = PredictorInputs::for_frequency(
        page(),
        m.dvfs.max_frequency(),
        &m.dvfs,
        Mpki::clamped(4.0),
        Utilization::clamped(0.6),
    );
    let x = inputs.to_vector();
    let warm = Celsius::new(45.0);
    let decide = || {
        select_frequency(
            &m,
            page(),
            Seconds::new(3.0),
            Mpki::clamped(4.0),
            Utilization::clamped(0.6),
            warm,
            true,
        )
    };
    // Warm-up: first-use allocations (none are expected, but the budget
    // is about the steady state).
    let _ = decide();

    let (n, _) = allocations(|| m.load_time.global_fit().predict(&x));
    assert_eq!(n, 0, "FittedSurface::predict allocated {n} times");
    let (n, _) = allocations(|| m.predict_load_time(&inputs));
    assert_eq!(n, 0, "predict_load_time allocated {n} times");
    for include_leakage in [false, true] {
        let (n, _) = allocations(|| m.predict_total_power(&inputs, warm, include_leakage));
        assert_eq!(n, 0, "predict_total_power allocated {n} times");
    }
    let (n, decision) = allocations(decide);
    assert_eq!(
        n, 1,
        "select_frequency allocated {n} times, not just its curve"
    );
    assert_eq!(decision.curve.len(), m.dvfs.len());

    // Sanity: the counter does observe allocations on this thread.
    let (n, _) = allocations(|| inputs.to_vector());
    assert_eq!(n, 1, "the counting allocator must see a Vec");
}
