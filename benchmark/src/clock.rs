//! The harness's only wall-clock read.
//!
//! The simulator runs on virtual time and the repository's clippy
//! configuration forbids `Instant::now` everywhere else; every host-time
//! measurement in the benchmark goes through this one sanctioned helper.

use std::time::Instant;

/// The current host instant.
#[allow(clippy::disallowed_methods)] // the benchmark's single sanctioned clock
pub fn now() -> Instant {
    Instant::now()
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}
