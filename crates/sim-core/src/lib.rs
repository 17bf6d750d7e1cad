//! # dora-sim-core
//!
//! Deterministic simulation kernel underpinning the DORA reproduction.
//!
//! The DORA paper evaluates its frequency governor on a physical Google
//! Nexus 5. This workspace replaces the phone with a software model, and
//! everything in that model bottoms out on three primitives provided here:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time
//!   with saturating arithmetic, so the timing model can never silently
//!   wrap.
//! * [`Rng`] — a seedable `xoshiro256**` generator. Every stochastic choice
//!   in the simulator draws from one of these, which makes whole campaigns
//!   reproducible from a single `u64` seed.
//! * [`stats`] — streaming statistics (Welford moments, quantile sketches,
//!   time-weighted averages) used by performance counters and by the
//!   experiment harness.
//!
//! Observation rides on the typed [`probe`] bus: simulators emit
//! [`probe::ProbeEvent`]s lazily (zero cost with no probe attached) and
//! consumers attach [`probe::Probe`] sinks, such as the bounded
//! [`probe::ProbeRing`].
//!
//! # Example
//!
//! ```
//! use dora_sim_core::{Rng, SimDuration, SimTime, stats::Running};
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let mut acc = Running::new();
//! let mut now = SimTime::ZERO;
//! for _ in 0..1000 {
//!     now += SimDuration::from_micros(100);
//!     acc.push(rng.f64());
//! }
//! assert_eq!(now, SimTime::from_millis(100));
//! assert!((acc.mean() - 0.5).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod rng;
mod time;

pub mod probe;
pub mod sketch;
pub mod stats;
pub mod units;

pub use rng::Rng;
pub use time::{SimDuration, SimTime};
