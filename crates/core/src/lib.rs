//! # dora
//!
//! The paper's contribution: **D**ynamic quality **O**f service,
//! memo**R**y interference-**A**ware frequency governor.
//!
//! DORA maximizes smartphone energy efficiency (performance-per-watt,
//! `PPW = 1/(T·P)`) subject to a web-page load-time deadline, in the
//! presence of memory interference from co-scheduled applications. Every
//! decision interval (100 ms) it:
//!
//! 1. samples `perf`-style counters — shared-L2 MPKI, co-runner core
//!    utilization — and the die temperature;
//! 2. for **every** DVFS setting `F`, predicts the page load time `T(F)`
//!    with a statically-trained interaction response surface over the
//!    Table I variables, and the device power `P(F)` with a linear surface
//!    plus the Eq. 5 leakage model evaluated at the current temperature;
//! 3. applies Algorithm 1: among settings whose predicted `T(F)` meets the
//!    QoS target, pick the one maximizing predicted PPW; if none is
//!    feasible, pin the maximum frequency (load as fast as possible);
//! 4. programs the chosen frequency only if it differs from the current
//!    one (switching costs real time — Section V-H).
//!
//! Module map:
//!
//! * [`models`] — the trained model bundle ([`models::DoraModels`]):
//!   piecewise-per-bus-tier response surfaces for load time and dynamic
//!   power, plus fitted Eq. 5 leakage parameters.
//! * [`algorithm`] — Algorithm 1 over the (cluster, frequency) operating
//!   points of the SoC ([`algorithm::select_operating_point`]), returning
//!   the full predicted curve for inspection, with migration cost inside
//!   the decision model. A homogeneous SoC is the one-cluster case;
//!   [`algorithm::select_frequency`] is that case over a bundle's own DVFS
//!   table.
//! * [`governor`] — [`governor::DoraGovernor`], implementing the shared
//!   [`dora_governors::Governor`] trait; config flags produce the paper's
//!   `DORA_no_lkg` ablation (Fig. 10) and its `DL`/`EE` comparison
//!   governors (Section V-C).
//!   [`governor::DoraGovernor::new`] governs one cluster;
//!   [`governor::DoraGovernor::from_profile`] one model per cluster of a
//!   board profile, migrating the browser via `decide_point`.
//! * [`trainer`] — the offline training pipeline (Section IV-C: "over 300
//!   measurements … used to determine the coefficients").
//! * [`persist`] — versioned text serialization of the trained bundle,
//!   so models trained offline can ship to the device that governs with
//!   them.
//! * [`units`] (re-exported from `dora-sim-core`) — the typed physical
//!   quantities ([`units::Seconds`], [`units::Watts`], [`units::Celsius`],
//!   [`units::Mpki`], [`units::Utilization`], [`units::Ppw`]) every public
//!   API here speaks in place of bare `f64`s.
//!
//! # Example
//!
//! See `examples/quickstart.rs` at the workspace root for the end-to-end
//! train-then-govern flow; unit-level examples live on each type.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "tests compare quantities against plain-number references"
    )
)]

pub use dora_sim_core::units;

pub mod algorithm;
pub mod governor;
pub mod models;
pub mod persist;
pub mod trainer;

pub use algorithm::{
    select_frequency, select_operating_point, ClusterModel, OperatingPointDecision,
    PredictedOperatingPoint,
};
pub use governor::{DoraConfig, DoraGovernor, DoraPolicy, HeterogeneousDoraGovernor};
pub use models::{DoraModels, FrequencyEncoding, PredictorInputs};
pub use persist::{from_text, to_text, PersistError};
pub use trainer::{TrainerConfig, TrainingObservation};
