//! # dora-benchmark
//!
//! The repository's benchmark: four workloads that load different layers
//! of the DORA reproduction, measured end to end with tracing off and per
//! layer in a separate traced run, with every output checked. It builds
//! against the repository's crates and calls only their public API; see
//! `README.md` for the workloads, metrics and how to compare two commits.

// The one exception is the CPU-affinity call in `probe`.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
pub mod compare;
pub mod decide;
pub mod fleet;
pub mod harness;
pub mod json;
pub mod probe;
pub mod session;
pub mod stats;
pub mod trace;
pub mod train;

use harness::{Options, Outcome};

/// The benchmark definition (`BENCHMARK.json` at the repository root):
/// metric names, units, directions and bounds.
pub const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Every workload, in reporting order.
pub const WORKLOADS: [&str; 4] = [
    fleet::STOCK.name,
    fleet::DORA_BIGLITTLE.name,
    decide::NAME,
    train::NAME,
];

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or a set-up failure (no result can be
/// reported).
pub fn run_workload(name: &str, opts: &Options) -> Result<Outcome, String> {
    match name {
        n if n == fleet::STOCK.name => fleet::run(&fleet::STOCK, opts),
        n if n == fleet::DORA_BIGLITTLE.name => fleet::run(&fleet::DORA_BIGLITTLE, opts),
        decide::NAME => decide::run(opts),
        train::NAME => train::run(opts),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {} or all",
            WORKLOADS.join(", ")
        )),
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"` for end-to-end metrics.
    pub better: Option<String>,
    /// Allowed worsening as a share of the parent median.
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported with tracing off).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported by the traced run).
    pub per_layer: Vec<MetricSpec>,
}

/// Parses [`SPEC`].
///
/// # Errors
///
/// Malformed JSON or a missing field.
pub fn spec() -> Result<Spec, String> {
    let v = json::parse(SPEC)?;
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        v.get(key)
            .and_then(json::Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no {key}"))?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: m
                        .get("name")
                        .and_then(json::Value::as_str)
                        .ok_or("metric without name")?
                        .to_string(),
                    unit: m
                        .get("unit")
                        .and_then(json::Value::as_str)
                        .ok_or("metric without unit")?
                        .to_string(),
                    better: m
                        .get("better")
                        .and_then(json::Value::as_str)
                        .map(String::from),
                    bound: m.get("bound").and_then(json::Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: v
            .get("run_seconds")
            .and_then(json::Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        workloads: v
            .get("workloads")
            .and_then(json::Value::as_array)
            .ok_or("BENCHMARK.json: no workloads")?
            .iter()
            .filter_map(|w| {
                w.get("name")
                    .and_then(json::Value::as_str)
                    .map(String::from)
            })
            .collect(),
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}
