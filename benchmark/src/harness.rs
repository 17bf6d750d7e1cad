//! Shared run machinery: options, repeated set-up, timed repetitions,
//! failure accounting, and the metric sets every workload reports.

use crate::clock;
use crate::json;
use crate::probe::{self, Kernel, Reading, Window};
use crate::session::Driver;
use crate::stats;
use crate::trace::Kind;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Executor width for fleet and training work. A run keeps to one CPU,
/// which its probe shares (see [`crate::probe`]), so the executor runs
/// inline.
pub const JOBS: usize = 1;

/// Set-ups a run makes at least, back to back; a cheap set-up repeats
/// until the set-ups have taken [`SETUP_MIN_S`] in all. `setup_s` is their
/// median, so the first one's cold caches or one slow moment of the host
/// cannot set it, and a set-up of a fraction of a millisecond is not left
/// to three samples.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

/// Timed repetitions a run makes at least, however long they take. A
/// repetition of the longest workloads fills most of `run_seconds` alone;
/// the probe corrects it over its whole length, not per repetition.
const MIN_TIMED_REPS: usize = 1;

/// Timed repetitions of a smoke run: two, so repetition-to-repetition
/// checks run.
const SMOKE_REPS: usize = 2;

/// How one workload run is parameterised. The run length is not an
/// option: it is `run_seconds` of `BENCHMARK.json`, the same for every
/// commit compared.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
    /// Tiny sizes, one set-up, two timed repetitions.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A timing only one workload has (the per-call decision latency), so it
/// cannot be a declared metric, which every workload must report. It is
/// printed, stored in `runs.jsonl` with its direction and bound, and
/// given a verdict by `compare` like a declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Detail {
    /// The value, its name and unit.
    pub metric: Metric,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent median.
    pub bound: f64,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (session×policy loads, decisions, training
    /// points).
    pub attempted: u64,
    /// Operations that failed: an error, a panic, or an output that
    /// differs from its reference.
    pub failed: u64,
    /// Named correctness gates and whether each held.
    pub gates: Vec<(String, bool)>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Workload-specific timings beside the metrics.
    pub details: Vec<Detail>,
    /// Deterministic outputs (digests, simulated outcomes), compared
    /// exactly between runs of the same seed.
    pub checks: Vec<(&'static str, String)>,
    /// Fingerprint of the generated inputs.
    pub inputs: u64,
    /// Human-readable detail printed before the result line.
    pub notes: Vec<String>,
    /// The trace file of a traced run.
    pub trace: Option<String>,
}

impl Outcome {
    /// Whether every operation succeeded and every gate held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.gates.iter().all(|(_, ok)| *ok)
    }

    /// Records a gate; a failed gate also fails `ops` operations.
    pub fn gate(&mut self, name: impl Into<String>, ok: bool, ops: u64) {
        let name = name.into();
        if !ok {
            self.failed += ops;
            self.notes.push(format!("GATE FAILED: {name}"));
        }
        self.gates.push((name, ok));
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a workload-specific timing with its direction and bound.
    pub fn detail(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        better: &'static str,
        bound: f64,
    ) {
        self.details.push(Detail {
            metric: Metric { name, value, unit },
            better,
            bound,
        });
    }

    /// Adds a deterministic check value.
    pub fn check(&mut self, name: &'static str, value: impl ToString) {
        self.checks.push((name, value.to_string()));
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The metrics object of the result line.
    pub fn metrics_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{}: {{{}}}", json::quote(m.name), value_json(m)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The details as a JSON object, each with its direction and bound.
    pub fn details_json(&self) -> String {
        let body: Vec<String> = self
            .details
            .iter()
            .map(|d| {
                format!(
                    "{}: {{{}, \"better\": {}, \"bound\": {}}}",
                    json::quote(d.metric.name),
                    value_json(&d.metric),
                    json::quote(d.better),
                    json::number(d.bound)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The checks as a JSON object of strings.
    pub fn checks_json(&self) -> String {
        let body: Vec<String> = self
            .checks
            .iter()
            .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The `"value"` and `"unit"` members of a metric's JSON object.
fn value_json(m: &Metric) -> String {
    format!(
        "\"value\": {}, \"unit\": {}",
        json::number(m.value),
        json::quote(m.unit)
    )
}

/// Runs `f`, turning a panic into an error message.
///
/// # Errors
///
/// The panic payload when `f` panics.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// One timed window read against the host-speed probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Host (wall-clock) seconds.
    pub host_s: f64,
    /// Nominal seconds: host seconds less the probe's own runs, over the
    /// host's slowdown.
    pub nominal_s: f64,
    /// The host's slowdown over the window as the reading sees it (1 on
    /// an unloaded host).
    pub slowdown: f64,
}

/// How every set-up is read: it samples, simulates or trains, so against
/// the board-like kernel, in full.
const SETUP_READING: Reading = Reading {
    kernel: Kernel::Board,
    exponent: 1.0,
};

impl Timed {
    /// Reads `w` against the process's probe.
    pub fn of(w: Window, reading: Reading) -> Timed {
        let (slowdown, busy) = probe::global().slowdown(w, reading.kernel);
        let slowdown = slowdown.powf(reading.exponent);
        Timed {
            host_s: w.host_s(),
            nominal_s: (w.host_s() - busy).max(1e-9) / slowdown,
            slowdown,
        }
    }
}

/// Runs the workload's set-up back to back, [`SETUP_REPEATS`] times and
/// for at least [`SETUP_MIN_S`] (once in smoke mode and in the traced run,
/// which reports no `setup_s`), and returns the last result with every
/// set-up's timing, read as [`SETUP_READING`]. Each result is dropped
/// before the next set-up starts, so peak memory holds one set-up's worth.
///
/// # Errors
///
/// The set-up's failure (an error or a panic).
pub fn timed_setup<T>(
    opts: &Options,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<Timed>), String> {
    let (repeats, min_s) = if opts.smoke || opts.trace {
        (1, 0.0)
    } else {
        (SETUP_REPEATS, SETUP_MIN_S)
    };
    let probe = probe::global();
    let mut windows: Vec<Window> = Vec::new();
    let mut last = None;
    while windows.len() < repeats || windows.iter().map(Window::host_s).sum::<f64>() < min_s {
        drop(last.take());
        let (value, window) = probe.timed(|| guarded(&mut setup).and_then(|r| r));
        last = Some(value?);
        windows.push(window);
    }
    let value = last.ok_or("no set-up ran")?;
    let timings = windows.into_iter().map(|w| Timed::of(w, SETUP_READING));
    Ok((value, timings.collect()))
}

/// One repetition's accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Operations the repetition attempted.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The window of the timed work itself when the repetition also did
    /// untimed preparation; `None` times the whole repetition.
    pub busy: Option<Window>,
}

/// One timed repetition's throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Operations per nominal second.
    pub nominal: f64,
    /// Operations per host second.
    pub host: f64,
    /// The host's slowdown while it ran.
    pub slowdown: f64,
}

/// Runs timed repetitions until `run_seconds` of `BENCHMARK.json` would be
/// exceeded in host time (at least [`MIN_TIMED_REPS`]; exactly
/// [`SMOKE_REPS`] in smoke mode), and returns each one's throughput, read
/// as `reading`. Every repetition's operations are added to
/// `outcome`. The set-up has already warmed the code up.
///
/// # Errors
///
/// An unreadable `BENCHMARK.json`.
pub fn measure(
    opts: &Options,
    outcome: &mut Outcome,
    reading: Reading,
    mut rep: impl FnMut(&mut Outcome) -> Rep,
) -> Result<Vec<Throughput>, String> {
    let run_seconds = crate::spec()?.run_seconds;
    let probe = probe::global();
    let mut timed: Vec<(u64, Window)> = Vec::new();
    let mut spent = 0.0;
    loop {
        let done = timed.len();
        let enough = if opts.smoke {
            done >= SMOKE_REPS
        } else {
            done >= MIN_TIMED_REPS && spent + spent / done as f64 > run_seconds
        };
        if enough {
            break;
        }
        let (r, window) = probe.timed(|| rep(outcome));
        spent += window.host_s();
        outcome.attempted += r.ops;
        outcome.failed += r.failed;
        timed.push((r.ops, r.busy.unwrap_or(window)));
    }
    Ok(timed
        .into_iter()
        .map(|(ops, w)| {
            let t = Timed::of(w, reading);
            Throughput {
                nominal: ops as f64 / t.nominal_s,
                host: ops as f64 / t.host_s.max(1e-9),
                slowdown: t.slowdown,
            }
        })
        .collect())
}

/// Peak resident set of this process (`VmHWM`) in megabytes of 2^20 bytes.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Adds the end-to-end metrics every workload reports from the timed
/// repetitions' throughputs and the set-ups' timings; `op` names the
/// workload's operation for the detail lines, which also give the host
/// (wall-clock) figures and the host's slowdown.
///
/// # Errors
///
/// When peak memory cannot be read.
pub fn end_to_end(
    outcome: &mut Outcome,
    reps: &[Throughput],
    setups: &[Timed],
    op: &str,
) -> Result<(), String> {
    let describe = |values: Vec<f64>| {
        let [q1, q2, q3] = stats::quartiles(&values);
        let mut line = format!(
            "median {q2:.6}, p25 {q1:.6}, p75 {q3:.6}, n {}",
            values.len()
        );
        // A cheap set-up repeats hundreds of times; list only short series.
        if values.len() <= 16 {
            let all: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            line += &format!(" [{}]", all.join(" "));
        }
        line
    };
    let nominal: Vec<f64> = reps.iter().map(|r| r.nominal).collect();
    let setup_s: Vec<f64> = setups.iter().map(|t| t.nominal_s).collect();
    outcome.notes.push(format!(
        "ops_per_s ({op} per nominal s): {}",
        describe(nominal.clone())
    ));
    outcome.notes.push(format!(
        "  per host s: {}",
        describe(reps.iter().map(|r| r.host).collect())
    ));
    outcome.notes.push(format!(
        "  host slowdown: {}",
        describe(reps.iter().map(|r| r.slowdown).collect())
    ));
    outcome
        .notes
        .push(format!("setup_s (nominal): {}", describe(setup_s.clone())));
    outcome.notes.push(format!(
        "  host s: {}",
        describe(setups.iter().map(|t| t.host_s).collect())
    ));
    for kernel in Kernel::ALL {
        let runs_us: Vec<f64> = probe::global()
            .run_seconds(kernel)
            .iter()
            .map(|s| s * 1e6)
            .collect();
        outcome.notes.push(format!(
            "probe {} kernel (nominal {:.1} us) run us: fastest {:.1}, {}",
            kernel.name(),
            kernel.nominal_s() * 1e6,
            runs_us.iter().copied().fold(f64::INFINITY, f64::min),
            describe(runs_us)
        ));
    }
    outcome.metric("ops_per_s", stats::median(&nominal), "1/s");
    outcome.metric("setup_s", stats::median(&setup_s), "s");
    outcome.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Adds the per-layer metrics of a traced run. `overhead_pct` compares
/// the same driver with spans on and off.
pub fn per_layer(outcome: &mut Outcome, d: &Driver, overhead_pct: f64) {
    let t = &d.tracer;
    let wall = t.root_ns() as f64;
    let busy = |layer: &str| ratio(t.layer_self_ns(layer) as f64, wall) * 100.0;
    let count = |kind: Kind| t.calls(kind) as f64;
    let sim_s = d.tally.warmup_sim_s + d.tally.load_sim_s + d.tally.soak_sim_s;
    let step_host_s = t.total_ns(Kind::BoardStep) as f64 / 1e9;

    let metrics: [(&'static str, f64, &'static str); 39] = [
        ("soc.board.quanta", count(Kind::BoardStep), "count"),
        (
            "soc.board.step_ns.p50",
            t.percentile_ns(Kind::BoardStep, 0.5),
            "ns",
        ),
        (
            "soc.board.step_ns.p99",
            t.percentile_ns(Kind::BoardStep, 0.99),
            "ns",
        ),
        ("soc.board.busy_pct", busy("soc.board"), "%"),
        (
            "soc.board.sim_s_per_host_s",
            ratio(sim_s, step_host_s),
            "s/s",
        ),
        (
            "soc.snapshot.captures",
            count(Kind::SnapshotCapture),
            "count",
        ),
        (
            "soc.snapshot.restores",
            count(Kind::SnapshotRestore),
            "count",
        ),
        ("soc.snapshot.busy_pct", busy("soc.snapshot"), "%"),
        (
            "soc.counters.delta_ns.p50",
            t.percentile_ns(Kind::CountersDelta, 0.5),
            "ns",
        ),
        ("soc.counters.busy_pct", busy("soc.counters"), "%"),
        ("governors.decisions", count(Kind::GovernorsDecide), "count"),
        (
            "governors.decide_ns.p50",
            t.percentile_ns(Kind::GovernorsDecide, 0.5),
            "ns",
        ),
        ("governors.busy_pct", busy("governors"), "%"),
        ("core.governor.decisions", count(Kind::DoraDecide), "count"),
        ("core.governor.busy_pct", busy("core.governor"), "%"),
        (
            "core.algorithm.selections",
            d.tally.selections as f64,
            "count",
        ),
        (
            "core.algorithm.candidates",
            d.tally.candidates as f64,
            "count",
        ),
        (
            "core.algorithm.infeasible_ratio",
            ratio(d.tally.infeasible as f64, d.tally.selections as f64),
            "ratio",
        ),
        (
            "core.algorithm.feasible_candidate_ratio",
            ratio(
                d.tally.feasible_candidates as f64,
                d.tally.candidates as f64,
            ),
            "ratio",
        ),
        ("core.algorithm.busy_pct", busy("core.algorithm"), "%"),
        (
            "core.models.predictions",
            count(Kind::ModelsPredict),
            "count",
        ),
        ("core.models.busy_pct", busy("core.models"), "%"),
        (
            "browser.engine.spawn_ns.p50",
            t.percentile_ns(Kind::BrowserSpawn, 0.5),
            "ns",
        ),
        (
            "coworkloads.spawn_ns.p50",
            t.percentile_ns(Kind::CoworkloadSpawn, 0.5),
            "ns",
        ),
        ("campaign.runner.loads", count(Kind::RunnerLoad), "count"),
        (
            "campaign.runner.load_ms.p50",
            t.percentile_ns(Kind::RunnerLoad, 0.5) / 1e6,
            "ms",
        ),
        (
            "campaign.runner.load_ms.p95",
            t.percentile_ns(Kind::RunnerLoad, 0.95) / 1e6,
            "ms",
        ),
        (
            "campaign.runner.warmup_sim_share",
            ratio(
                d.tally.warmup_sim_s,
                d.tally.warmup_sim_s + d.tally.load_sim_s,
            ),
            "ratio",
        ),
        ("campaign.runner.busy_pct", busy("campaign.runner"), "%"),
        (
            "campaign.fleet.sessions",
            count(Kind::FleetSession),
            "count",
        ),
        ("campaign.fleet.busy_pct", busy("campaign.fleet"), "%"),
        (
            "campaign.training.points",
            count(Kind::TrainingPoint),
            "count",
        ),
        (
            "campaign.training.soaks",
            count(Kind::TrainingSoak),
            "count",
        ),
        ("campaign.training.busy_pct", busy("campaign.training"), "%"),
        ("campaign.replay.busy_pct", busy("campaign.replay"), "%"),
        ("core.trainer.busy_pct", busy("core.trainer"), "%"),
        ("modeling.leakage.busy_pct", busy("modeling.leakage"), "%"),
        ("trace.overhead_pct", overhead_pct, "%"),
        ("trace.spans", t.span_count() as f64, "count"),
    ];
    for (name, value, unit) in metrics {
        outcome.metric(name, value, unit);
    }
    for kind in Kind::ALL {
        let calls = t.calls(kind);
        if calls > 0 {
            outcome.notes.push(format!(
                "span {:<24} calls {:>10}  p50 {:>12.0} ns  p99 {:>12.0} ns",
                kind.name(),
                calls,
                t.percentile_ns(kind, 0.5),
                t.percentile_ns(kind, 0.99)
            ));
        }
    }
}

/// Tracing overhead in percent: the same `work` timed with spans off,
/// then on.
pub fn tracing_overhead_pct<R>(mut work: impl FnMut(&mut Driver) -> R) -> f64 {
    let (_, off_s) = clock::timed(|| guarded(|| work(&mut Driver::new(false))));
    let (_, on_s) = clock::timed(|| guarded(|| work(&mut Driver::new(true))));
    (ratio(on_s, off_s) - 1.0) * 100.0
}
