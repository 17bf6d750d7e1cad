//! Bench-side spans around calls into each layer's public functions.
//!
//! A span records `{op, id, parent, name, start, end}`; its self time is
//! its duration minus the time its child spans cover. Every span feeds an
//! exact per-name aggregate (calls, total and self nanoseconds) plus a
//! bounded uniform sample of durations for percentiles, so a traced run's
//! memory stays flat however many board quanta it steps; the first
//! [`RAW_SPAN_CAP`] raw spans are also kept and written out at exit.
//!
//! A disabled tracer runs the wrapped closure and nothing else, which is
//! what the tracing-overhead measurement compares against.

use crate::clock;
use crate::json;
use crate::stats::Reservoir;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept verbatim for the trace file.
const RAW_SPAN_CAP: usize = 100_000;

/// Durations kept per span kind for percentiles.
const SAMPLES_PER_KIND: usize = 32_768;

/// Every span the harness records, one per public call it wraps (or per
/// unit of benchmark work, for the root spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Board::new`.
    BoardNew,
    /// `Board::step` of one quantum.
    BoardStep,
    /// `Board::snapshot`.
    SnapshotCapture,
    /// `Board::restore`.
    SnapshotRestore,
    /// `CounterSet::snapshot` + `CounterSet::delta`.
    CountersDelta,
    /// `Governor::decide_point` of a heuristic (utilization/pinned) governor.
    GovernorsDecide,
    /// `Governor::decide_point` of a DORA governor.
    DoraDecide,
    /// `dora::select_frequency`.
    AlgorithmSelect,
    /// `PredictorInputs::for_frequency` + `predict_load_time` +
    /// `predict_total_power` for one candidate.
    ModelsPredict,
    /// `RenderEngine::spawn`.
    BrowserSpawn,
    /// `Kernel::spawn`.
    CoworkloadSpawn,
    /// One scenario run: thermal warm-up plus measured load.
    RunnerRun,
    /// The thermal warm-up of a scenario or archetype board.
    RunnerWarmup,
    /// One measured page load.
    RunnerLoad,
    /// One fleet archetype's warm-up and snapshot.
    FleetWarm,
    /// One fleet session: sampling, every policy's load, recording.
    FleetSession,
    /// `SessionSampler::sample`.
    FleetSample,
    /// `GovernorSheet::record`.
    FleetRecord,
    /// `GovernorSheet::merge`.
    FleetMerge,
    /// One pinned-frequency training point.
    TrainingPoint,
    /// One idle leakage soak.
    TrainingSoak,
    /// The replay of one recorded run's decisions.
    ReplayRun,
    /// `trainer::train`.
    TrainerTrain,
    /// `trainer::evaluate_models`.
    TrainerEvaluate,
    /// `leakage::fit_leakage`.
    LeakageFit,
}

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; 25] = [
        Kind::BoardNew,
        Kind::BoardStep,
        Kind::SnapshotCapture,
        Kind::SnapshotRestore,
        Kind::CountersDelta,
        Kind::GovernorsDecide,
        Kind::DoraDecide,
        Kind::AlgorithmSelect,
        Kind::ModelsPredict,
        Kind::BrowserSpawn,
        Kind::CoworkloadSpawn,
        Kind::RunnerRun,
        Kind::RunnerWarmup,
        Kind::RunnerLoad,
        Kind::FleetWarm,
        Kind::FleetSession,
        Kind::FleetSample,
        Kind::FleetRecord,
        Kind::FleetMerge,
        Kind::TrainingPoint,
        Kind::TrainingSoak,
        Kind::ReplayRun,
        Kind::TrainerTrain,
        Kind::TrainerEvaluate,
        Kind::LeakageFit,
    ];

    /// The span name: `<layer>.<operation>`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BoardNew => "soc.board.new",
            Kind::BoardStep => "soc.board.step",
            Kind::SnapshotCapture => "soc.snapshot.capture",
            Kind::SnapshotRestore => "soc.snapshot.restore",
            Kind::CountersDelta => "soc.counters.delta",
            Kind::GovernorsDecide => "governors.decide",
            Kind::DoraDecide => "core.governor.decide",
            Kind::AlgorithmSelect => "core.algorithm.select",
            Kind::ModelsPredict => "core.models.predict",
            Kind::BrowserSpawn => "browser.engine.spawn",
            Kind::CoworkloadSpawn => "coworkloads.spawn",
            Kind::RunnerRun => "campaign.runner.run",
            Kind::RunnerWarmup => "campaign.runner.warmup",
            Kind::RunnerLoad => "campaign.runner.load",
            Kind::FleetWarm => "campaign.fleet.warm",
            Kind::FleetSession => "campaign.fleet.session",
            Kind::FleetSample => "campaign.fleet.sample",
            Kind::FleetRecord => "campaign.fleet.record",
            Kind::FleetMerge => "campaign.fleet.merge",
            Kind::TrainingPoint => "campaign.training.point",
            Kind::TrainingSoak => "campaign.training.soak",
            Kind::ReplayRun => "campaign.replay.run",
            Kind::TrainerTrain => "core.trainer.train",
            Kind::TrainerEvaluate => "core.trainer.evaluate",
            Kind::LeakageFit => "modeling.leakage.fit",
        }
    }

    /// The layer the span belongs to: its name without the operation.
    pub fn layer(self) -> &'static str {
        let name = self.name();
        name.rsplit_once('.').map_or(name, |(layer, _)| layer)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    op: u64,
    id: u64,
    parent: u64,
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
}

/// An open span on the stack.
#[derive(Debug, Clone, Copy)]
struct Open {
    id: u64,
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
}

/// Exact per-kind totals plus a duration sample.
#[derive(Debug, Clone)]
struct Aggregate {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    durations: Reservoir,
}

/// The span recorder. Spans nest through [`Tracer::span`]; ids start at 1
/// and parent 0 marks a root span.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    next_id: u64,
    stack: Vec<Open>,
    aggregates: Vec<Aggregate>,
    raw: Vec<Span>,
    dropped: u64,
    root_ns: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Tracer {
        Tracer::new(true)
    }

    /// A tracer that only runs the wrapped code.
    pub fn disabled() -> Tracer {
        Tracer::new(false)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: clock::now(),
            op: 0,
            next_id: 1,
            stack: Vec::new(),
            aggregates: Kind::ALL
                .iter()
                .map(|_| Aggregate {
                    calls: 0,
                    total_ns: 0,
                    self_ns: 0,
                    durations: Reservoir::new(SAMPLES_PER_KIND),
                })
                .collect(),
            raw: Vec::new(),
            dropped: 0,
            root_ns: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the benchmark operation subsequent spans belong to.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(clock::now().duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span of `kind`.
    pub fn span<R>(&mut self, kind: Kind, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.begin(kind);
        let result = f(self);
        self.end();
        result
    }

    /// Opens a span of `kind`; the matching [`Tracer::end`] closes it.
    pub fn begin(&mut self, kind: Kind) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            kind,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let Some(open) = self.stack.pop() else {
            return;
        };
        let duration = end_ns.saturating_sub(open.start_ns);
        let parent = match self.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += duration;
                parent.id
            }
            None => {
                self.root_ns += duration;
                0
            }
        };
        let aggregate = &mut self.aggregates[open.kind.index()];
        aggregate.calls += 1;
        aggregate.total_ns += duration;
        aggregate.self_ns += duration.saturating_sub(open.child_ns);
        aggregate.durations.push(duration as f64);
        if self.raw.len() < RAW_SPAN_CAP {
            self.raw.push(Span {
                op: self.op,
                id: open.id,
                parent,
                kind: open.kind,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Spans of `kind` closed so far.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.aggregates[kind.index()].calls
    }

    /// Total nanoseconds inside spans of `kind`.
    pub fn total_ns(&self, kind: Kind) -> u64 {
        self.aggregates[kind.index()].total_ns
    }

    /// The `q`-quantile of `kind`'s durations, in nanoseconds.
    pub fn percentile_ns(&self, kind: Kind, q: f64) -> f64 {
        self.aggregates[kind.index()].durations.percentile(q)
    }

    /// Self nanoseconds summed over every span kind of `layer`.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        Kind::ALL
            .iter()
            .filter(|k| k.layer() == layer)
            .map(|k| self.aggregates[k.index()].self_ns)
            .sum()
    }

    /// Nanoseconds covered by root spans: the traced wall time.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Every span closed so far.
    pub fn span_count(&self) -> u64 {
        self.aggregates.iter().map(|a| a.calls).sum()
    }

    /// The trace file: per-kind aggregates and the retained raw spans.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"root_ns\": {},\n  \"dropped_spans\": {},\n  \"kinds\": [",
            json::quote(workload),
            self.root_ns,
            self.dropped
        );
        for (i, kind) in Kind::ALL.iter().enumerate() {
            let a = &self.aggregates[kind.index()];
            let _ = write!(
                out,
                "{}\n    {{\"name\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
                if i == 0 { "" } else { "," },
                json::quote(kind.name()),
                a.calls,
                a.total_ns,
                a.self_ns,
                json::number(a.durations.percentile(0.5)),
                json::number(a.durations.percentile(0.99))
            );
        }
        out.push_str("\n  ],\n  \"spans\": [");
        for (i, s) in self.raw.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"op_id\": {}, \"span_id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.op,
                s.id,
                s.parent,
                json::quote(s.kind.name()),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_sum() {
        let mut t = Tracer::enabled();
        t.span(Kind::RunnerRun, |t| {
            t.span(Kind::BoardStep, |_| std::hint::black_box(1 + 1));
            t.span(Kind::BoardStep, |_| std::hint::black_box(2 + 2));
        });
        assert_eq!(t.calls(Kind::BoardStep), 2);
        assert_eq!(t.calls(Kind::RunnerRun), 1);
        assert_eq!(t.root_ns(), t.total_ns(Kind::RunnerRun));
        let run_self = t.layer_self_ns("campaign.runner");
        assert!(run_self <= t.total_ns(Kind::RunnerRun) - t.total_ns(Kind::BoardStep));
        assert_eq!(t.span_count(), 3);
        let text = t.to_json("w", 1);
        let parsed = crate::json::parse(&text).expect("trace file is JSON");
        let spans = parsed
            .get("spans")
            .and_then(|s| s.as_array())
            .expect("spans");
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].get("parent").and_then(|p| p.as_f64()), Some(0.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let v = t.span(Kind::BoardStep, |_| 7);
        assert_eq!(v, 7);
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn kinds_are_indexed_in_order() {
        for (i, k) in Kind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{}", k.name());
        }
        assert_eq!(Kind::BoardStep.layer(), "soc.board");
        assert_eq!(Kind::DoraDecide.layer(), "core.governor");
    }
}
