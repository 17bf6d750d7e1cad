//! Typed, deterministic observation bus for the simulation kernel.
//!
//! The boards in `dora-soc` used to expose one observation channel: a
//! bounded ring of pre-formatted `String`s. That design had two costs.
//! Every interesting point in the hot loop paid a `format!` allocation
//! even when nobody was listening, and downstream consumers (examples,
//! the CLI, experiments) had to scrape text to recover numbers the
//! simulator had just thrown away.
//!
//! This module replaces the string ring as the one observation channel
//! with a typed bus:
//!
//! * [`ProbeEvent`] — the closed vocabulary of things a simulated board
//!   can report, carrying typed payloads (instructions, watts, kelvins
//!   above ambient... no strings to parse).
//! * [`Probe`] — the observer. Implementations receive every event with
//!   its simulated timestamp, in emission order.
//! * [`ProbeBus`] — the dispatch point the simulator owns. Its
//!   [`ProbeBus::emit_with`] takes a *closure* that builds the event, and
//!   never calls it unless at least one probe is attached — so the
//!   probe-off hot path performs no allocation and no formatting at all.
//! * [`ProbeRing`] — a bounded, ready-made sink that records
//!   `(timestamp, event)` pairs for later inspection.
//!
//! Determinism: the bus holds sinks in attachment order and dispatches
//! synchronously on the simulation thread, so two runs of the same
//! seeded scenario observe byte-identical event streams. Probes are
//! observers, not simulation state — attaching, detaching, or mutating
//! one never perturbs the simulation itself, and board snapshots
//! deliberately exclude them.
//!
//! Frequencies cross this API as raw kHz (`u64`) rather than as the
//! `dora-soc` `Frequency` newtype, and cluster identities cross as raw
//! indices (`usize`) rather than as the `dora-soc` `ClusterId` newtype:
//! `dora-sim-core` is the bottom layer of the workspace and cannot name
//! types from the SoC model above it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::units::{Celsius, Ppw, Seconds, Watts};
use crate::SimTime;

/// One candidate operating point as a governor's model predicted it at
/// decision time: the estimated load time, device power, and
/// performance-per-watt the governor weighed before picking a frequency.
///
/// A sequence of these forms the `curve` of
/// [`ProbeEvent::GovernorDecision`] — for DORA's Algorithm 1 this is the
/// full predicted T/P/PPW sweep over the frequency table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidatePrediction {
    /// The cluster the candidate operating point lives on (index into
    /// the board's cluster list; `0` on homogeneous SoCs).
    pub cluster: usize,
    /// The candidate core frequency, in kHz.
    pub frequency_khz: u64,
    /// Predicted page load time at this frequency.
    pub load_time: Seconds,
    /// Predicted device power at this frequency.
    pub power: Watts,
    /// Predicted performance-per-watt at this frequency.
    pub ppw: Ppw,
    /// Whether the prediction meets the QoS deadline.
    pub feasible: bool,
}

/// An observation emitted by the simulation kernel.
///
/// The enum is the complete vocabulary: probes match on it exhaustively
/// and the compiler flags every consumer when a variant is added.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeEvent {
    /// A task was assigned to a core.
    TaskAssigned {
        /// The core the task was placed on.
        core: usize,
        /// The task's debug name.
        name: String,
    },
    /// A core retired work during one simulation quantum.
    QuantumRetired {
        /// The core that retired the instructions.
        core: usize,
        /// Instructions retired this quantum.
        instructions: f64,
        /// The shared-cache miss ratio the contention fixed point
        /// converged to for this core this quantum.
        miss_ratio: f64,
    },
    /// A cluster clock changed.
    DvfsSwitch {
        /// The cluster whose clock switched (`0` on homogeneous SoCs).
        cluster: usize,
        /// The previous frequency, in kHz.
        from_khz: u64,
        /// The new frequency, in kHz.
        to_khz: u64,
    },
    /// A core was rebound from one cluster to another (big.LITTLE task
    /// migration).
    TaskMigrated {
        /// The core that migrated.
        core: usize,
        /// The cluster the core left.
        from_cluster: usize,
        /// The cluster the core now runs on.
        to_cluster: usize,
    },
    /// The task on a core ran out of instructions.
    TaskFinished {
        /// The core whose task finished.
        core: usize,
        /// The sub-quantum-accurate finish time.
        at: SimTime,
    },
    /// Device power over the quantum that just completed.
    PowerSample {
        /// Total device power (platform + cores + uncore + DRAM +
        /// leakage).
        total: Watts,
        /// The leakage component alone, which tracks die temperature.
        leakage: Watts,
    },
    /// Die temperature after the quantum that just completed.
    ThermalSample {
        /// Current die temperature.
        temperature: Celsius,
    },
    /// A governor made an operating-point decision.
    GovernorDecision {
        /// The governor's name (e.g. `"DORA"`, `"interactive"`).
        governor: String,
        /// The cluster the governor chose (`0` on homogeneous SoCs).
        cluster: usize,
        /// The frequency the governor chose, in kHz.
        chosen_khz: u64,
        /// The predicted per-candidate curve behind the pick, if the
        /// governor has a predictive model; empty otherwise.
        curve: Vec<CandidatePrediction>,
    },
}

/// An observer of simulation events.
///
/// `on_event` is called synchronously at the emission point, in event
/// order, with the simulated timestamp of the emitting quantum. A probe
/// must not assume it sees events from the start of a run — it sees
/// whatever was emitted while it was attached.
pub trait Probe: fmt::Debug {
    /// Receives one event. `at` is the simulated time of emission (for
    /// quantum-grained events, the start of the quantum; sub-quantum
    /// detail such as a task's exact finish time rides in the event).
    fn on_event(&mut self, at: SimTime, event: &ProbeEvent);
}

/// Handle returned by [`ProbeBus::attach`], used to detach again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeId(u64);

/// The dispatch point. The simulator owns one bus and routes every
/// observation through it; consumers attach [`Probe`]s.
///
/// Dispatch is deterministic: sinks are invoked in attachment order.
/// With no sinks attached, [`ProbeBus::emit_with`] returns before even
/// constructing the event — the probe-off cost is one branch.
#[derive(Debug, Default)]
pub struct ProbeBus {
    sinks: Vec<(ProbeId, Rc<RefCell<dyn Probe>>)>,
    next_id: u64,
}

impl ProbeBus {
    /// An empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a probe; it receives every subsequent event until
    /// detached. Returns the handle for [`ProbeBus::detach`].
    pub fn attach(&mut self, probe: Rc<RefCell<dyn Probe>>) -> ProbeId {
        let id = ProbeId(self.next_id);
        self.next_id += 1;
        self.sinks.push((id, probe));
        id
    }

    /// Detaches a previously attached probe. Returns whether the handle
    /// was still attached.
    pub fn detach(&mut self, id: ProbeId) -> bool {
        let before = self.sinks.len();
        self.sinks.retain(|(sid, _)| *sid != id);
        self.sinks.len() != before
    }

    /// Whether at least one probe is attached. Emitters can use this to
    /// skip gathering inputs that only matter to observers.
    pub fn is_active(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Number of attached probes.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no probe is attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Emits the event produced by `build` to every attached probe, in
    /// attachment order. With no probes attached, `build` is never
    /// called — this is the zero-cost guarantee the hot path relies on:
    /// pass a closure and defer every allocation into it.
    pub fn emit_with(&mut self, at: SimTime, build: impl FnOnce() -> ProbeEvent) {
        if self.sinks.is_empty() {
            return;
        }
        let event = build();
        for (_, sink) in &self.sinks {
            sink.borrow_mut().on_event(at, &event);
        }
    }

    /// Emits an already-constructed event. Prefer [`ProbeBus::emit_with`]
    /// on hot paths; this is for call sites that hold the event anyway.
    pub fn emit(&mut self, at: SimTime, event: ProbeEvent) {
        if self.sinks.is_empty() {
            return;
        }
        for (_, sink) in &self.sinks {
            sink.borrow_mut().on_event(at, &event);
        }
    }

    /// Detaches every probe.
    pub fn clear(&mut self) {
        self.sinks.clear();
    }
}

/// A timestamped event as recorded by [`ProbeRing`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedEvent {
    /// Simulated time of emission.
    pub at: SimTime,
    /// The event payload.
    pub event: ProbeEvent,
}

/// A bounded ring sink: keeps the most recent `capacity` events, with
/// their structured payloads, and counts the rest as dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRing {
    capacity: usize,
    events: VecDeque<RecordedEvent>,
    dropped: u64,
}

impl ProbeRing {
    /// A ring holding at most `capacity` events. A capacity of zero
    /// records nothing (every event counts as dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// A shared handle ready to hand to [`ProbeBus::attach`].
    pub fn shared(capacity: usize) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(Self::new(capacity)))
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RecordedEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted or rejected since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forgets all retained events (the drop counter keeps counting up).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// The retained events as an owned vector, oldest first.
    pub fn to_vec(&self) -> Vec<RecordedEvent> {
        self.events.iter().cloned().collect()
    }
}

impl Probe for ProbeRing {
    fn on_event(&mut self, at: SimTime, event: &ProbeEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(RecordedEvent {
            at,
            event: event.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Counter {
        seen: Vec<(SimTime, ProbeEvent)>,
    }

    impl Probe for Counter {
        fn on_event(&mut self, at: SimTime, event: &ProbeEvent) {
            self.seen.push((at, event.clone()));
        }
    }

    fn switch(to: u64) -> ProbeEvent {
        ProbeEvent::DvfsSwitch {
            cluster: 0,
            from_khz: 300_000,
            to_khz: to,
        }
    }

    #[test]
    fn emit_with_skips_construction_when_no_probe_attached() {
        let mut bus = ProbeBus::new();
        let mut built = false;
        bus.emit_with(SimTime::ZERO, || {
            built = true;
            switch(422_400)
        });
        assert!(!built, "event must not be constructed without a listener");
        assert!(!bus.is_active());
    }

    #[test]
    fn attached_probes_see_events_in_order_and_detach_stops_delivery() {
        let mut bus = ProbeBus::new();
        let a = Rc::new(RefCell::new(Counter::default()));
        let b = Rc::new(RefCell::new(Counter::default()));
        let id_a = bus.attach(a.clone());
        let _id_b = bus.attach(b.clone());
        assert!(bus.is_active());
        assert_eq!(bus.len(), 2);

        bus.emit_with(SimTime::from_millis(1), || switch(422_400));
        bus.emit(SimTime::from_millis(2), switch(652_800));

        assert!(bus.detach(id_a), "first detach succeeds");
        assert!(!bus.detach(id_a), "second detach is a no-op");
        bus.emit(SimTime::from_millis(3), switch(883_200));

        assert_eq!(a.borrow().seen.len(), 2);
        assert_eq!(b.borrow().seen.len(), 3);
        assert_eq!(a.borrow().seen[0].0, SimTime::from_millis(1));
        assert_eq!(b.borrow().seen[2].1, switch(883_200));
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let mut ring = ProbeRing::new(2);
        for (i, t) in [1_u64, 2, 3].iter().enumerate() {
            ring.on_event(SimTime::from_millis(*t), &switch(100_000 + i as u64));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 1);
        let kept: Vec<_> = ring.iter().map(|r| r.at).collect();
        assert_eq!(kept, vec![SimTime::from_millis(2), SimTime::from_millis(3)]);
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let mut ring = ProbeRing::new(0);
        ring.on_event(SimTime::ZERO, &switch(422_400));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn shared_ring_works_through_the_bus() {
        let mut bus = ProbeBus::new();
        let ring = ProbeRing::shared(16);
        bus.attach(ring.clone());
        bus.emit_with(SimTime::from_millis(5), || ProbeEvent::ThermalSample {
            temperature: Celsius::new(41.5),
        });
        let events = ring.borrow().to_vec();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at, SimTime::from_millis(5));
        assert!(matches!(events[0].event, ProbeEvent::ThermalSample { .. }));
    }
}
