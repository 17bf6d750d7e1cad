//! The assembled smartphone platform.
//!
//! A [`Board`] owns four cores (the paper disables the fourth), the shared
//! L2, the LPDDR3 memory system and a thermal node, and advances them
//! together in fixed quanta (1 ms by default), charging power through the
//! per-cluster model of [`crate::power`]. Per quantum it delegates to
//! [`crate::contention::ContentionSolver`] for the small fixed point —
//! instruction rates determine cache pressure, cache pressure
//! determines miss ratios, misses determine DRAM queuing, and queuing feeds
//! back into effective CPI — that makes a co-scheduled memory hog genuinely
//! slow the browser down, the paper's central phenomenon. The solver owns
//! the L2 and memory-system models and re-solves only when a quantum's
//! inputs differ from the last one's.
//!
//! The board memoises the rest of the quantum the same way, in a
//! one-entry *quantum plan*. The plan holds the active cores with their
//! cluster-scaled profiles and clocks, re-read from each task's
//! `profile()` right after it retires. It also holds what the last
//! derived quantum computed from those inputs: each core's busy
//! fraction and counter increments, and the temperature-independent
//! power terms. A quantum replays the plan when
//! the solver hit, neither it nor the planned quantum had a DVFS or
//! migration stall, `dt` is the same, and every core executes exactly
//! what it was offered. Otherwise it computes afresh and records a new
//! plan. `assign`, `clear_core`, `migrate`, a frequency change and
//! `restore` invalidate the plan, so the next quantum re-collects the
//! active cores. Only Eq. 5 leakage, which follows the die temperature,
//! is evaluated every quantum, from a table built in [`Board::new`].
//! Replayed values are the bits a fresh computation would produce, so
//! replay changes no result. [`Board::step_work`] counts quanta, solves
//! and plan derivations.
//!
//! Observation goes through the typed probe bus
//! ([`Board::attach_probe`]): events are built lazily, so with no probe
//! attached the stepping path performs no allocation and no formatting.
//! A counting-allocator test (`dora-campaign`'s `probe_off_no_alloc`)
//! enforces that property.
//! Boards can also be checkpointed and forked mid-run via
//! [`Board::snapshot`] (see `snapshot`).

use crate::contention::{ContentionParams, ContentionSolver};
use crate::counters::{CoreCounters, CounterSet};
use crate::dvfs::{Frequency, Opp};
use crate::power::{self, LeakageTable, PowerBreakdown};
use crate::profile::ClusterId;
use crate::task::{PhaseProfile, Task};
use crate::thermal::ThermalNode;
use dora_sim_core::probe::{Probe, ProbeBus, ProbeEvent, ProbeId};
use dora_sim_core::units::{Celsius, Joules, Seconds, Watts};
use dora_sim_core::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

pub use crate::cache::SharedCache;
pub use crate::config::{BoardConfig, BoardError, EnergyBreakdown};

/// One core's slot on the board.
#[derive(Debug)]
pub(crate) struct CoreSlot {
    pub(crate) enabled: bool,
    pub(crate) task: Option<Box<dyn Task>>,
    pub(crate) finish_time: Option<SimTime>,
}

/// A board's deterministic stepping work counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepWork {
    /// Quanta stepped.
    pub quanta: u64,
    /// Quanta whose contention fixed point actually ran, rather than
    /// reusing the previous quantum's answer.
    pub solves: u64,
    /// Quanta that derived their per-core work and activity power
    /// afresh and recorded a new quantum plan, rather than replaying
    /// the last one.
    pub derivations: u64,
}

/// What one active core's quantum amounts to, as the plan records it.
#[derive(Debug, Clone, Copy)]
struct CoreWork {
    /// Fraction of the quantum the core was busy.
    busy_frac: f64,
    /// Increments of the core's counters.
    busy_time: Seconds,
    l2_accesses: f64,
    l2_misses: f64,
}

/// The one-entry quantum plan (see the module doc). Not simulation
/// state: it is derived from the slots, bindings and DVFS indices, so
/// snapshots leave it out and `restore` invalidates it.
#[derive(Debug)]
pub(crate) struct QuantumPlan {
    /// Whether the active cores must be collected afresh before the
    /// next quantum.
    stale: bool,
    /// Whether the recorded work and power may seed a replay.
    replayable: bool,
    /// The step length the plan was recorded at.
    dt: SimDuration,
    /// The solver's operating point: the bus tier voted by the cluster
    /// clocks, and the board's constants.
    params: ContentionParams,
    /// Indices of enabled cores holding unfinished tasks.
    active: Vec<usize>,
    /// Profiles of those tasks (base CPI pre-scaled by the owning
    /// cluster's `cpi_scale`), parallel to `active`.
    profiles: Vec<PhaseProfile>,
    /// Each active task's cluster clock in Hz, parallel to `active`.
    clocks: Vec<f64>,
    /// Each active core's recorded work, parallel to `active`.
    cores: Vec<CoreWork>,
    /// Per-core utilization handed to the power model.
    core_utils: Vec<f64>,
    /// Every power term but leakage, as recorded.
    activity: PowerBreakdown,
    /// The board's work counters.
    counts: StepWork,
}

impl QuantumPlan {
    /// An empty plan that collects the active cores before the first
    /// quantum.
    fn new(params: ContentionParams) -> Self {
        QuantumPlan {
            stale: true,
            replayable: false,
            dt: SimDuration::ZERO,
            params,
            active: Vec::new(),
            profiles: Vec::new(),
            clocks: Vec::new(),
            cores: Vec::new(),
            core_utils: Vec::new(),
            activity: PowerBreakdown::default(),
            counts: StepWork {
                quanta: 0,
                solves: 0,
                derivations: 0,
            },
        }
    }

    /// Forces the next quantum to collect the active cores afresh and
    /// derive everything from them.
    pub(crate) fn invalidate(&mut self) {
        self.stale = true;
        self.replayable = false;
    }

    /// Collects the enabled cores whose tasks report a profile, each
    /// running at its own cluster's clock with its base CPI scaled by
    /// the cluster's relative timing (×1.0 exactly on the reference
    /// cluster), and the bus tier the cluster clocks vote.
    fn gather(
        &mut self,
        config: &BoardConfig,
        slots: &[CoreSlot],
        cluster_of: &[usize],
        freq_indices: &[usize],
    ) {
        self.active.clear();
        self.profiles.clear();
        self.clocks.clear();
        for (i, slot) in slots.iter().enumerate() {
            if !slot.enabled {
                continue;
            }
            if let Some(mut profile) = slot.task.as_deref().and_then(|t| t.profile()) {
                let cluster = &config.clusters[cluster_of[i]];
                profile.base_cpi *= cluster.cpi_scale;
                self.active.push(i);
                self.profiles.push(profile);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the contention solver multiplies seconds by Hz into cycle counts, which have no unit type"
                )]
                self.clocks.push(
                    cluster
                        .dvfs
                        .opp(freq_indices[cluster_of[i]])
                        .frequency
                        .as_hz(),
                );
            }
        }
        self.params.tier = bus_tier(config, freq_indices);
        self.stale = false;
        self.replayable = false;
    }
}

/// The memory-bus tier: the bus serves every cluster, so the fastest
/// cluster clock votes it.
fn bus_tier(config: &BoardConfig, freq_indices: &[usize]) -> crate::dvfs::BusTier {
    let mut bus_vote = config.clusters[0].dvfs.opp(freq_indices[0]).frequency;
    for (cluster, &index) in config.clusters.iter().zip(freq_indices).skip(1) {
        let fc = cluster.dvfs.opp(index).frequency;
        if fc > bus_vote {
            bus_vote = fc;
        }
    }
    config.clusters[0].dvfs.bus_tier(bus_vote)
}

/// The assembled, steppable platform.
///
/// # Example
///
/// ```
/// use dora_soc::board::Board;
/// use dora_soc::task::{PhasedTask, PhaseProfile};
/// use dora_soc::SocProfile;
/// use dora_sim_core::SimDuration;
///
/// let mut board = Board::new(SocProfile::msm8974().board_config(), 1);
/// board.assign(
///     0,
///     Box::new(PhasedTask::new(
///         "job",
///         vec![(5.0e8, PhaseProfile::compute_bound())],
///     )),
/// )?;
/// let fmax = board.config().dvfs.max_frequency();
/// board.set_frequency(fmax)?;
/// while !board.task_finished(0) {
///     board.step(SimDuration::from_millis(10));
/// }
/// let t = board.finish_time(0).expect("finished");
/// assert!(t.as_secs_f64() > 0.1 && t.as_secs_f64() < 1.0);
/// # Ok::<(), dora_soc::BoardError>(())
/// ```
#[derive(Debug)]
pub struct Board {
    pub(crate) config: BoardConfig,
    pub(crate) thermal: ThermalNode,
    pub(crate) slots: Vec<CoreSlot>,
    pub(crate) counters: CounterSet,
    /// Current DVFS index of each cluster, indexed by cluster.
    pub(crate) freq_indices: Vec<usize>,
    /// Live core→cluster binding, seeded from `config.affinity`.
    pub(crate) cluster_of: Vec<usize>,
    pub(crate) now: SimTime,
    pub(crate) energy: Joules,
    /// `Σ P·dt` and `Σ dt` over the quanta whose power was finite: the
    /// numerator and denominator of [`Board::mean_power`].
    pub(crate) power_track: (Joules, Seconds),
    pub(crate) last_power: PowerBreakdown,
    pub(crate) switch_count: u64,
    pub(crate) pending_stall: SimDuration,
    pub(crate) energy_breakdown: EnergyBreakdown,
    pub(crate) seed: u64,
    /// Observers. Not simulation state: excluded from snapshots.
    pub(crate) probes: ProbeBus,
    /// Fixed-point solver: owns the L2 and memory system, reusable
    /// buffers and the last-input memo. Not simulation state.
    pub(crate) solver: ContentionSolver,
    /// Eq. 5 tabled per cluster and OPP. Configuration.
    pub(crate) leakage: LeakageTable,
    /// The one-entry quantum plan. Not simulation state.
    pub(crate) plan: QuantumPlan,
}

impl Board {
    /// Builds a board from a validated configuration. The `seed` pins any
    /// stochastic elements (none in the board itself today; tasks carry
    /// their own seeds) and is recorded for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`BoardConfig::validate`].
    #[expect(
        clippy::expect_used,
        reason = "constructor contract: documented # Panics"
    )]
    pub fn new(config: BoardConfig, seed: u64) -> Self {
        config.validate().expect("invalid board configuration");
        let solver = ContentionSolver::new(
            SharedCache::new(config.l2_capacity_bytes),
            config.memory.clone(),
        );
        let thermal = ThermalNode::new(config.thermal);
        let slots = config
            .cores_enabled
            .iter()
            .map(|&enabled| CoreSlot {
                enabled,
                task: None,
                finish_time: None,
            })
            .collect();
        let counters = CounterSet::new(config.num_cores);
        let freq_indices = vec![0; config.clusters.len()];
        let plan = QuantumPlan::new(ContentionParams {
            tier: bus_tier(&config, &freq_indices),
            mem_overlap: config.mem_overlap,
            dirty_fraction: config.dirty_fraction,
        });
        Board {
            thermal,
            slots,
            counters,
            freq_indices,
            cluster_of: config.affinity.clone(),
            now: SimTime::ZERO,
            energy: Joules::ZERO,
            power_track: (Joules::ZERO, Seconds::ZERO),
            last_power: PowerBreakdown::default(),
            switch_count: 0,
            pending_stall: SimDuration::ZERO,
            energy_breakdown: EnergyBreakdown::default(),
            seed,
            probes: ProbeBus::new(),
            solver,
            leakage: LeakageTable::new(&config),
            plan,
            config,
        }
    }

    /// Attaches a typed probe to the board's bus; it observes every
    /// subsequent event until detached. Probes are observers, not
    /// simulation state — they never perturb the simulation and are
    /// excluded from [`Board::snapshot`].
    pub fn attach_probe(&mut self, probe: Rc<RefCell<dyn Probe>>) -> ProbeId {
        self.probes.attach(probe)
    }

    /// Detaches a probe attached via [`Board::attach_probe`]. Returns
    /// whether the handle was still attached.
    pub fn detach_probe(&mut self, id: ProbeId) -> bool {
        self.probes.detach(id)
    }

    /// Whether any probe is listening.
    pub fn probes_active(&self) -> bool {
        self.probes.is_active()
    }

    /// Emits an externally constructed event onto the board's bus at the
    /// current simulated time. Drivers (e.g. the campaign runner) use
    /// this for events the board itself cannot know about, such as
    /// governor decisions.
    pub fn emit_event(&mut self, event: ProbeEvent) {
        self.probes.emit(self.now, event);
    }

    /// The static configuration.
    pub fn config(&self) -> &BoardConfig {
        &self.config
    }

    /// The seed this board was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.now
    }

    /// Current operating point of the primary cluster.
    pub fn opp(&self) -> Opp {
        self.cluster_opp(ClusterId::PRIMARY)
    }

    /// Current core frequency of the primary cluster.
    pub fn frequency(&self) -> Frequency {
        self.opp().frequency
    }

    /// Number of clusters on this board.
    pub fn num_clusters(&self) -> usize {
        self.config.clusters.len()
    }

    /// Current operating point of a cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn cluster_opp(&self, cluster: ClusterId) -> Opp {
        self.config.clusters[cluster.index()]
            .dvfs
            .opp(self.freq_indices[cluster.index()])
    }

    /// Current frequency of a cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn cluster_frequency(&self, cluster: ClusterId) -> Frequency {
        self.cluster_opp(cluster).frequency
    }

    /// The cluster core `core` is currently bound to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn cluster_of(&self, core: usize) -> ClusterId {
        ClusterId::new(self.cluster_of[core])
    }

    /// Die temperature.
    pub fn temperature(&self) -> Celsius {
        self.thermal.temperature()
    }

    /// Peak die temperature so far.
    pub fn peak_temperature(&self) -> Celsius {
        self.thermal.peak()
    }

    /// Total device energy consumed so far.
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// The cumulative energy itemized by power-model component.
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        self.energy_breakdown
    }

    /// Time-weighted mean device power so far.
    pub fn mean_power(&self) -> Watts {
        let (integral, time) = self.power_track;
        if time == Seconds::ZERO {
            Watts::ZERO
        } else {
            integral / time
        }
    }

    /// The itemized power of the most recent quantum.
    pub fn last_power(&self) -> PowerBreakdown {
        self.last_power
    }

    /// Number of DVFS transitions performed.
    pub fn switch_count(&self) -> u64 {
        self.switch_count
    }

    /// The cumulative counters of core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn counters(&self, i: usize) -> CoreCounters {
        *self.counters.core(i)
    }

    /// A snapshot of all counters (for governor delta sampling).
    pub fn counter_set(&self) -> &CounterSet {
        &self.counters
    }

    /// The stepping work counters: quanta stepped by this board, how
    /// many of them ran the contention fixed point, and how many derived
    /// the quantum plan afresh. Not simulation state: snapshots leave
    /// them out and a restore does not reset them.
    pub fn step_work(&self) -> StepWork {
        self.plan.counts
    }

    /// Assigns a task to a core.
    ///
    /// # Errors
    ///
    /// [`BoardError::CoreOutOfRange`], [`BoardError::CoreDisabled`], or
    /// [`BoardError::CoreOccupied`].
    pub fn assign(&mut self, core: usize, task: Box<dyn Task>) -> Result<(), BoardError> {
        let slot = self
            .slots
            .get_mut(core)
            .ok_or(BoardError::CoreOutOfRange(core))?;
        if !slot.enabled {
            return Err(BoardError::CoreDisabled(core));
        }
        if slot.task.is_some() {
            return Err(BoardError::CoreOccupied(core));
        }
        slot.task = Some(task);
        slot.finish_time = None;
        self.plan.invalidate();
        let slots = &self.slots;
        self.probes
            .emit_with(self.now, || ProbeEvent::TaskAssigned {
                core,
                name: slots[core]
                    .task
                    .as_deref()
                    .map(|t| t.name())
                    .unwrap_or("")
                    // Lazy: the name is only copied when a probe listens.
                    .to_string(),
            });
        Ok(())
    }

    /// Removes and returns the task on a core, if any.
    ///
    /// # Errors
    ///
    /// [`BoardError::CoreOutOfRange`].
    pub fn clear_core(&mut self, core: usize) -> Result<Option<Box<dyn Task>>, BoardError> {
        let slot = self
            .slots
            .get_mut(core)
            .ok_or(BoardError::CoreOutOfRange(core))?;
        slot.finish_time = None;
        self.plan.invalidate();
        Ok(slot.task.take())
    }

    /// A shared view of the task on a core, if any.
    pub fn task(&self, core: usize) -> Option<&dyn Task> {
        self.slots.get(core)?.task.as_deref()
    }

    /// Whether the task on `core` has completed all its work. `false` when
    /// no task is assigned.
    pub fn task_finished(&self, core: usize) -> bool {
        self.slots
            .get(core)
            .and_then(|s| s.task.as_ref())
            .is_some_and(|t| t.is_finished())
    }

    /// The instant the task on `core` finished, interpolated within its
    /// final quantum. `None` while unfinished or unassigned.
    pub fn finish_time(&self, core: usize) -> Option<SimTime> {
        self.slots.get(core)?.finish_time
    }

    /// Sets the primary (cluster 0) frequency — the historical
    /// single-knob API, exact on homogeneous boards.
    ///
    /// # Errors
    ///
    /// [`BoardError::UnknownFrequency`] if `f` is not a table entry.
    pub fn set_frequency(&mut self, f: Frequency) -> Result<(), BoardError> {
        self.set_cluster_frequency(ClusterId::PRIMARY, f)
    }

    /// Sets one cluster's frequency. A no-op (no stall, no switch
    /// counted) when the target equals the current frequency — mirroring
    /// DORA's "change only when fopt moved" behaviour (Section V-H).
    ///
    /// # Errors
    ///
    /// [`BoardError::ClusterOutOfRange`] for a bad cluster id, or
    /// [`BoardError::UnknownFrequency`] if `f` is not an entry of that
    /// cluster's table.
    pub fn set_cluster_frequency(
        &mut self,
        cluster: ClusterId,
        f: Frequency,
    ) -> Result<(), BoardError> {
        let c = cluster.index();
        let table = &self
            .config
            .clusters
            .get(c)
            .ok_or(BoardError::ClusterOutOfRange(c))?
            .dvfs;
        let index = table.index_of(f).ok_or(BoardError::UnknownFrequency(f))?;
        if index != self.freq_indices[c] {
            let from_khz = table.opp(self.freq_indices[c]).frequency.as_khz();
            self.freq_indices[c] = index;
            self.plan.invalidate();
            self.switch_count += 1;
            self.pending_stall += self.config.dvfs_switch_stall;
            self.probes.emit_with(self.now, || ProbeEvent::DvfsSwitch {
                cluster: c,
                from_khz,
                to_khz: f.as_khz(),
            });
        }
        Ok(())
    }

    /// Rebinds a core to another cluster, paying the configured
    /// [`crate::profile::MigrationCost`]: the latency joins the pending
    /// stall (the quantum-grained model charges it globally, which is
    /// conservative) and the energy is charged to the device
    /// immediately, booked under the core-dynamic component (it is
    /// cache-refill switching activity). A no-op when the core is
    /// already on `to`.
    ///
    /// # Errors
    ///
    /// [`BoardError::CoreOutOfRange`] or [`BoardError::ClusterOutOfRange`].
    pub fn migrate(&mut self, core: usize, to: ClusterId) -> Result<(), BoardError> {
        if core >= self.cluster_of.len() {
            return Err(BoardError::CoreOutOfRange(core));
        }
        let to_cluster = to.index();
        if to_cluster >= self.config.clusters.len() {
            return Err(BoardError::ClusterOutOfRange(to_cluster));
        }
        let from_cluster = self.cluster_of[core];
        if from_cluster != to_cluster {
            self.cluster_of[core] = to_cluster;
            self.plan.invalidate();
            self.pending_stall += self.config.migration.latency;
            self.energy += self.config.migration.energy;
            self.energy_breakdown.core_dynamic += self.config.migration.energy;
            self.probes
                .emit_with(self.now, || ProbeEvent::TaskMigrated {
                    core,
                    from_cluster,
                    to_cluster,
                });
        }
        Ok(())
    }

    /// Advances the board by `duration`, in quanta of the configured size.
    pub fn step(&mut self, duration: SimDuration) {
        let mut left = duration;
        while !left.is_zero() {
            let dt = if left < self.config.quantum {
                left
            } else {
                self.config.quantum
            };
            self.step_quantum(dt);
            left = left.saturating_sub(dt);
        }
    }

    /// One quantum of execution: replays the quantum plan when its
    /// inputs still hold, and otherwise derives the quantum afresh and
    /// records it as the new plan (see the module doc).
    fn step_quantum(&mut self, dt: SimDuration) {
        let dt_s = dt.as_secs_f64();
        // Consume pending DVFS stall: it eats into the available run time
        // of this quantum for all cores.
        let stall = if self.pending_stall < dt {
            self.pending_stall
        } else {
            dt
        };
        self.pending_stall = self.pending_stall.saturating_sub(stall);
        let avail_s = (dt.saturating_sub(stall)).as_secs_f64();

        let plan = &mut self.plan;
        if plan.stale {
            plan.gather(
                &self.config,
                &self.slots,
                &self.cluster_of,
                &self.freq_indices,
            );
        }
        // Fixed point: instruction rates <-> cache shares <-> DRAM latency.
        let hit = self
            .solver
            .solve(&plan.params, &plan.profiles, &plan.clocks);
        plan.counts.quanta += 1;
        plan.counts.solves += u64::from(!hit);
        let replay = hit && plan.replayable && plan.dt == dt && stall.is_zero();
        let active = plan.active.len();
        if !replay {
            plan.cores.clear();
            plan.core_utils.clear();
            plan.core_utils.resize(self.config.num_cores, 0.0);
        }

        // Retire work and update counters; interpolate finish times; read
        // each task's next profile into the plan, dropping finished tasks.
        let mut all_full = true;
        let mut kept = 0;
        for k in 0..active {
            let core = plan.active[k];
            let miss_ratio = self.solver.miss_ratios()[k];
            let offered = self.solver.instr_rates()[k] * avail_s;
            let Some(task) = self.slots[core].task.as_mut() else {
                all_full = false;
                continue;
            };
            // `full`: the core executes its whole offer.
            let (executed, full) = match task.remaining_instructions() {
                Some(rem) if rem < offered => (rem, false),
                _ => (offered, true),
            };
            task.retire(executed);
            let next = task.profile();
            let work = if replay && full {
                plan.cores[k]
            } else {
                let p = plan.profiles[k];
                let busy_frac = if offered > 0.0 {
                    p.duty_cycle * (executed / offered) * (avail_s / dt_s)
                } else {
                    0.0
                };
                let l2_accesses = executed * p.l2_apki / 1000.0;
                CoreWork {
                    busy_frac,
                    busy_time: Seconds::new(busy_frac * dt_s),
                    l2_accesses,
                    l2_misses: l2_accesses * miss_ratio,
                }
            };
            if !replay {
                plan.cores.push(work);
            }
            all_full &= full;
            plan.core_utils[core] = work.busy_frac;
            let c = self.counters.core_mut(core);
            c.instructions += executed;
            c.busy_time += work.busy_time;
            c.l2_accesses += work.l2_accesses;
            c.l2_misses += work.l2_misses;
            self.probes
                .emit_with(self.now, || ProbeEvent::QuantumRetired {
                    core,
                    instructions: executed,
                    miss_ratio,
                });
            match next {
                Some(mut profile) => {
                    profile.base_cpi *= self.config.clusters[self.cluster_of[core]].cpi_scale;
                    plan.active[kept] = core;
                    plan.profiles[kept] = profile;
                    plan.clocks[kept] = plan.clocks[k];
                    kept += 1;
                }
                None if self.slots[core].finish_time.is_none() => {
                    // Fraction of the quantum actually needed.
                    let frac = if offered > 0.0 {
                        (executed / offered).clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    let used = SimDuration::from_secs_f64(stall.as_secs_f64() + avail_s * frac);
                    let at = self.now + used;
                    self.slots[core].finish_time = Some(at);
                    self.probes
                        .emit_with(self.now, || ProbeEvent::TaskFinished { core, at });
                }
                None => {}
            }
        }
        plan.active.truncate(kept);
        plan.profiles.truncate(kept);
        plan.clocks.truncate(kept);
        // Wall time advances for every enabled core.
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.enabled {
                self.counters.core_mut(i).total_time += Seconds::new(dt_s);
            }
        }

        // Power and heat. The DRAM demand actually served is pro-rated by
        // the time the cores were running.
        let replayed = replay && all_full;
        if !replayed {
            let served_dram = self.solver.dram_demand() * (avail_s / dt_s.max(1e-12));
            plan.activity = power::activity(
                &self.config,
                &self.freq_indices,
                &self.cluster_of,
                &plan.core_utils,
                served_dram,
            );
            plan.counts.derivations += 1;
        }
        plan.dt = dt;
        plan.replayable = stall.is_zero() && all_full && kept == active;
        let breakdown = PowerBreakdown {
            leakage: self
                .leakage
                .power(&self.freq_indices, self.thermal.temperature()),
            ..plan.activity
        };
        let dt_span = Seconds::new(dt_s);
        self.energy += breakdown.total() * dt_span;
        self.energy_breakdown.accumulate(&breakdown, dt_span);
        if dt_span > Seconds::ZERO && breakdown.total().is_finite() {
            self.power_track.0 += breakdown.total() * dt_span;
            self.power_track.1 += dt_span;
        }
        self.thermal.step(breakdown.soc(), dt_span);
        self.last_power = breakdown;
        self.probes.emit_with(self.now, || ProbeEvent::PowerSample {
            total: breakdown.total(),
            leakage: breakdown.leakage,
        });
        let temperature = self.thermal.temperature();
        self.probes
            .emit_with(self.now, || ProbeEvent::ThermalSample { temperature });
        self.now += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{LoopTask, PhaseProfile, PhasedTask};

    fn compute_task(instructions: f64) -> Box<PhasedTask> {
        Box::new(PhasedTask::new(
            "job",
            vec![(instructions, PhaseProfile::compute_bound())],
        ))
    }

    fn board() -> Board {
        Board::new(crate::profile::SocProfile::msm8974().board_config(), 7)
    }

    fn biglittle_board() -> Board {
        Board::new(
            crate::profile::SocProfile::biglittle_a15a7().board_config(),
            7,
        )
    }

    #[test]
    fn assign_errors() {
        let mut b = board();
        assert_eq!(
            b.assign(9, compute_task(1.0)).unwrap_err(),
            BoardError::CoreOutOfRange(9)
        );
        assert_eq!(
            b.assign(3, compute_task(1.0)).unwrap_err(),
            BoardError::CoreDisabled(3)
        );
        b.assign(0, compute_task(1.0)).expect("free core");
        assert_eq!(
            b.assign(0, compute_task(1.0)).unwrap_err(),
            BoardError::CoreOccupied(0)
        );
    }

    #[test]
    fn unknown_frequency_rejected() {
        let mut b = board();
        let err = b.set_frequency(Frequency::from_mhz(1234.0)).unwrap_err();
        assert_eq!(
            err,
            BoardError::UnknownFrequency(Frequency::from_mhz(1234.0))
        );
    }

    #[test]
    fn higher_frequency_finishes_sooner() {
        let work = 2.0e9;
        let mut times = Vec::new();
        for mhz in [729.6, 1497.6, 2265.6] {
            let mut b = board();
            b.set_frequency(Frequency::from_mhz(mhz)).expect("in table");
            b.assign(0, compute_task(work)).expect("free");
            while !b.task_finished(0) {
                b.step(SimDuration::from_millis(50));
            }
            times.push(b.finish_time(0).expect("finished").as_secs_f64());
        }
        assert!(times[0] > times[1] && times[1] > times[2], "{times:?}");
        // Compute-bound: time should scale roughly inversely with frequency.
        let ratio = times[0] / times[2];
        let freq_ratio = 2265.6 / 729.6;
        assert!((ratio / freq_ratio - 1.0).abs() < 0.15, "ratio {ratio}");
    }

    #[test]
    fn finish_time_is_subquantum_accurate() {
        let mut b = board();
        let f = b.config().dvfs.max_frequency();
        b.set_frequency(f).expect("in table");
        // ~10.37 ms of work at 2.2656 GHz, CPI 1 (plus small L2 traffic).
        b.assign(0, compute_task(2.35e7)).expect("free");
        b.step(SimDuration::from_millis(30));
        let t = b.finish_time(0).expect("finished").as_secs_f64();
        assert!(t > 0.009 && t < 0.013, "finish {t}");
        // Not snapped to a quantum edge.
        let ms = t * 1000.0;
        assert!((ms - ms.round()).abs() > 1e-6, "suspiciously aligned: {ms}");
    }

    #[test]
    fn memory_hog_slows_the_victim() {
        let work = 2.0e9;
        let solo = {
            let mut b = board();
            b.set_frequency(Frequency::from_mhz(1497.6)).expect("ok");
            b.assign(
                0,
                Box::new(PhasedTask::new(
                    "victim",
                    vec![(
                        work,
                        PhaseProfile {
                            l2_apki: 20.0,
                            working_set_bytes: 1.5 * 1024.0 * 1024.0,
                            reuse_fraction: 0.85,
                            ..PhaseProfile::compute_bound()
                        },
                    )],
                )),
            )
            .expect("free");
            while !b.task_finished(0) {
                b.step(SimDuration::from_millis(50));
            }
            b.finish_time(0).expect("finished").as_secs_f64()
        };
        let contended = {
            let mut b = board();
            b.set_frequency(Frequency::from_mhz(1497.6)).expect("ok");
            b.assign(
                0,
                Box::new(PhasedTask::new(
                    "victim",
                    vec![(
                        work,
                        PhaseProfile {
                            l2_apki: 20.0,
                            working_set_bytes: 1.5 * 1024.0 * 1024.0,
                            reuse_fraction: 0.85,
                            ..PhaseProfile::compute_bound()
                        },
                    )],
                )),
            )
            .expect("free");
            b.assign(
                2,
                Box::new(LoopTask::new("hog", PhaseProfile::streaming(60.0))),
            )
            .expect("free");
            while !b.task_finished(0) {
                b.step(SimDuration::from_millis(50));
            }
            b.finish_time(0).expect("finished").as_secs_f64()
        };
        assert!(
            contended > solo * 1.05,
            "interference too weak: {solo} vs {contended}"
        );
    }

    #[test]
    fn energy_accumulates_and_power_is_plausible() {
        let mut b = board();
        b.set_frequency(Frequency::from_mhz(1497.6)).expect("ok");
        b.assign(0, Box::new(LoopTask::compute_bound("spin", 1.0)))
            .expect("free");
        b.step(SimDuration::from_secs(2));
        let e = b.energy();
        let p = b.mean_power();
        assert!((p - e / Seconds::new(2.0)).value().abs() < 1e-9);
        assert!((1.5..5.0).contains(&p.value()), "power {p}");
    }

    #[test]
    fn temperature_rises_under_load() {
        let mut b = board();
        b.set_frequency(b.config().dvfs.max_frequency())
            .expect("ok");
        b.assign(0, Box::new(LoopTask::compute_bound("spin", 1.0)))
            .expect("free");
        b.assign(1, Box::new(LoopTask::compute_bound("spin2", 1.0)))
            .expect("free");
        let t0 = b.temperature().value();
        b.step(SimDuration::from_secs(20));
        assert!(b.temperature().value() > t0 + 5.0);
        assert!(b.peak_temperature() >= b.temperature());
    }

    #[test]
    fn switch_counting_and_noop() {
        let mut b = board();
        let f1 = Frequency::from_mhz(1497.6);
        b.set_frequency(f1).expect("ok");
        b.set_frequency(f1).expect("ok"); // no-op
        assert_eq!(b.switch_count(), 1);
        b.set_frequency(Frequency::from_mhz(729.6)).expect("ok");
        assert_eq!(b.switch_count(), 2);
    }

    #[test]
    fn dvfs_stall_delays_completion() {
        // Same work, but one run thrashes the frequency between two
        // entries every quantum, paying the switch stall repeatedly.
        let work = 1.0e9;
        let run = |thrash: bool| {
            let mut b = board();
            b.set_frequency(Frequency::from_mhz(1958.4)).expect("ok");
            b.assign(0, compute_task(work)).expect("free");
            let mut flip = false;
            while !b.task_finished(0) {
                if thrash {
                    let f = if flip {
                        Frequency::from_mhz(1958.4)
                    } else {
                        Frequency::from_mhz(2112.0)
                    };
                    b.set_frequency(f).expect("ok");
                    flip = !flip;
                }
                b.step(SimDuration::from_millis(1));
            }
            b.finish_time(0).expect("finished").as_secs_f64()
        };
        let calm = run(false);
        let thrashed = run(true);
        assert!(
            thrashed > calm,
            "stall should cost time: {calm} vs {thrashed}"
        );
    }

    #[test]
    fn utilization_reflects_duty_cycle() {
        let mut b = board();
        b.set_frequency(Frequency::from_mhz(1497.6)).expect("ok");
        b.assign(2, Box::new(LoopTask::compute_bound("duty", 0.4)))
            .expect("free");
        b.step(SimDuration::from_secs(1));
        let u = b.counters(2).utilization().value();
        assert!((u - 0.4).abs() < 0.05, "utilization {u}");
    }

    #[test]
    fn disabled_core_accumulates_no_wall_time() {
        let mut b = board();
        b.step(SimDuration::from_millis(100));
        assert_eq!(b.counters(3).total_time, Seconds::ZERO);
        assert!(b.counters(0).total_time > Seconds::ZERO);
    }

    #[test]
    fn energy_breakdown_sums_to_total() {
        let mut b = board();
        b.set_frequency(Frequency::from_mhz(1728.0)).expect("ok");
        b.assign(0, Box::new(LoopTask::compute_bound("spin", 1.0)))
            .expect("free");
        b.assign(
            2,
            Box::new(LoopTask::new("hog", PhaseProfile::streaming(30.0))),
        )
        .expect("free");
        b.step(SimDuration::from_secs(3));
        let e = b.energy_breakdown();
        assert!((e.total() - b.energy()).value().abs() < 1e-6);
        // Every component participated.
        assert!(e.platform > Joules::ZERO);
        assert!(e.core_dynamic > Joules::ZERO);
        assert!(e.uncore > Joules::ZERO);
        assert!(e.dram > Joules::ZERO, "{e:?}");
        assert!(e.leakage > Joules::ZERO);
        // The platform floor dominates a 3 s window at moderate load.
        assert!(e.platform > e.dram, "{e:?}");
    }

    /// The lifecycle events of a run, in emission order, as a ring sink
    /// on the bus records them (per-quantum samples filtered out).
    fn lifecycle(ring: &dora_sim_core::probe::ProbeRing) -> Vec<ProbeEvent> {
        ring.iter()
            .map(|r| r.event.clone())
            .filter(|e| {
                matches!(
                    e,
                    ProbeEvent::TaskAssigned { .. }
                        | ProbeEvent::DvfsSwitch { .. }
                        | ProbeEvent::TaskFinished { .. }
                )
            })
            .collect()
    }

    #[test]
    fn probe_ring_records_lifecycle_events() {
        use dora_sim_core::probe::ProbeRing;

        let mut b = board();
        let ring = ProbeRing::shared(1 << 14);
        b.attach_probe(ring.clone());
        b.set_frequency(Frequency::from_mhz(1958.4)).expect("ok");
        b.assign(0, compute_task(1.0e7)).expect("free");
        while !b.task_finished(0) {
            b.step(SimDuration::from_millis(5));
        }
        let finished = b.finish_time(0).expect("finished");
        assert_eq!(
            lifecycle(&ring.borrow()),
            vec![
                ProbeEvent::DvfsSwitch {
                    cluster: 0,
                    from_khz: 300_000,
                    to_khz: 1_958_400,
                },
                ProbeEvent::TaskAssigned {
                    core: 0,
                    name: "job".to_string(),
                },
                ProbeEvent::TaskFinished {
                    core: 0,
                    at: finished,
                },
            ]
        );
        assert_eq!(ring.borrow().dropped(), 0);
    }

    #[test]
    fn probe_ring_off_by_default_bounded_and_detachable() {
        use dora_sim_core::probe::ProbeRing;

        let mut b = board();
        b.set_frequency(Frequency::from_mhz(729.6)).expect("ok");
        assert!(!b.probes_active());
        let ring = ProbeRing::shared(1);
        let id = b.attach_probe(ring.clone());
        b.set_frequency(Frequency::from_mhz(960.0)).expect("ok");
        b.set_frequency(Frequency::from_mhz(1190.4)).expect("ok");
        // Capacity one: the newest switch stays, the older one is dropped.
        assert_eq!(
            lifecycle(&ring.borrow()),
            vec![ProbeEvent::DvfsSwitch {
                cluster: 0,
                from_khz: 960_000,
                to_khz: 1_190_400,
            }]
        );
        assert_eq!(ring.borrow().dropped(), 1);
        assert!(b.detach_probe(id));
        assert!(!b.probes_active());
        b.set_frequency(Frequency::from_mhz(960.0)).expect("ok");
        assert_eq!(ring.borrow().len(), 1);
    }

    #[test]
    fn clear_core_returns_task() {
        let mut b = board();
        b.assign(1, compute_task(5.0)).expect("free");
        let t = b.clear_core(1).expect("in range");
        assert!(t.is_some());
        assert!(b.clear_core(1).expect("in range").is_none());
        assert!(b.clear_core(77).is_err());
    }

    #[test]
    fn typed_probe_sees_quantum_and_lifecycle_events() {
        use dora_sim_core::probe::ProbeRing;

        let mut b = board();
        let ring = ProbeRing::shared(1 << 14);
        let id = b.attach_probe(ring.clone());
        assert!(b.probes_active());
        b.set_frequency(Frequency::from_mhz(1958.4)).expect("ok");
        b.assign(0, compute_task(1.0e7)).expect("free");
        b.step(SimDuration::from_millis(10));

        let events = ring.borrow().to_vec();
        let mut saw_switch = false;
        let mut saw_assign = false;
        let mut saw_finish = false;
        let mut saw_power = false;
        let mut saw_thermal = false;
        let mut retired = 0.0;
        for r in &events {
            match &r.event {
                ProbeEvent::DvfsSwitch {
                    cluster,
                    from_khz,
                    to_khz,
                } => {
                    assert_eq!(*cluster, 0);
                    assert_eq!(*from_khz, 300_000);
                    assert_eq!(*to_khz, 1_958_400);
                    saw_switch = true;
                }
                ProbeEvent::TaskMigrated { .. } => {
                    panic!("no migration on a homogeneous board")
                }
                ProbeEvent::TaskAssigned { core, name } => {
                    assert_eq!((*core, name.as_str()), (0, "job"));
                    saw_assign = true;
                }
                ProbeEvent::TaskFinished { core, at } => {
                    assert_eq!(*core, 0);
                    assert_eq!(Some(*at), b.finish_time(0));
                    saw_finish = true;
                }
                ProbeEvent::PowerSample { total, .. } => {
                    assert!(total.value() > 0.0);
                    saw_power = true;
                }
                ProbeEvent::ThermalSample { temperature } => {
                    assert!(temperature.value() > 0.0);
                    saw_thermal = true;
                }
                ProbeEvent::QuantumRetired {
                    core, instructions, ..
                } => {
                    assert_eq!(*core, 0);
                    retired += instructions;
                }
                ProbeEvent::GovernorDecision { .. } => {}
            }
        }
        assert!(saw_switch && saw_assign && saw_finish && saw_power && saw_thermal);
        // The probe saw every retired instruction.
        let counted = b.counters(0).instructions;
        assert!(
            (retired - counted).abs() < 1e-6,
            "probe {retired} vs counters {counted}"
        );

        // Detach: no further events.
        let before = ring.borrow().len();
        assert!(b.detach_probe(id));
        b.step(SimDuration::from_millis(5));
        assert_eq!(ring.borrow().len(), before);
    }

    #[test]
    fn clusters_hold_independent_frequencies() {
        let mut b = biglittle_board();
        assert_eq!(b.num_clusters(), 2);
        b.set_cluster_frequency(ClusterId::new(0), Frequency::from_mhz(1800.0))
            .expect("A15 entry");
        b.set_cluster_frequency(ClusterId::new(1), Frequency::from_mhz(600.0))
            .expect("A7 entry");
        assert_eq!(
            b.cluster_frequency(ClusterId::new(0)),
            Frequency::from_mhz(1800.0)
        );
        assert_eq!(
            b.cluster_frequency(ClusterId::new(1)),
            Frequency::from_mhz(600.0)
        );
        // An A15-only frequency is rejected on the A7 cluster.
        assert_eq!(
            b.set_cluster_frequency(ClusterId::new(1), Frequency::from_mhz(1800.0))
                .unwrap_err(),
            BoardError::UnknownFrequency(Frequency::from_mhz(1800.0))
        );
        assert_eq!(
            b.set_cluster_frequency(ClusterId::new(5), Frequency::from_mhz(600.0))
                .unwrap_err(),
            BoardError::ClusterOutOfRange(5)
        );
    }

    #[test]
    fn migration_rebinds_charges_and_emits() {
        use dora_sim_core::probe::ProbeRing;

        let mut b = biglittle_board();
        let ring = ProbeRing::shared(64);
        b.attach_probe(ring.clone());
        assert_eq!(b.cluster_of(0), ClusterId::new(0));
        let e0 = b.energy();
        b.migrate(0, ClusterId::new(1)).expect("valid target");
        assert_eq!(b.cluster_of(0), ClusterId::new(1));
        assert!(b.energy() > e0, "migration energy must be charged");
        assert!(
            (b.energy_breakdown().total() - b.energy()).value().abs() < 1e-12,
            "breakdown stays consistent with the total"
        );
        // No-op re-migration charges nothing further.
        let e1 = b.energy();
        b.migrate(0, ClusterId::new(1)).expect("no-op");
        assert_eq!(b.energy(), e1);
        assert!(b.migrate(0, ClusterId::new(9)).is_err());
        assert!(b.migrate(99, ClusterId::new(1)).is_err());
        let migrations: Vec<_> = ring
            .borrow()
            .iter()
            .filter(|r| matches!(r.event, ProbeEvent::TaskMigrated { .. }))
            .cloned()
            .collect();
        assert_eq!(migrations.len(), 1);
        assert_eq!(
            migrations[0].event,
            ProbeEvent::TaskMigrated {
                core: 0,
                from_cluster: 0,
                to_cluster: 1,
            }
        );
    }

    #[test]
    fn little_cluster_runs_the_same_work_slower_and_cheaper() {
        let work = 1.0e9;
        let run = |cluster: usize| {
            let mut b = biglittle_board();
            // Both clusters pinned to a common 1.4 GHz entry.
            b.set_cluster_frequency(ClusterId::new(0), Frequency::from_mhz(1400.0))
                .expect("A15 entry");
            b.set_cluster_frequency(ClusterId::new(1), Frequency::from_mhz(1400.0))
                .expect("A7 entry");
            b.migrate(0, ClusterId::new(cluster)).expect("valid");
            b.assign(0, compute_task(work)).expect("free");
            while !b.task_finished(0) {
                b.step(SimDuration::from_millis(20));
            }
            (
                b.finish_time(0).expect("finished").as_secs_f64(),
                b.energy_breakdown().core_dynamic.value(),
            )
        };
        let (t_big, e_big) = run(0);
        let (t_little, e_little) = run(1);
        // The in-order A7 pays its CPI scale in time...
        assert!(
            t_little > t_big * 1.3,
            "LITTLE should be slower: {t_big} vs {t_little}"
        );
        // ...but its far smaller C_eff still wins on core-dynamic energy.
        assert!(
            e_little < e_big,
            "LITTLE should be cheaper: {e_big} vs {e_little}"
        );
    }

    #[test]
    fn migration_latency_stalls_execution() {
        let work = 5.0e8;
        let run = |migrations: u32| {
            let mut b = biglittle_board();
            b.set_cluster_frequency(ClusterId::new(0), Frequency::from_mhz(1400.0))
                .expect("A15 entry");
            b.set_cluster_frequency(ClusterId::new(1), Frequency::from_mhz(1400.0))
                .expect("A7 entry");
            b.assign(0, compute_task(work)).expect("free");
            for _ in 0..migrations {
                b.migrate(0, ClusterId::new(1)).expect("valid");
                b.migrate(0, ClusterId::new(0)).expect("valid");
            }
            while !b.task_finished(0) {
                b.step(SimDuration::from_millis(10));
            }
            b.finish_time(0).expect("finished").as_secs_f64()
        };
        let calm = run(0);
        let thrashed = run(5);
        assert!(
            thrashed > calm + 0.015,
            "10 migrations at 2 ms each must stall: {calm} vs {thrashed}"
        );
    }
}
