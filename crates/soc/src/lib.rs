//! # dora-soc
//!
//! A software stand-in for the Google Nexus 5 hardware the DORA paper
//! evaluates on. The crate models the pieces of an MSM8974-class SoC whose
//! interactions the paper's governor exploits:
//!
//! * [`dvfs`] — the 14-entry operating-performance-point (OPP) table with a
//!   voltage map and the piecewise core→memory-bus frequency mapping the
//!   paper builds piecewise regression models around.
//! * [`task`] — the workload abstraction: a task exposes a phase profile
//!   (base CPI, L2 accesses per kilo-instruction, working set, duty cycle)
//!   and retires instructions handed to it by a core.
//! * [`cache`] — the shared 2 MB L2 occupancy-contention model: co-running
//!   tasks steal cache occupancy in proportion to their access rates,
//!   raising each other's miss ratios.
//! * [`memory`] — the LPDDR3 bandwidth/queuing model: aggregate miss
//!   traffic drives DRAM utilization, which inflates miss latency.
//! * [`thermal`] — a lumped RC thermal node with configurable ambient.
//! * [`power`] — whole-device power: platform floor (display etc.), per-core
//!   dynamic `util·C·V²·f` and per-cluster uncore at the coefficients of
//!   the board's cluster list, DRAM access energy, and the Liao et al.
//!   temperature/voltage leakage model the paper adopts as Eq. 5.
//! * [`profile`] — the SoC profile registry: named platform descriptions
//!   (`msm8974`, `biglittle-a15a7`) with per-cluster DVFS tables, power
//!   coefficients, task-to-cluster affinity, and a cited migration-cost
//!   model — the `--soc <name>` axis of every layer above.
//! * [`counters`] — the `perf`-style counters governors sample: retired
//!   instructions, busy cycles, L2 accesses/misses, per-core utilization.
//! * [`contention`] — the pure per-quantum fixed point coupling
//!   instruction rates, cache shares, and DRAM queuing latency.
//! * [`board`] — the assembled platform stepped in fixed quanta, with DVFS
//!   switch overhead accounting, a typed probe bus for observation, and
//!   [`snapshot`] checkpoint/fork support.
//!
//! The timing model is quantum-stepped (default 1 ms) rather than
//! cycle-accurate: per quantum each busy core retires
//! `f·dt / CPI_eff` instructions, where
//! `CPI_eff = CPI_base + MPI_L2 · miss_latency_cycles · overlap`.
//! Miss ratio and miss latency come from the cache and memory contention
//! models, so interference genuinely propagates into load time and energy —
//! the phenomenon the whole paper is about.
//!
//! # Example
//!
//! ```
//! use dora_soc::board::Board;
//! use dora_soc::task::LoopTask;
//! use dora_soc::SocProfile;
//! use dora_sim_core::SimDuration;
//!
//! let mut board = Board::new(SocProfile::msm8974().board_config(), 42);
//! board.assign(0, Box::new(LoopTask::compute_bound("spin", 1.0)))?;
//! let top = board.config().dvfs.max_frequency();
//! board.set_frequency(top)?;
//! board.step(SimDuration::from_millis(10));
//! assert!(board.counters(0).instructions > 0.0);
//! # Ok::<(), dora_soc::BoardError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod board;
pub mod cache;
pub mod config;
pub mod contention;
pub mod counters;
pub mod dvfs;
pub mod memory;
pub mod power;
pub mod profile;
pub mod snapshot;
pub mod task;
pub mod thermal;

pub use board::{Board, BoardConfig, BoardError};
pub use dvfs::{BusTier, DvfsTable, Frequency, Opp};
pub use profile::{ClusterConfig, ClusterId, MigrationCost, OperatingPoint, SocProfile};
pub use snapshot::BoardSnapshot;
pub use task::{PhaseProfile, Task};
