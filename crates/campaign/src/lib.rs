//! # dora-campaign
//!
//! Workload construction, measurement campaigns and governor evaluation —
//! the reproduction of the paper's experimental methodology (Section IV).
//!
//! * [`workload`] — the 54 multiprogrammed workloads: 18 Alexa pages, each
//!   co-scheduled with a kernel from the low, medium and high memory
//!   intensity categories; split into 42 Webpage-Inclusive (training) and
//!   12 Webpage-Neutral (held-out) combinations.
//! * [`runner`] — the scenario runner: browser on cores 0–1, co-runner on
//!   core 2, core 3 off, a governor in the loop at its decision cadence
//!   ([`runner::GovernedLoop`], the one owner of the decision protocol),
//!   a thermal warm-up phase, and per-load metrics (load time, energy,
//!   mean power, PPW, deadline verdict, DVFS switches).
//! * [`training`] — the offline measurement sweeps: the >300-observation
//!   load-time/power campaign over the training workloads and frequency
//!   table, and the idle voltage×ambient leakage calibration.
//! * [`evaluate`] — the full 54-workload comparison with summaries
//!   normalized to `interactive`.
//! * [`policy`] — the closed [`policy::Policy`] set of paper policies
//!   (interactive, performance, DL, EE, Offline_opt, DORA, DORA_no_lkg),
//!   their governor factory [`policy::Policy::governor`], and the open
//!   [`policy::PolicyName`] identities result rows carry.
//! * [`executor`] — deterministic fan-out of independent scenario runs
//!   across a scoped thread pool; output is bit-identical to the
//!   sequential loop at any width.
//! * [`driver`] — the [`driver::CampaignDriver`] context object: the
//!   executor every campaign grid fans out across.
//! * [`fleet`] — fleet-scale simulation: 10⁴–10⁶ sampled device sessions
//!   streamed through sharded, mergeable sketches; memory stays
//!   O(shards) and reports are byte-identical at any executor width.
//! * [`export`] — CSV export of raw results for plotting tools.
//! * [`session`] — multi-page browsing sessions with think time, for
//!   battery-life-style comparisons beyond the paper's single loads.
//!
//! # Example
//!
//! ```no_run
//! use dora_campaign::workload::WorkloadSet;
//! use dora_campaign::runner::{run_scenario, ScenarioConfig};
//! use dora_governors::{Governor, InteractiveGovernor};
//! use dora_soc::DvfsTable;
//!
//! let set = WorkloadSet::paper54();
//! let w = &set.workloads()[0];
//! let mut governor = InteractiveGovernor::new(DvfsTable::default());
//! let result = run_scenario(w, &mut governor, &ScenarioConfig::default());
//! println!("{} loaded in {}", w.id(), result.load_time);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        reason = "tests compare quantities against plain-number references"
    )
)]

pub mod driver;
pub mod evaluate;
pub mod executor;
pub mod export;
pub mod fleet;
pub mod policy;
pub mod runner;
pub mod session;
pub mod training;
pub mod workload;

pub use driver::CampaignDriver;
pub use executor::{Executor, Parallelism};
pub use fleet::{FleetConfig, FleetError, FleetReport};
pub use policy::{Policy, PolicyName};
pub use runner::{run_scenario, RunResult, ScenarioConfig};
pub use workload::{Workload, WorkloadSet};
