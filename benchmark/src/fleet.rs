//! The fleet workloads: `CampaignDriver::fleet` end to end.
//!
//! `fleet-stock` is the CI smoke fleet (`dora fleet --sessions 1000
//! --quick`): pure simulator substrate with stock governors and no
//! Algorithm 1, so a governor or Algorithm-1 change must read "no change"
//! there. `fleet-dora-biglittle` runs the same machinery on the big.LITTLE
//! profile with DORA in the loop, exercising the heterogeneous board
//! branch and the (cluster, F) search.

use crate::harness::{
    end_to_end, guarded, measure, per_layer, timed_setup, tracing_overhead_pct, Options, Outcome,
    Rep, JOBS,
};
use crate::probe::{Kernel, Reading};
use crate::session::Driver;
use dora::DoraModels;
use dora_campaign::driver::CampaignDriver;
use dora_campaign::executor::{Executor, Parallelism};
use dora_campaign::fleet::{DeviceArchetype, FleetConfig, FleetReport, SessionSampler};
use dora_campaign::policy::Policy;
use dora_experiments::pipeline::{Pipeline, Scale};
use dora_sim_core::sketch::Digest64;
use dora_sim_core::units::Seconds;
use dora_sim_core::SimDuration;
use dora_soc::SocProfile;

/// The pinned digest of the CI smoke fleet at seed 42.
const GOLDEN_DIGEST: &str = include_str!("../../tests/golden/fleet_digest.txt");

/// Fleet repetitions are read against the board-like kernel, in full: ten
/// runs on a host whose speed swung by 2x then spread 2-5 %.
const READING: Reading = Reading {
    kernel: Kernel::Board,
    exponent: 1.0,
};

/// One fleet workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct FleetWorkload {
    /// Workload name.
    pub name: &'static str,
    profile: fn() -> SocProfile,
    policies: &'static [Policy],
    sessions: u64,
    smoke_sessions: u64,
    /// Whether the golden digest applies at seed 42.
    golden: bool,
}

/// The CI smoke fleet: five MSM8974 archetypes, three stock governors.
pub const STOCK: FleetWorkload = FleetWorkload {
    name: "fleet-stock",
    profile: SocProfile::msm8974,
    policies: &[Policy::Interactive, Policy::Performance, Policy::Powersave],
    sessions: 1000,
    smoke_sessions: 24,
    golden: true,
};

/// The big.LITTLE fleet with DORA against the interactive baseline.
pub const DORA_BIGLITTLE: FleetWorkload = FleetWorkload {
    name: "fleet-dora-biglittle",
    profile: SocProfile::biglittle_a15a7,
    policies: &[Policy::Interactive, Policy::Dora],
    sessions: 2000,
    smoke_sessions: 16,
    golden: false,
};

impl FleetWorkload {
    fn needs_models(&self) -> bool {
        self.policies.iter().any(|p| p.needs_models())
    }

    /// The fleet configuration for `opts`.
    pub fn config(&self, opts: &Options) -> FleetConfig {
        FleetConfig {
            sessions: if opts.smoke {
                self.smoke_sessions
            } else {
                self.sessions
            },
            seed: opts.seed,
            shard_size: if opts.smoke { 8 } else { 256 },
            policies: self.policies.to_vec(),
            archetypes: DeviceArchetype::population_for(&(self.profile)()),
            deadline: Seconds::new(3.0),
            warmup: SimDuration::from_secs(2),
            ..FleetConfig::default()
        }
    }

    fn ops(&self, config: &FleetConfig) -> u64 {
        config.sessions * config.policies.len() as u64
    }
}

/// What set-up hands the timed phase.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The fleet configuration.
    pub config: FleetConfig,
    /// Trained models for DORA-family policies.
    pub models: Option<DoraModels>,
    /// Fingerprint of the sampled sessions (and models).
    pub inputs: u64,
}

/// Generates the fleet's inputs from the seed: the sampled session specs
/// (fingerprinted) and, when DORA runs, the quick-scale trained models.
/// Then warms the fleet code up on the smoke-size fleet.
///
/// # Errors
///
/// When the warm-up fleet fails.
pub fn setup(w: &FleetWorkload, opts: &Options) -> Result<Setup, String> {
    let config = w.config(opts);
    let sampler = SessionSampler::new(config.archetypes.clone());
    let mut digest = Digest64::new();
    for index in 0..config.sessions {
        let spec = sampler.sample(config.seed, index);
        digest.write_u64(spec.archetype as u64);
        digest.write_str(&spec.workload.id());
        digest.write_f64(spec.charge);
        digest.write_u64(spec.seed);
    }
    let models = if w.needs_models() {
        let executor = Executor::new(Parallelism::Fixed(JOBS));
        let models = Pipeline::build_with(Scale::Quick, opts.seed, &executor).models;
        digest.write_str(&dora::to_text(&models));
        Some(models)
    } else {
        None
    };
    let warm = w.config(&Options {
        smoke: true,
        ..opts.clone()
    });
    CampaignDriver::new()
        .executor(Executor::new(Parallelism::Fixed(JOBS)))
        .fleet(&warm, models.as_ref())
        .map_err(|e| format!("warm-up fleet: {e}"))?;
    Ok(Setup {
        config,
        models,
        inputs: digest.finish(),
    })
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure, or an unreadable peak-memory figure.
pub fn run(w: &FleetWorkload, opts: &Options) -> Result<Outcome, String> {
    let (s, setup_s) = timed_setup(opts, || setup(w, opts))?;
    let mut out = Outcome {
        inputs: s.inputs,
        ..Outcome::default()
    };
    if opts.trace {
        traced(w, opts, &s, &mut out)?;
        return Ok(out);
    }
    let driver = CampaignDriver::new().executor(Executor::new(Parallelism::Fixed(JOBS)));
    let ops = w.ops(&s.config);
    let golden = (w.golden && opts.seed == 42 && !opts.smoke).then(|| GOLDEN_DIGEST.trim());
    let mut reference: Option<FleetReport> = None;
    let reps = measure(opts, &mut out, READING, |out| {
        match guarded(|| driver.fleet(&s.config, s.models.as_ref()))
            .and_then(|r| r.map_err(|e| e.to_string()))
        {
            Ok(report) => {
                let digest = format!("{:016x}", report.digest());
                let same = reference.as_ref().is_none_or(|r| *r == report);
                let pinned = golden.is_none_or(|g| g == digest);
                if !same {
                    out.notes
                        .push(format!("rep digest {digest} differs from rep 1"));
                }
                if !pinned {
                    out.notes
                        .push(format!("rep digest {digest} is not the golden digest"));
                }
                reference.get_or_insert(report);
                Rep {
                    ops,
                    failed: if same && pinned { 0 } else { ops },
                    busy: None,
                }
            }
            Err(e) => {
                out.notes.push(format!("fleet failed: {e}"));
                Rep {
                    ops,
                    failed: ops,
                    busy: None,
                }
            }
        }
    })?;
    if let Some(report) = &reference {
        report_checks(report, &mut out);
        out.check(
            "golden",
            match golden {
                Some(g) => format!("{} (pinned {g})", g == format!("{:016x}", report.digest())),
                None => "not pinned at this seed/size".to_string(),
            },
        );
    }
    end_to_end(&mut out, &reps, &setup_s, "session-policy loads")?;
    Ok(out)
}

/// Digest and simulated outcomes of a fleet report.
fn report_checks(report: &FleetReport, out: &mut Outcome) {
    out.check("digest", format!("{:016x}", report.digest()));
    let load_s: f64 = report.sheets().iter().map(|s| s.load_time.sum()).sum();
    out.check("simulated_load_s", load_s);
    for sheet in report.sheets() {
        out.notes.push(format!(
            "{:<12} met {:6.2} %  battery {:.6} h  energy {:.3} J",
            sheet.governor,
            sheet.deadline_met_fraction() * 100.0,
            sheet.mean_battery_hours(),
            sheet.energy.value()
        ));
    }
    if let (Some(dora), Some(base)) = (report.sheet("DORA"), report.sheet("interactive")) {
        out.check(
            "battery_gain_pct",
            (dora.mean_battery_hours() / base.mean_battery_hours() - 1.0) * 100.0,
        );
        out.check(
            "dora_deadline_met_pct",
            dora.deadline_met_fraction() * 100.0,
        );
    }
}

/// The traced run: the library's fleet as the reference, then the
/// bench-side driver over the same sessions with spans on.
fn traced(w: &FleetWorkload, opts: &Options, s: &Setup, out: &mut Outcome) -> Result<(), String> {
    let models = s.models.as_ref();
    let reference = guarded(|| {
        CampaignDriver::new()
            .executor(Executor::new(Parallelism::Fixed(JOBS)))
            .fleet(&s.config, models)
    })?
    .map_err(|e| e.to_string())?;
    report_checks(&reference, out);

    // Tracing overhead: the first shard driven with spans off, then on.
    let subset = FleetConfig {
        sessions: s.config.shard_size.min(s.config.sessions),
        ..s.config.clone()
    };
    let overhead = tracing_overhead_pct(|d| d.fleet(&subset, models));

    let mut d = Driver::new(true);
    let ops = w.ops(&s.config);
    out.attempted = ops;
    match guarded(|| d.fleet(&s.config, models)) {
        Ok(Ok(sheets)) => out.gate(
            "traced fleet sheets equal CampaignDriver::fleet",
            sheets.as_slice() == reference.sheets(),
            ops,
        ),
        Ok(Err(e)) | Err(e) => {
            out.notes.push(format!("traced fleet failed: {e}"));
            out.failed = ops;
        }
    }
    per_layer(out, &d, overhead);
    out.trace = Some(d.tracer.to_json(w.name, opts.seed));
    Ok(())
}
