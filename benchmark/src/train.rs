//! `train-full`: the paper's offline phase at full scale.
//!
//! One repetition is what every DORA user waits on before the governor
//! exists: the training campaign (42 Webpage-Inclusive workloads × 14
//! pinned frequencies, each re-simulating its 20 s measured warm-up), the
//! idle leakage calibration (5 ambients × 14 operating points, 60 s soaks)
//! and the fit. It uses the board unlike the fleet does — pinned clocks,
//! warm-up dominated, and task-free soaks where contention is empty — so a
//! board optimisation tuned to the fleet's task mix must not cost it.
//! Set-up builds the scenario and the workload lists and warms the offline
//! phase up at smoke size; the 12 held-out (Webpage-Neutral) workloads the
//! trained models are scored on are measured once after it, since they
//! only feed a check.

use crate::harness::{
    end_to_end, guarded, measure, per_layer, timed_setup, tracing_overhead_pct, Options, Outcome,
    Rep, JOBS,
};
use crate::probe::{Kernel, Reading};
use crate::session::Driver;
use crate::trace::Kind;
use dora::models::PredictorInputs;
use dora::trainer::{evaluate_models, train, TrainerConfig, TrainingObservation};
use dora::DoraModels;
use dora_campaign::driver::CampaignDriver;
use dora_campaign::executor::{Executor, Parallelism};
use dora_campaign::runner::ScenarioConfig;
use dora_campaign::training::{measure_observation, TrainingCampaignConfig};
use dora_campaign::workload::{Workload, WorkloadSet};
use dora_governors::PinnedGovernor;
use dora_modeling::leakage::{fit_leakage, LeakageObservation};
use dora_sim_core::sketch::Digest64;
use dora_sim_core::units::{Celsius, Watts};
use dora_sim_core::SimDuration;
use dora_soc::board::{Board, BoardConfig};
use dora_soc::Frequency;

/// Workload name.
pub const NAME: &str = "train-full";

/// The leakage calibration's idle soak per operating point, and the board
/// seed it soaks with.
const SOAK: SimDuration = SimDuration::from_secs(60);
const SOAK_SEED: u64 = 7;

/// Training repetitions are read against the board-like kernel but follow
/// it only partly: read in full, ten runs spread 7-10 %, and with the
/// kernel's slowdown to the power 0.6, 4-5 %.
const READING: Reading = Reading {
    kernel: Kernel::Board,
    exponent: 0.6,
};

/// What set-up hands the timed phase.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The campaign's scenario (seeded from `--seed`).
    pub scenario: ScenarioConfig,
    /// The Webpage-Inclusive training workloads.
    pub training: WorkloadSet,
    /// Leakage-calibration ambients.
    pub ambients: Vec<Celsius>,
    /// The Webpage-Neutral workloads the models are scored on.
    pub neutral: Vec<Workload>,
}

/// One repetition's products.
#[derive(Debug, Clone, PartialEq)]
struct Trained {
    observations: Vec<TrainingObservation>,
    leakage: Vec<LeakageObservation>,
    models: DoraModels,
}

fn digest_observations(digest: &mut Digest64, observations: &[TrainingObservation]) {
    for o in observations {
        digest.write_f64(o.load_time.value());
        digest.write_f64(o.total_power.value());
        digest.write_f64(o.mean_temp.value());
        digest.write_f64(o.inputs.l2_mpki.value());
        digest.write_f64(o.inputs.corun_utilization.value());
    }
}

/// Builds the seeded scenario and the training, leakage and held-out
/// workload lists, then warms the offline phase up on the smoke-size lists.
///
/// # Errors
///
/// When the warm-up training fails.
pub fn setup(opts: &Options) -> Result<Setup, String> {
    train_once(&lists(opts.seed, true)).map_err(|e| format!("warm-up training: {e}"))?;
    Ok(lists(opts.seed, opts.smoke))
}

/// The seeded scenario and the workload lists, full or smoke-size.
fn lists(seed: u64, smoke: bool) -> Setup {
    let scenario = ScenarioConfig::builder().seed(seed).build();
    let all = WorkloadSet::paper54();
    let (training, neutral, ambients): (Vec<Workload>, Vec<Workload>, Vec<f64>) = if smoke {
        (
            all.inclusive().step_by(7).cloned().collect(),
            all.neutral().take(1).cloned().collect(),
            vec![15.0, 35.0],
        )
    } else {
        (
            all.inclusive().cloned().collect(),
            all.neutral().cloned().collect(),
            vec![5.0, 15.0, 25.0, 35.0, 45.0],
        )
    };
    Setup {
        scenario,
        training: WorkloadSet::from_workloads(training),
        ambients: ambients.into_iter().map(Celsius::new).collect(),
        neutral,
    }
}

/// Measures the held-out workloads at every table frequency, and
/// fingerprints the observations.
fn measure_held_out(s: &Setup) -> (Vec<TrainingObservation>, u64) {
    let freqs: Vec<Frequency> = s.scenario.board.dvfs.frequencies().collect();
    let grid: Vec<(&Workload, Frequency)> = s
        .neutral
        .iter()
        .flat_map(|w| freqs.iter().map(move |&f| (w, f)))
        .collect();
    let observations = Executor::new(Parallelism::Fixed(JOBS))
        .map(&grid, |&(w, f)| measure_observation(w, f, &s.scenario));
    let mut digest = Digest64::new();
    digest_observations(&mut digest, &observations);
    (observations, digest.finish())
}

/// One full offline phase through the library.
fn train_once(s: &Setup) -> Result<Trained, String> {
    let driver = CampaignDriver::new().executor(Executor::new(Parallelism::Fixed(JOBS)));
    let observations = driver.training_campaign(
        &s.training,
        &TrainingCampaignConfig {
            scenario: s.scenario.clone(),
            frequencies: None,
        },
    );
    let leakage = driver.leakage_calibration(&s.scenario.board, &s.ambients);
    let models = train(
        &observations,
        &leakage,
        &s.scenario.board.dvfs,
        TrainerConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    models.validate().map_err(|e| e.to_string())?;
    Ok(Trained {
        observations,
        leakage,
        models,
    })
}

fn ops(s: &Setup) -> u64 {
    let freqs = s.scenario.board.dvfs.len() as u64;
    s.training.inclusive().count() as u64 * freqs + s.ambients.len() as u64 * freqs
}

/// Runs the workload.
///
/// # Errors
///
/// A set-up failure, or an unreadable peak-memory figure.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (s, setup_s) = timed_setup(opts, || setup(opts))?;
    let (held_out, inputs) = measure_held_out(&s);
    let mut out = Outcome {
        inputs,
        ..Outcome::default()
    };
    if opts.trace {
        traced(opts, &s, &held_out, &mut out)?;
        return Ok(out);
    }
    let points = ops(&s);
    let mut reference: Option<Trained> = None;
    let reps = measure(opts, &mut out, READING, |out| {
        match guarded(|| train_once(&s)) {
            Ok(Ok(trained)) => {
                let same = reference.as_ref().is_none_or(|r| *r == trained);
                if !same {
                    out.notes
                        .push("training differs from repetition 1".to_string());
                }
                reference.get_or_insert(trained);
                Rep {
                    ops: points,
                    failed: if same { 0 } else { points },
                    busy: None,
                }
            }
            Ok(Err(e)) | Err(e) => {
                out.notes.push(format!("training failed: {e}"));
                Rep {
                    ops: points,
                    failed: points,
                    busy: None,
                }
            }
        }
    })?;
    if let Some(trained) = &reference {
        score(&trained.models, &held_out, &mut out);
    }
    end_to_end(&mut out, &reps, &setup_s, "training points")?;
    Ok(out)
}

/// Held-out accuracy of the trained models (the paper's Section V-A
/// figures) plus the models' fingerprint.
fn score(models: &DoraModels, held_out: &[TrainingObservation], out: &mut Outcome) {
    let eval = evaluate_models(models, held_out);
    out.check("model_time_mape_pct", eval.load_time.mape * 100.0);
    out.check("model_power_mape_pct", eval.power.mape * 100.0);
    let mut digest = Digest64::new();
    digest.write_str(&dora::to_text(models));
    out.check("models_digest", format!("{:016x}", digest.finish()));
    let finite = eval.load_time.mape.is_finite() && eval.power.mape.is_finite();
    out.gate("held-out model error is finite", finite, 0);
}

/// The board of one leakage soak: the base board at `ambient`.
fn soak_board(base: &BoardConfig, ambient: Celsius) -> BoardConfig {
    BoardConfig {
        thermal: dora_soc::thermal::ThermalParams {
            ambient,
            ..base.thermal
        },
        ..base.clone()
    }
}

/// The traced phase: training points `points` and (when `soaks`) every
/// leakage soak through the bench-side driver, then the fit. Returns how
/// many outputs differed from `reference`.
fn traced_phase(
    d: &mut Driver,
    s: &Setup,
    reference: &Trained,
    held_out: &[TrainingObservation],
    points: std::ops::Range<usize>,
    soaks: bool,
) -> Result<u64, String> {
    let freqs: Vec<Frequency> = s.scenario.board.dvfs.frequencies().collect();
    let grid: Vec<(&Workload, Frequency)> = s
        .training
        .inclusive()
        .flat_map(|w| freqs.iter().map(move |&f| (w, f)))
        .collect();
    let mut mismatches = 0u64;
    let mut observations = Vec::with_capacity(points.len());
    for i in points {
        let (w, f) = grid[i];
        d.tracer.set_op(i as u64);
        let obs = d.span_result(Kind::TrainingPoint, |d| {
            let mut pinned = PinnedGovernor::new("train", f);
            let r = d.run(w, &mut pinned, &s.scenario)?;
            Ok(TrainingObservation {
                inputs: PredictorInputs::for_frequency(
                    w.page.features,
                    f,
                    &s.scenario.board.dvfs,
                    r.mean_mpki,
                    r.corun_utilization,
                ),
                load_time: r.load_time,
                total_power: r.mean_power,
                mean_temp: r.final_temp,
            })
        })?;
        mismatches += u64::from(reference.observations.get(i) != Some(&obs));
        observations.push(obs);
    }
    if !soaks {
        return Ok(mismatches);
    }
    let base = &s.scenario.board;
    let soak_grid: Vec<(Celsius, dora_soc::Opp)> = s
        .ambients
        .iter()
        .flat_map(|&a| base.dvfs.opps().iter().map(move |&opp| (a, opp)))
        .collect();
    let mut leakage = Vec::with_capacity(soak_grid.len());
    for (j, &(ambient, opp)) in soak_grid.iter().enumerate() {
        d.tracer.set_op((grid.len() + j) as u64);
        let obs = d.span_result(Kind::TrainingSoak, |d| {
            let mut board = d.tracer.span(Kind::BoardNew, |_| {
                Board::new(soak_board(base, ambient), SOAK_SEED)
            });
            board
                .set_frequency(opp.frequency)
                .map_err(|e| e.to_string())?;
            let quantum = board.config().quantum;
            let mut left = SOAK;
            while !left.is_zero() {
                let dt = if left < quantum { left } else { quantum };
                d.tracer.span(Kind::BoardStep, |_| board.step(dt));
                left = left.saturating_sub(dt);
            }
            d.tally.soak_sim_s += SOAK.as_secs_f64();
            let idle_power = board.last_power().total();
            let platform = board.config().power.platform_floor;
            Ok(LeakageObservation {
                voltage: opp.voltage,
                temp: board.temperature(),
                power: (idle_power - platform).max(Watts::ZERO),
            })
        })?;
        mismatches += u64::from(reference.leakage.get(j) != Some(&obs));
        leakage.push(obs);
    }
    let models = d
        .tracer
        .span(Kind::TrainerTrain, |_| {
            train(
                &observations,
                &leakage,
                &s.scenario.board.dvfs,
                TrainerConfig::default(),
            )
        })
        .map_err(|e| e.to_string())?;
    mismatches += u64::from(models != reference.models);
    d.tracer
        .span(Kind::LeakageFit, |_| {
            fit_leakage(&leakage, TrainerConfig::default().seed)
        })
        .map_err(|e| e.to_string())?;
    d.tracer.span(Kind::TrainerEvaluate, |_| {
        evaluate_models(&models, held_out)
    });
    Ok(mismatches)
}

fn traced(
    opts: &Options,
    s: &Setup,
    held_out: &[TrainingObservation],
    out: &mut Outcome,
) -> Result<(), String> {
    let reference = guarded(|| train_once(s))??;
    score(&reference.models, held_out, out);
    let points = reference.observations.len();

    // Tracing overhead on the first training workload's frequency sweep.
    let subset = 0..s.scenario.board.dvfs.len().min(points);
    let overhead =
        tracing_overhead_pct(|d| traced_phase(d, s, &reference, held_out, subset.clone(), false));

    let mut d = Driver::new(true);
    out.attempted = ops(s);
    match guarded(|| traced_phase(&mut d, s, &reference, held_out, 0..points, true)) {
        Ok(Ok(mismatches)) => out.gate(
            "traced training points, soaks and fit reproduce the library",
            mismatches == 0,
            mismatches,
        ),
        Ok(Err(e)) | Err(e) => {
            out.notes.push(format!("traced training failed: {e}"));
            out.failed = out.attempted;
        }
    }
    per_layer(out, &d, overhead);
    out.trace = Some(d.tracer.to_json(NAME, opts.seed));
    Ok(())
}
