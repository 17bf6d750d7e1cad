//! Smoke tests of the benchmark at tiny sizes: the traced drivers agree
//! with the library they mirror, and every run reports exactly the metrics
//! `BENCHMARK.json` declares.

// Test code asserts invariants directly.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dora_benchmark::harness::{Metric, Options};
use dora_benchmark::session::Driver;
use dora_benchmark::{decide, fleet, run_workload, spec, MetricSpec, WORKLOADS};
use dora_campaign::driver::CampaignDriver;
use dora_governors::Governor;
use std::process::Command;

fn smoke(seed: u64, trace: bool) -> Options {
    Options {
        seed,
        trace,
        smoke: true,
    }
}

#[test]
fn traced_fleet_driver_reproduces_library_sheets_on_both_profiles() {
    for w in [fleet::STOCK, fleet::DORA_BIGLITTLE] {
        let s = fleet::setup(&w, &smoke(42, true)).unwrap();
        let library = CampaignDriver::new()
            .fleet(&s.config, s.models.as_ref())
            .unwrap();
        let mut driver = Driver::new(true);
        let sheets = driver.fleet(&s.config, s.models.as_ref()).unwrap();
        assert_eq!(sheets.as_slice(), library.sheets(), "{}", w.name);
        assert!(driver.tracer.span_count() > 0);
    }
}

#[test]
fn replay_reproduces_recorded_decisions() {
    let s = decide::setup(&smoke(42, false)).unwrap();
    let mut decisions = 0;
    for run in &s.runs {
        let mut governor = decide::governor(&s.models, &s.workloads[run.workload], run.deadline);
        for (observation, recorded) in &run.log {
            assert_eq!(governor.decide_point(observation), *recorded);
            decisions += 1;
        }
    }
    assert!(decisions > 1000, "only {decisions} decisions recorded");
}

fn assert_declared(metrics: &[Metric], declared: &[MetricSpec], context: &str) {
    let emitted: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    let expected: Vec<(&str, &str)> = declared
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(emitted, expected, "{context}");
    for m in metrics {
        assert!(m.value.is_finite(), "{context}: {} = {}", m.name, m.value);
    }
}

#[test]
fn every_declared_metric_is_emitted_and_seeds_change_only_the_inputs() {
    let spec = spec().unwrap();
    assert_eq!(spec.workloads, WORKLOADS);
    for w in WORKLOADS {
        let base = run_workload(w, &smoke(42, false)).unwrap();
        assert!(base.correct(), "{w}: {:?}", base.notes);
        assert_declared(&base.metrics, &spec.end_to_end, w);
        for m in &base.metrics {
            assert!(m.value > 0.0, "{w}: {} must never be 0", m.name);
        }
        let details: Vec<&str> = base.details.iter().map(|d| d.metric.name).collect();
        if w == decide::NAME {
            assert_eq!(
                details,
                ["decide_p50_us", "decide_p99_us", "decide_mean_us"]
            );
            assert!(base.details.iter().all(|d| d.metric.value > 0.0));
        } else {
            assert!(details.is_empty(), "{w}: {details:?}");
        }

        let traced = run_workload(w, &smoke(42, true)).unwrap();
        assert!(traced.correct(), "{w} traced: {:?}", traced.notes);
        assert_declared(&traced.metrics, &spec.per_layer, w);
        assert_eq!(
            traced.inputs, base.inputs,
            "{w}: inputs depend only on the seed"
        );

        let other = run_workload(w, &smoke(7, false)).unwrap();
        assert!(other.correct(), "{w} seed 7: {:?}", other.notes);
        assert_ne!(
            other.inputs, base.inputs,
            "{w}: the seed must change the inputs"
        );
        assert_declared(&other.metrics, &spec.end_to_end, w);
    }
}

#[test]
fn the_last_line_is_the_result_and_bad_input_reports_none() {
    let exe = env!("CARGO_BIN_EXE_dora-benchmark");
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-cli");
    let run_seconds = spec().unwrap().run_seconds;
    let run = Command::new(exe)
        .args([
            "--workload",
            "fleet-stock",
            "--smoke",
            "--seed",
            "3",
            "--seconds",
            &run_seconds.to_string(),
            "--trace",
            "0",
        ])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout).unwrap();
    let last = dora_benchmark::json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(std::fs::read_to_string(out_dir.join("runs.jsonl"))
        .unwrap()
        .contains("\"fleet-stock\""));

    for args in [
        vec!["--workload", "no-such-workload", "--smoke"],
        // The run length is fixed by BENCHMARK.json, not by the caller.
        vec!["--workload", "fleet-stock", "--smoke", "--seconds", "1"],
    ] {
        let bad = Command::new(exe).args(&args).output().unwrap();
        assert_eq!(bad.status.code(), Some(2), "{args:?}");
        assert!(bad.stdout.is_empty(), "{args:?}");
    }
    assert_ne!(run_seconds, 1.0);
}
