//! Sequential vs parallel campaign throughput.
//!
//! Measures the same fixed slice of the evaluation grid and the oracle
//! sweep through `Executor::sequential()` and a multi-worker executor,
//! so the reported times are directly comparable (the work is identical
//! — the executor guarantees bit-identical results). Expect the
//! multi-worker runs to approach `jobs×` on idle machines; the scaling
//! headroom is the whole point of the campaign executor.

#![expect(clippy::expect_used, reason = "benchmark setup fails fast")]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dora_campaign::driver::CampaignDriver;
use dora_campaign::evaluate::Policy;
use dora_campaign::runner::ScenarioConfig;
use dora_campaign::workload::WorkloadSet;
use dora_campaign::{Executor, Parallelism};
use dora_coworkloads::Intensity;
use dora_sim_core::SimDuration;

fn quick_config() -> ScenarioConfig {
    ScenarioConfig::builder()
        .warmup(SimDuration::from_secs(2))
        .build()
}

/// Six workloads × two stock policies: a 12-scenario grid, small enough
/// to sample yet wide enough to expose scaling.
fn bench_slice() -> WorkloadSet {
    let all = WorkloadSet::paper54();
    WorkloadSet::from_workloads(
        all.workloads()
            .iter()
            .filter(|w| ["Amazon", "MSN", "Reddit"].contains(&w.page.name))
            .cloned()
            .collect(),
    )
}

fn campaign_throughput(c: &mut Criterion) {
    let set = bench_slice();
    let config = quick_config();
    let policies = [Policy::Interactive, Policy::Performance];
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    for (label, executor) in [
        ("sequential", Executor::sequential()),
        ("parallel", Executor::auto()),
    ] {
        let driver = CampaignDriver::new().executor(executor);
        group.bench_function(label, |b| {
            b.iter(|| {
                let eval = driver
                    .evaluate(
                        black_box(&set),
                        black_box(&policies),
                        None,
                        black_box(&config),
                    )
                    .expect("no models needed");
                black_box(eval.results().len())
            })
        });
    }
    group.finish();
}

fn oracle_sweep_throughput(c: &mut Criterion) {
    let all = WorkloadSet::paper54();
    let workload = all
        .find_by_class("Amazon", Intensity::Low)
        .expect("present")
        .clone();
    let config = quick_config();
    let mut group = c.benchmark_group("oracle_sweep");
    group.sample_size(10);
    for (label, executor) in [
        ("sequential", Executor::sequential()),
        ("parallel", Executor::auto()),
    ] {
        let driver = CampaignDriver::new().executor(executor);
        group.bench_function(label, |b| {
            b.iter(|| {
                let o = driver.oracle(black_box(&workload), black_box(&config));
                black_box(o.fopt)
            })
        });
    }
    group.finish();
}

fn executor_overhead(c: &mut Criterion) {
    // The fan-out machinery itself, without simulation inside: how much
    // the queue + ordered collection cost per item.
    let items: Vec<u64> = (0..1024).collect();
    let mut group = c.benchmark_group("executor_overhead");
    for (label, executor) in [
        ("sequential", Executor::sequential()),
        ("fixed4", Executor::new(Parallelism::Fixed(4))),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let out = executor.map(black_box(&items), |&x| x.wrapping_mul(2685821657736338717));
                black_box(out.len())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = dora_bench::heavy_criterion();
    targets = campaign_throughput, oracle_sweep_throughput, executor_overhead
}
criterion_main!(benches);
