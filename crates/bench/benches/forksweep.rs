//! Fork-at-warmup vs full-re-run frequency sweeps.
//!
//! Under `WarmupPolicy::Pinned` the warm-up prefix is frequency-
//! invariant, so `sweep_frequencies_with` simulates it once, snapshots,
//! and forks 14 per-frequency continuations; the reference
//! `sweep_frequencies_rerun_with` re-runs the warm-up for every point.
//! Both produce bit-identical `SweepPoint`s (asserted in the campaign
//! tests) — this benchmark quantifies the speedup, which grows with the
//! warm-up share of the scenario. Both sides run on the sequential
//! executor so the comparison isolates the algorithmic saving from
//! thread-level scaling.

#![expect(clippy::expect_used, reason = "benchmark setup fails fast")]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dora_campaign::runner::{
    sweep_frequencies_rerun_with, sweep_frequencies_with, ScenarioConfig, WarmupPolicy,
};
use dora_campaign::workload::WorkloadSet;
use dora_campaign::Executor;
use dora_coworkloads::Intensity;
use dora_sim_core::SimDuration;
use dora_soc::Frequency;

fn sweep_speedup(c: &mut Criterion) {
    let all = WorkloadSet::paper54();
    let workload = all
        .find_by_class("Amazon", Intensity::Low)
        .expect("present")
        .clone();
    let config = ScenarioConfig::builder()
        .warmup(SimDuration::from_secs(5))
        .warmup_policy(WarmupPolicy::Pinned(Frequency::from_mhz(1497.6)))
        .build();
    let frequencies: Vec<Frequency> = config.board.dvfs.frequencies().collect();
    assert_eq!(frequencies.len(), 14, "full Nexus 5 table");
    let executor = Executor::sequential();

    let mut group = c.benchmark_group("sweep_warmup_reuse");
    group.sample_size(10);
    group.bench_function("full_rerun", |b| {
        b.iter(|| {
            let sweep = sweep_frequencies_rerun_with(
                black_box(&workload),
                black_box(&config),
                black_box(&frequencies),
                &executor,
            );
            black_box(sweep.len())
        })
    });
    group.bench_function("fork_at_warmup", |b| {
        b.iter(|| {
            let sweep = sweep_frequencies_with(
                black_box(&workload),
                black_box(&config),
                black_box(&frequencies),
                &executor,
            );
            black_box(sweep.len())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = dora_bench::heavy_criterion();
    targets = sweep_speedup
}
criterion_main!(benches);
