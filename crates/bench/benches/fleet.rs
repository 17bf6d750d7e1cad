//! Fleet streaming throughput.
//!
//! The fleet layer's cost model is: warm once per archetype, then a
//! per-session fork + governed load, folded into O(shards) sketches.
//! This benchmark tracks sessions/second through the sharded executor
//! (the CI artifact that catches regressions in the fork path, the
//! sampler or the sketch fold), plus the pure aggregation cost of
//! merging shard reports, which bounds how cheap the streaming side of
//! the design stays as fleets scale.

#![expect(clippy::expect_used, reason = "benchmark setup fails fast")]

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dora_campaign::driver::CampaignDriver;
use dora_campaign::fleet::{FleetConfig, FleetReport, GovernorSheet};
use dora_campaign::policy::Policy;
use dora_sim_core::SimDuration;

const SESSIONS: u64 = 100;

fn quick_config() -> FleetConfig {
    FleetConfig {
        sessions: SESSIONS,
        policies: vec![Policy::Interactive],
        warmup: SimDuration::from_secs(2),
        ..FleetConfig::default()
    }
}

fn stream_sessions(c: &mut Criterion) {
    let driver = CampaignDriver::new();
    let config = quick_config();
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    group.bench_function("stream_100_sessions", |b| {
        b.iter(|| {
            let report = driver.fleet(black_box(&config), None).expect("runs");
            black_box(report.digest())
        })
    });
    group.finish();
}

fn merge_shards(c: &mut Criterion) {
    // One populated shard report, merged repeatedly: the per-shard
    // aggregation overhead with the simulation factored out.
    let mut shard = FleetReport::empty(42, &["interactive"]);
    shard.shards = 1;
    shard.sessions = 256;
    let mut group = c.benchmark_group("fleet");
    group.bench_function("merge_shard_report", |b| {
        b.iter(|| {
            let mut merged = FleetReport::empty(42, &["interactive"]);
            for _ in 0..64 {
                merged.merge(black_box(&shard)).expect("same shape");
            }
            black_box(merged.digest())
        })
    });
    group.bench_function("record_session", |b| {
        let mut sheet = GovernorSheet::new("interactive");
        b.iter(|| {
            sheet.load_time.record(black_box(1.75));
            sheet.ppw.record(black_box(0.21));
            black_box(sheet.load_time.count())
        })
    });
    group.finish();
}

criterion_group!(benches, stream_sessions, merge_shards);
criterion_main!(benches);
