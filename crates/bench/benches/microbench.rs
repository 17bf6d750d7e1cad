//! Microbenchmarks of the hot paths.
//!
//! `algorithm1_select_frequency` is the headline: it is the *actual*
//! compute DORA spends every 100 ms decision interval, so its wall-clock
//! cost here directly substantiates the Section V-H "< 1 % overhead"
//! claim (a few microseconds per decision against a 100 ms period).
//! `algorithm1_select_operating_point_biglittle` runs the same sweep over
//! both clusters of the big.LITTLE profile.

#![expect(clippy::expect_used, reason = "benchmark setup fails fast")]

use criterion::{criterion_group, criterion_main, Criterion};
use dora::models::PredictorInputs;
use dora_browser::catalog::Catalog;
use dora_browser::engine::RenderEngine;
use dora_experiments::pipeline::{Pipeline, Scale};
use dora_modeling::leakage::Eq5Params;
use dora_sim_core::units::{Celsius, Mpki, Seconds, Utilization};
use dora_sim_core::SimDuration;
use dora_soc::board::Board;
use dora_soc::cache::{CacheDemand, SharedCache};
use dora_soc::task::LoopTask;
use dora_soc::Frequency;
use std::hint::black_box;
use std::sync::OnceLock;

fn pipeline() -> &'static Pipeline {
    static PIPELINE: OnceLock<Pipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| Pipeline::build(Scale::Quick, 42))
}

fn bench_algorithm(c: &mut Criterion) {
    let p = pipeline();
    let page = Catalog::alexa18().page("Reddit").expect("present").features;

    c.bench_function("algorithm1_select_frequency", |b| {
        b.iter(|| {
            black_box(dora::select_frequency(
                &p.models,
                black_box(page),
                Seconds::new(3.0),
                black_box(Mpki::clamped(6.5)),
                Utilization::clamped(0.8),
                Celsius::new(45.0),
                true,
            ))
        })
    });

    // The (cluster, F) search over the big.LITTLE product space: both
    // clusters' tables, the A7 paying migration cost from the A15.
    let board = dora_soc::SocProfile::biglittle_a15a7().board_config();
    let clusters = dora::ClusterModel::from_profile(&p.models, &board);
    let current = dora_soc::OperatingPoint {
        cluster: dora_soc::ClusterId::PRIMARY,
        frequency: clusters[0].models.dvfs.max_frequency(),
    };
    c.bench_function("algorithm1_select_operating_point_biglittle", |b| {
        b.iter(|| {
            black_box(dora::select_operating_point(
                &clusters,
                current,
                board.migration,
                black_box(page),
                Seconds::new(3.0),
                black_box(Mpki::clamped(6.5)),
                Utilization::clamped(0.8),
                Celsius::new(45.0),
                true,
            ))
        })
    });

    let inputs = PredictorInputs::for_frequency(
        page,
        Frequency::from_mhz(1497.6),
        &p.models.dvfs,
        Mpki::clamped(6.5),
        Utilization::clamped(0.8),
    );
    c.bench_function("load_time_prediction", |b| {
        b.iter(|| black_box(p.models.predict_load_time(black_box(&inputs))))
    });

    c.bench_function("eq5_leakage_eval", |b| {
        let params = Eq5Params {
            k1: 0.22,
            alpha: 800.0,
            beta: -4300.0,
            k2: 0.05,
            gamma: 2.0,
            delta: -2.0,
        };
        b.iter(|| black_box(params.eval(black_box(1.05), black_box(Celsius::new(55.0)))))
    });
}

fn bench_substrate(c: &mut Criterion) {
    c.bench_function("board_step_1ms_three_tasks", |b| {
        let mut board = Board::new(dora_soc::SocProfile::msm8974().board_config(), 7);
        board
            .set_frequency(Frequency::from_mhz(1497.6))
            .expect("table frequency");
        board
            .assign(0, Box::new(LoopTask::compute_bound("a", 1.0)))
            .expect("fresh");
        board
            .assign(1, Box::new(LoopTask::compute_bound("b", 0.8)))
            .expect("fresh");
        board
            .assign(
                2,
                Box::new(LoopTask::new(
                    "c",
                    dora_soc::task::PhaseProfile::streaming(25.0),
                )),
            )
            .expect("fresh");
        b.iter(|| {
            board.step(SimDuration::from_millis(1));
            black_box(board.energy())
        })
    });

    c.bench_function("cache_apportion_4way", |b| {
        let cache = SharedCache::new(2.0 * 1024.0 * 1024.0);
        let demands = [
            CacheDemand {
                access_rate: 3.0e7,
                working_set: 2.5e6,
                reuse_fraction: 0.8,
            },
            CacheDemand {
                access_rate: 1.5e7,
                working_set: 1.0e6,
                reuse_fraction: 0.6,
            },
            CacheDemand {
                access_rate: 5.0e7,
                working_set: 8.0e6,
                reuse_fraction: 0.3,
            },
            CacheDemand {
                access_rate: 4.0e6,
                working_set: 3.0e5,
                reuse_fraction: 0.9,
            },
        ];
        b.iter(|| black_box(cache.apportion(black_box(&demands))))
    });

    c.bench_function("full_page_load_simulation", |b| {
        let catalog = Catalog::alexa18();
        let page = catalog.page("Amazon").expect("present");
        let engine = RenderEngine::default();
        b.iter(|| {
            let job = engine.spawn(page, 7);
            let mut board = Board::new(dora_soc::SocProfile::msm8974().board_config(), 7);
            board
                .set_frequency(Frequency::from_mhz(2265.6))
                .expect("table frequency");
            board.assign(0, Box::new(job.main)).expect("fresh");
            board.assign(1, Box::new(job.aux)).expect("fresh");
            while !board.task_finished(0) {
                board.step(SimDuration::from_millis(10));
            }
            black_box(board.finish_time(0))
        })
    });
}

fn bench_training(c: &mut Criterion) {
    let p = pipeline();
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    group.bench_function("surface_fit_interaction", |b| {
        b.iter(|| {
            black_box(dora::trainer::train(
                &p.observations,
                &p.leakage_observations,
                &p.scenario.board.dvfs,
                dora::trainer::TrainerConfig::default(),
            ))
        })
    });
    group.bench_function("leakage_fit_lm", |b| {
        b.iter(|| {
            black_box(dora_modeling::leakage::fit_leakage(
                &p.leakage_observations,
                7,
            ))
        })
    });
    group.finish();
}

criterion_group! {
    name = microbench;
    config = dora_bench::heavy_criterion();
    targets = bench_algorithm, bench_substrate, bench_training
}
criterion_main!(microbench);
