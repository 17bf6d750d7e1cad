//! One benchmark per paper exhibit: the cost of regenerating each table
//! and figure on the simulator substrate.
//!
//! The trained pipeline (the expensive, shared prerequisite) is built once
//! at the quick scale before timing starts; each benchmark then measures
//! the exhibit's own measurement campaign. `table02` is the baseline
//! no-simulation case.

#![expect(clippy::expect_used, reason = "benchmark setup fails fast")]

use criterion::{criterion_group, criterion_main, Criterion};
use dora_bench::heavy_criterion;
use dora_experiments::pipeline::{Pipeline, Scale};
use std::hint::black_box;
use std::sync::OnceLock;

fn pipeline() -> &'static Pipeline {
    static PIPELINE: OnceLock<Pipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| Pipeline::build(Scale::Quick, 42))
}

fn bench_exhibits(c: &mut Criterion) {
    let p = pipeline();

    c.bench_function("table02_device_spec", |b| {
        b.iter(|| black_box(dora_experiments::table02::run(&p.scenario.board).render()))
    });

    c.bench_function("table03_classification", |b| {
        b.iter(|| {
            let config = dora_experiments::table03::default_config();
            black_box(dora_experiments::table03::run(&config).all_consistent())
        })
    });

    c.bench_function("fig01_interference_range", |b| {
        b.iter(|| black_box(dora_experiments::fig01::run(&p.scenario).rows.len()))
    });

    c.bench_function("fig02_interference_cost", |b| {
        b.iter(|| black_box(dora_experiments::fig02::run(&p.scenario).rows.len()))
    });

    c.bench_function("fig03_fopt_regimes", |b| {
        b.iter(|| black_box(dora_experiments::fig03::run(&p.scenario).msn.fmax_ppw_loss))
    });

    // Fig. 5's full regeneration re-measures hundreds of loads; the
    // benchmarkable kernel is the model-evaluation pass over the cached
    // campaign (588 load-time + power predictions).
    c.bench_function("fig05_model_evaluation_588_predictions", |b| {
        b.iter(|| {
            black_box(
                dora::trainer::evaluate_models(&p.models, &p.observations)
                    .load_time
                    .mape,
            )
        })
    });

    c.bench_function("fig06_fopt_sensitivity", |b| {
        b.iter(|| black_box(dora_experiments::fig06::run(p, &p.scenario).fopt_is_robust()))
    });

    // Fig. 9's six cells each need an oracle sweep; benchmark one sweep
    // (14 pinned loads), the unit the figure scales by.
    c.bench_function("fig09_oracle_sweep_one_workload", |b| {
        use dora_campaign::driver::CampaignDriver;
        let workload = p.workloads.workloads()[0].clone();
        let driver = CampaignDriver::new();
        b.iter(|| black_box(driver.oracle(&workload, &p.scenario).fopt))
    });

    c.bench_function("fig10_leakage_ablation", |b| {
        b.iter(|| black_box(dora_experiments::fig10::run(p).leakage_advantage()))
    });

    c.bench_function("fig11_deadline_staircase", |b| {
        b.iter(|| black_box(dora_experiments::fig11::run(p).fe_plateau_ghz()))
    });

    // Overhead accounting over a 6-workload slice (the full exhibit runs
    // all 54; the per-workload cost is what matters here).
    c.bench_function("overhead_accounting_slice", |b| {
        use dora::{DoraConfig, DoraGovernor};
        use dora_campaign::runner::run_scenario;
        let slice: Vec<_> = p.workloads.workloads().iter().take(6).cloned().collect();
        b.iter(|| {
            let mut switches = 0;
            for w in &slice {
                let mut g =
                    DoraGovernor::new(p.models.clone(), w.page.features, DoraConfig::default());
                switches += run_scenario(w, &mut g, &p.scenario).switches;
            }
            black_box(switches)
        })
    });
}

/// Fig. 7 and Fig. 8 are 54-workload × multi-governor evaluations — a
/// full regeneration takes minutes, so the benchmark measures the same
/// machinery on a 6-workload slice (two pages × three intensities). The
/// figure binaries remain the way to regenerate the full exhibits.
fn bench_big_evaluations(c: &mut Criterion) {
    use dora_campaign::driver::CampaignDriver;
    use dora_campaign::evaluate::Policy;
    use dora_campaign::workload::WorkloadSet;
    let p = pipeline();
    let slice = WorkloadSet::from_workloads(
        p.workloads
            .workloads()
            .iter()
            .filter(|w| w.page.name == "Amazon")
            .cloned()
            .collect(),
    );
    let mut group = c.benchmark_group("evaluation_slices");
    group.sample_size(10);

    let driver = CampaignDriver::new();
    group.bench_function("fig07_machinery_3_workloads", |b| {
        b.iter(|| {
            black_box(
                driver
                    .evaluate(&slice, &Policy::FIG7, Some(&p.models), &p.scenario)
                    .expect("models supplied")
                    .results()
                    .len(),
            )
        })
    });

    group.bench_function("fig08_machinery_3_workloads_with_oracle", |b| {
        b.iter(|| {
            black_box(
                driver
                    .evaluate(&slice, &Policy::FIG8, Some(&p.models), &p.scenario)
                    .expect("models supplied")
                    .oracles()
                    .len(),
            )
        })
    });

    group.finish();
}

criterion_group! {
    name = exhibits;
    config = heavy_criterion();
    targets = bench_exhibits, bench_big_evaluations
}
criterion_main!(exhibits);
