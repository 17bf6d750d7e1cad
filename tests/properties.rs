//! Property-based tests on the workspace's core invariants.
//!
//! These exercise the substrate with randomized inputs far outside the
//! curated paper workloads: conservation laws in the task machinery,
//! boundedness of the cache and memory contention models, regression
//! round-trips, bit-exact determinism of whole-board simulations, and
//! energy accounting that closes on every registered SoC profile.

use dora_repro::browser::PageFeatures;
use dora_repro::modeling::surface::{ResponseSurface, SurfaceKind};
use dora_repro::sim::stats::Samples;
use dora_repro::sim::{Rng, SimDuration};
use dora_repro::soc::board::Board;
use dora_repro::soc::cache::{CacheDemand, SharedCache};
use dora_repro::soc::dvfs::BusTier;
use dora_repro::soc::memory::MemorySystem;
use dora_repro::soc::task::{CyclicTask, LoopTask, PhaseProfile, PhasedTask, Task};
use dora_repro::soc::{ClusterId, SocProfile};
use dora_repro::units::Seconds;
use proptest::prelude::*;

/// Whether `a` and `b` agree to a relative tolerance of 1e-9.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

fn arb_profile() -> impl Strategy<Value = PhaseProfile> {
    (
        0.5f64..3.0,
        0.0f64..60.0,
        0.0f64..16e6,
        0.0f64..1.0,
        0.05f64..1.0,
    )
        .prop_map(|(cpi, apki, ws, reuse, duty)| PhaseProfile {
            base_cpi: cpi,
            l2_apki: apki,
            working_set_bytes: ws,
            reuse_fraction: reuse,
            duty_cycle: duty,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A PhasedTask retires exactly its budget, no matter how the work is
    /// delivered.
    #[test]
    fn phased_task_conserves_instructions(
        budgets in prop::collection::vec(1.0f64..1e7, 1..6),
        chunks in prop::collection::vec(1.0f64..5e6, 1..200),
    ) {
        let phases: Vec<(f64, PhaseProfile)> = budgets
            .iter()
            .map(|&b| (b, PhaseProfile::compute_bound()))
            .collect();
        let total: f64 = budgets.iter().sum();
        let mut task = PhasedTask::new("p", phases);
        for c in chunks {
            task.retire(c);
        }
        prop_assert!(task.retired() <= total + 1e-6);
        let invariant = task.retired() + task.remaining_instructions();
        prop_assert!((invariant - total).abs() < 1e-3);
    }

    /// A CyclicTask never finishes and its cycle counter matches the work
    /// delivered.
    #[test]
    fn cyclic_task_cycles_match_work(
        budget in 10.0f64..1e5,
        reps in 1u32..50,
    ) {
        let mut task = CyclicTask::new(
            "c",
            vec![(budget, PhaseProfile::compute_bound())],
        );
        task.retire(budget * f64::from(reps));
        prop_assert!(!task.is_finished());
        prop_assert_eq!(task.completed_cycles(), u64::from(reps));
    }

    /// The shared-cache apportionment never over-allocates and always
    /// produces miss ratios in [0, 1].
    #[test]
    fn cache_apportionment_is_bounded(
        capacity_mib in 0.5f64..8.0,
        demands in prop::collection::vec(
            (0.0f64..2e8, 0.0f64..2e7, 0.0f64..1.0),
            1..6
        ),
    ) {
        let cache = SharedCache::new(capacity_mib * 1024.0 * 1024.0);
        let demands: Vec<CacheDemand> = demands
            .into_iter()
            .map(|(rate, ws, reuse)| CacheDemand {
                access_rate: rate,
                working_set: ws,
                reuse_fraction: reuse,
            })
            .collect();
        let shares = cache.apportion(&demands);
        let total: f64 = shares.iter().map(|s| s.allocated_bytes).sum();
        prop_assert!(total <= cache.capacity_bytes() * (1.0 + 1e-9));
        for (share, demand) in shares.iter().zip(&demands) {
            prop_assert!((0.0..=1.0).contains(&share.miss_ratio));
            prop_assert!(share.allocated_bytes >= -1e-9);
            prop_assert!(share.allocated_bytes <= demand.working_set + 1e-6);
        }
    }

    /// DRAM latency is monotone in demand and bounded for every tier.
    #[test]
    fn memory_latency_monotone_and_bounded(
        demands in prop::collection::vec(0.0f64..2e10, 2..20),
    ) {
        let mem = MemorySystem::lpddr3();
        let mut sorted = demands.clone();
        sorted.sort_by(f64::total_cmp);
        for tier in BusTier::ALL {
            let mut last = Seconds::ZERO;
            for &d in &sorted {
                let lat = mem.miss_latency(tier, d);
                prop_assert!(lat >= last);
                prop_assert!(lat.value().is_finite());
                prop_assert!(lat >= mem.params(tier).base_latency);
                last = lat;
            }
        }
    }

    /// Linear response surfaces recover randomly drawn linear models
    /// essentially exactly.
    #[test]
    fn linear_surface_roundtrip(
        seed in 0u64..1000,
        intercept in -10.0f64..10.0,
        w0 in -5.0f64..5.0,
        w1 in -5.0f64..5.0,
        w2 in -5.0f64..5.0,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|_| vec![rng.range_f64(-3.0, 3.0), rng.range_f64(0.0, 10.0), rng.range_f64(-1.0, 1.0)])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| intercept + w0 * x[0] + w1 * x[1] + w2 * x[2])
            .collect();
        let fit = ResponseSurface::new(SurfaceKind::Linear, 3)
            .fit(&xs, &ys)
            .expect("well posed");
        let mut probe = Rng::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..10 {
            let x = vec![
                probe.range_f64(-3.0, 3.0),
                probe.range_f64(0.0, 10.0),
                probe.range_f64(-1.0, 1.0),
            ];
            let truth = intercept + w0 * x[0] + w1 * x[1] + w2 * x[2];
            prop_assert!((fit.predict(&x) - truth).abs() < 1e-6 * (1.0 + truth.abs()));
        }
    }

    /// Quantiles of a sample set are monotone in the quantile parameter
    /// and bracketed by min/max.
    #[test]
    fn samples_quantiles_monotone(
        values in prop::collection::vec(-1e6f64..1e6, 1..200),
        qs in prop::collection::vec(0.0f64..=1.0, 2..10),
    ) {
        let samples: Samples = values.iter().copied().collect();
        let mut sorted_q = qs.clone();
        sorted_q.sort_by(f64::total_cmp);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut last = f64::NEG_INFINITY;
        for q in sorted_q {
            let v = samples.quantile(q);
            prop_assert!(v >= last);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            last = v;
        }
    }

    /// Whole-board simulation is bit-exact deterministic in (seed, work).
    #[test]
    fn board_simulation_is_deterministic(
        seed in 0u64..500,
        profile in arb_profile(),
        millis in 20u64..200,
    ) {
        let run = || {
            let mut board = Board::new(dora_soc::SocProfile::msm8974().board_config(), seed);
            let task = dora_repro::soc::task::LoopTask::new("t", profile);
            board.assign(0, Box::new(task)).expect("fresh board");
            board
                .set_frequency(dora_repro::soc::Frequency::from_mhz(1497.6))
                .expect("table frequency");
            board.step(SimDuration::from_millis(millis));
            (
                board.energy().value().to_bits(),
                board.counters(0).instructions.to_bits(),
                board.temperature().value().to_bits(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Synthesized pages are always structurally valid and their feature
    /// vector matches the accessors.
    #[test]
    fn synthesized_pages_valid(seed in 0u64..2000, complexity in 0.0f64..=1.0) {
        let mut rng = Rng::seed_from_u64(seed);
        let page = PageFeatures::synthesize(&mut rng, complexity);
        let v = page.as_vector();
        prop_assert_eq!(v[0] as u32, page.dom_nodes());
        prop_assert!(page.a_tags() + page.div_tags() <= page.dom_nodes());
        // Re-constructing through the validating constructor succeeds.
        let rebuilt = PageFeatures::new(
            page.dom_nodes(),
            page.class_attrs(),
            page.href_attrs(),
            page.a_tags(),
            page.div_tags(),
        );
        prop_assert!(rebuilt.is_ok());
    }

    /// Energy accounting closes on every registered profile under random
    /// per-cluster frequency programs and migrations: the total equals
    /// the itemized breakdown, it equals the per-quantum power integrated
    /// over time plus one migration charge per real migration, and a
    /// no-op migration charges nothing.
    #[test]
    fn energy_accounting_closes_on_every_profile(
        browser in arb_profile(),
        corunner in arb_profile(),
        work in 1e6f64..5e7,
        program in prop::collection::vec(
            (0usize..4, 0usize..16, 0usize..4, 0usize..4, 1usize..4),
            1..40,
        ),
    ) {
        for name in SocProfile::names() {
            let config = SocProfile::by_name(name).expect("registered").board_config();
            let clusters = config.clusters.len();
            let migration = config.migration.energy.value();
            let quantum = config.quantum;
            let dt = quantum.as_secs_f64();
            let mut board = Board::new(config, 11);
            board
                .assign(0, Box::new(PhasedTask::new("main", vec![(work, browser)])))
                .expect("free core");
            board.assign(1, Box::new(LoopTask::new("aux", browser))).expect("free core");
            board.assign(2, Box::new(LoopTask::new("hog", corunner))).expect("free core");
            let mut integrated = 0.0;
            for &(cluster, opp, core, to, quanta) in &program {
                let cluster = ClusterId::new(cluster % clusters);
                let table = &board.config().clusters[cluster.index()].dvfs;
                let f = table.opp(opp % table.len()).frequency;
                board.set_cluster_frequency(cluster, f).expect("own table entry");
                let to = ClusterId::new(to % clusters);
                let before = board.energy();
                let real = board.cluster_of(core) != to;
                board.migrate(core, to).expect("valid core and cluster");
                if real {
                    integrated += migration;
                } else {
                    prop_assert_eq!(board.energy(), before, "{}: no-op migration charged", name);
                }
                for _ in 0..quanta {
                    board.step(quantum);
                    integrated += board.last_power().total().value() * dt;
                }
                let energy = board.energy().value();
                let itemized = board.energy_breakdown().total().value();
                prop_assert!(close(energy, itemized), "{}: {} J vs itemized {} J", name, energy, itemized);
                prop_assert!(
                    close(energy, integrated),
                    "{}: {} J vs integrated {} J",
                    name,
                    energy,
                    integrated
                );
            }
        }
    }
}
