//! Property-based tests of the browsing-session runner and the streaming
//! statistics it reports through.

#![allow(
    clippy::disallowed_methods,
    reason = "tests compare quantities against plain-number references"
)]

mod common;

use dora_repro::browser::{Catalog, PageFeatures};
use dora_repro::campaign::session::{run_session, SessionConfig, SessionResult};
use dora_repro::coworkloads::Kernel;
use dora_repro::dora::{DoraConfig, DoraGovernor};
use dora_repro::governors::{
    Governor, GovernorObservation, InteractiveGovernor, PerformanceGovernor,
};
use dora_repro::sim::sketch::Digest64;
use dora_repro::sim::stats::Running;
use dora_repro::sim::{Rng, SimDuration};
use dora_repro::soc::{DvfsTable, Frequency, OperatingPoint, SocProfile};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Session accounting is internally consistent for any itinerary and
    /// think time, and fully deterministic per seed.
    #[test]
    fn session_accounting_consistent(
        seed in 0u64..100,
        think_s in 1u64..6,
        page_picks in prop::collection::vec(0usize..18, 1..4),
    ) {
        let catalog = Catalog::alexa18();
        let pages: Vec<_> = page_picks
            .iter()
            .map(|&i| &catalog.pages()[i])
            .collect();
        let config = SessionConfig {
            seed,
            think_time: SimDuration::from_secs(think_s),
            ..SessionConfig::default()
        };
        let run = |config: &SessionConfig| {
            let mut g = InteractiveGovernor::new(DvfsTable::default());
            run_session(&pages, None, &mut g, config)
        };
        let r = run(&config);
        prop_assert_eq!(r.loads.len(), pages.len());
        // Duration covers every load plus every think period.
        let load_total: f64 = r.loads.iter().map(|l| l.load_time.value()).sum();
        let think_total = think_s as f64 * pages.len() as f64;
        prop_assert!(r.duration.value() >= load_total + think_total - 0.01);
        // Loads cannot be instantaneous or absurd.
        for l in &r.loads {
            prop_assert!(l.load_time.value() > 0.05, "{l:?}");
            prop_assert!(l.load_time.value() <= 60.0, "{l:?}");
        }
        // Energy and power are physical.
        prop_assert!(r.energy.value() > 0.0);
        let p = r.mean_power().value();
        prop_assert!((1.0..7.0).contains(&p), "mean power {p}");
        // Bit-exact determinism.
        let again = run(&config);
        prop_assert_eq!(r, again);
    }

    /// More pages never costs less total energy (monotone workload).
    #[test]
    fn longer_sessions_cost_more(seed in 0u64..50) {
        let catalog = Catalog::alexa18();
        let config = SessionConfig {
            seed,
            think_time: SimDuration::from_secs(2),
            ..SessionConfig::default()
        };
        let short: Vec<_> = catalog.pages().iter().take(1).collect();
        let long: Vec<_> = catalog.pages().iter().take(3).collect();
        let mut g = PerformanceGovernor::new(DvfsTable::default());
        let a = run_session(&short, None, &mut g, &config);
        let mut g = PerformanceGovernor::new(DvfsTable::default());
        let b = run_session(&long, None, &mut g, &config);
        prop_assert!(b.energy > a.energy);
        prop_assert!(b.duration > a.duration);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Welford moments agree with the naive two-pass computation.
    #[test]
    fn running_matches_naive(values in prop::collection::vec(-1e4f64..1e4, 1..200)) {
        let mut r = Running::new();
        for &v in &values {
            r.push(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((r.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((r.variance() - var).abs() < 1e-4 * (1.0 + var));
    }

    /// Merging accumulators in any split position matches the whole.
    #[test]
    fn running_merge_any_split(
        values in prop::collection::vec(-1e3f64..1e3, 2..100),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((values.len() as f64 * split_frac) as usize).min(values.len() - 1);
        let mut whole = Running::new();
        let mut left = Running::new();
        let mut right = Running::new();
        for (i, &v) in values.iter().enumerate() {
            whole.push(v);
            if i < split {
                left.push(v);
            } else {
                right.push(v);
            }
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-8 * (1.0 + whole.mean().abs()));
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-6 * (1.0 + whole.variance()));
    }

    /// The simulator PRNG's range functions respect their bounds for any
    /// seed and any (ordered) bounds.
    #[test]
    fn rng_ranges_respect_bounds(
        seed in 0u64..10_000,
        lo in -1e6f64..1e6,
        width in 1e-3f64..1e6,
        n_lo in 0u64..1_000_000,
        n_width in 1u64..1_000_000,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..32 {
            let x = rng.range_f64(lo, lo + width);
            prop_assert!(x >= lo && x < lo + width);
            let k = rng.range_u64(n_lo, n_lo + n_width);
            prop_assert!(k >= n_lo && k <= n_lo + n_width);
        }
    }
}

/// Delegates to a governor and records every cluster a decision observed
/// the browser bound to: two distinct clusters mean the session migrated
/// the browser between decisions.
#[derive(Debug)]
struct ClusterWitness<G> {
    inner: G,
    observed: BTreeSet<usize>,
}

impl<G: Governor> Governor for ClusterWitness<G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decision_interval(&self) -> SimDuration {
        self.inner.decision_interval()
    }

    fn decide(&mut self, observation: &GovernorObservation) -> Frequency {
        self.inner.decide(observation)
    }

    fn decide_point(&mut self, observation: &GovernorObservation) -> OperatingPoint {
        self.observed.insert(observation.cluster);
        self.inner.decide_point(observation)
    }

    fn page_changed(&mut self, page: &PageFeatures) {
        self.inner.page_changed(page);
    }
}

/// Folds every field of a session result into `digest`, floats by bit
/// pattern.
fn digest_session(digest: &mut Digest64, r: &SessionResult) {
    digest.write_str(&r.governor);
    digest.write_f64(r.duration.value());
    digest.write_f64(r.energy.value());
    for load in &r.loads {
        digest.write_str(&load.page);
        digest.write_f64(load.load_time.value());
        digest.write_u64(u64::from(load.met_deadline));
    }
    digest.write_u64(r.switches);
    digest.write_f64(r.peak_temp.value());
}

/// Golden digest of two whole browsing sessions: `interactive` on the
/// msm8974 board, and DORA over synthetic models on `biglittle-a15a7`,
/// where the governor migrates the browser between clusters. It pins the
/// session loop's decision cadence, counter sampling and migration
/// branch across load and think phases. Re-pin only alongside an
/// intentional change to the simulator, a governor or the session loop.
#[test]
fn session_digest_is_pinned() {
    let catalog = Catalog::alexa18();
    let pages: Vec<_> = ["Reddit", "Amazon", "MSN"]
        .iter()
        .map(|name| catalog.page(name).expect("page in catalog"))
        .collect();
    let kernel = Kernel::by_name("backprop").expect("in suite");
    let config = SessionConfig {
        think_time: SimDuration::from_secs(2),
        ..SessionConfig::default()
    };
    let mut digest = Digest64::new();

    let mut interactive = InteractiveGovernor::new(DvfsTable::default());
    let r = run_session(&pages, Some(&kernel), &mut interactive, &config);
    assert!(r.switches > 0, "{r:?}");
    digest_session(&mut digest, &r);

    let biglittle = SessionConfig {
        board: SocProfile::biglittle_a15a7().board_config(),
        ..config
    };
    let models = common::synth_models(1.0, 0.03, 0.2, 3.0);
    let mut dora = ClusterWitness {
        inner: DoraGovernor::from_profile(
            &models,
            &biglittle.board,
            pages[0].features,
            DoraConfig::default(),
        ),
        observed: BTreeSet::new(),
    };
    let r = run_session(&pages, Some(&kernel), &mut dora, &biglittle);
    assert!(r.switches > 0, "{r:?}");
    assert!(
        dora.observed.len() > 1,
        "DORA never migrated the browser: clusters {:?}",
        dora.observed
    );
    digest_session(&mut digest, &r);

    assert_eq!(format!("{:016x}", digest.finish()), "acb6cc2da1d2f8ab");
}
