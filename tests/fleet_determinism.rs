//! The fleet layer's determinism guarantee, end to end: a 1000-session
//! fleet must produce a byte-identical report — histogram bins, float
//! energy/battery sums, digest — at `--jobs 1`, `--jobs 4` and auto
//! width, and the digest is pinned against a golden constant so any
//! behavioural drift in the simulator, sampler or merge order fails
//! loudly rather than silently reshaping published numbers.
//!
//! `.github/workflows/ci.yml` pins the same machinery from the outside:
//! it runs `dora fleet --sessions 1000 --quick` (which adds the
//! powersave column, so the value differs from [`GOLDEN_DIGEST`]) and
//! compares against `tests/golden/fleet_digest.txt`. An intentional
//! simulator, sampler or merge-order change must re-pin both values in
//! the same commit, with the reason in the commit message.

#![expect(clippy::expect_used, reason = "test code asserts invariants directly")]

use dora_repro::campaign::driver::CampaignDriver;
use dora_repro::campaign::executor::{Executor, Parallelism};
use dora_repro::campaign::fleet::{FleetConfig, FleetReport};
use dora_repro::campaign::policy::Policy;
use dora_repro::sim::SimDuration;

/// The reference fleet: 1000 sessions over the default five-archetype
/// population, interactive vs performance, short warm-up. Matches
/// `dora fleet --sessions 1000 --quick` minus the powersave column.
fn reference_config() -> FleetConfig {
    FleetConfig {
        sessions: 1000,
        policies: vec![Policy::Interactive, Policy::Performance],
        warmup: SimDuration::from_secs(2),
        ..FleetConfig::default()
    }
}

fn run_at(parallelism: Parallelism) -> FleetReport {
    CampaignDriver::new()
        .executor(Executor::new(parallelism))
        .fleet(&reference_config(), None)
        .expect("baseline policies need no models")
}

#[test]
fn thousand_session_fleet_is_byte_identical_across_widths() {
    let sequential = run_at(Parallelism::Fixed(1));
    let fixed4 = run_at(Parallelism::Fixed(4));
    let auto = run_at(Parallelism::Auto);

    // Full structural equality: every bin count, every counter, every
    // float partial sum. Digest equality alone could mask a hash
    // collision; this cannot.
    assert_eq!(sequential, fixed4);
    assert_eq!(sequential, auto);

    assert_eq!(sequential.sessions, 1000);
    assert_eq!(sequential.shards, 4, "ceil(1000 / 256) shards");

    // The pinned golden digest. If this fails after an intentional
    // simulator or sampler change, re-pin it together with
    // tests/golden/fleet_digest.txt.
    let digest = format!("{:016x}", sequential.digest());
    assert_eq!(digest, GOLDEN_DIGEST, "fleet digest drifted");
}

/// See module docs: pinned output of the reference fleet.
const GOLDEN_DIGEST: &str = "3ca261ad16f1a327";
