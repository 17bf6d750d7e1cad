//! The per-quantum contention fixed point, extracted from the board.
//!
//! Each quantum, how fast every core retires instructions depends on its
//! effective CPI, which depends on the shared-L2 miss ratios, which
//! depend on every core's access rate (occupancy is rate-proportional),
//! which depends on... how fast every core retires instructions. The
//! DRAM bus closes a second loop: total miss traffic raises the queuing
//! delay behind each miss (Section II-B's interference channel).
//!
//! [`ContentionSolver`] resolves both loops by damped functional
//! iteration over a fixed budget of [`FIXED_POINT_ITERATIONS`] rounds:
//!
//! 1. seed instruction rates at the contention-free `duty·f/CPI_base`;
//! 2. derive cache demands, apportion the L2, derive miss ratios;
//! 3. sum DRAM demand, evaluate the bus queuing latency;
//! 4. recompute `CPI_eff = CPI_base + APKI·miss·latency·f·overlap` and
//!    the implied rates; repeat.
//!
//! [`ContentionSolver::solve`] is the one entry point. Every profile
//! retires at its own core clock, so a big.LITTLE board's tasks run at
//! their clusters' frequencies while still sharing the L2 and the DRAM
//! bus; a homogeneous board passes the same clock for every profile.
//!
//! The solver is pure (no board state, no observers) and reuses its
//! buffers across calls, so the steady-state hot path allocates nothing.
//! The arithmetic is kept operation-for-operation identical to the
//! pre-extraction inline loop in `board.rs`; the golden tests below pin
//! that equivalence.

use crate::cache::{ApportionScratch, CacheDemand, CacheShare, SharedCache};
use crate::dvfs::BusTier;
use crate::memory::MemorySystem;
use crate::task::PhaseProfile;

/// Number of rounds of functional iteration. Four is enough for the
/// realistic profile space — the convergence property test holds the
/// residual after this budget under 1%.
pub const FIXED_POINT_ITERATIONS: usize = 4;

/// The per-quantum operating point the fixed point is solved under.
///
/// Fields are crate-internal: the board assembles this from its
/// configuration and current OPPs each quantum. The core clocks are
/// per profile, passed to [`ContentionSolver::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionParams {
    /// Memory-bus tier, voted by the fastest cluster clock.
    pub(crate) tier: BusTier,
    /// Fraction of miss latency that is *not* hidden by MLP (the
    /// board's `mem_overlap`).
    pub(crate) mem_overlap: f64,
    /// Fraction of evictions that are dirty and cost a write-back.
    pub(crate) dirty_fraction: f64,
}

/// Reusable solver for the CPI ↔ cache-share ↔ DRAM-latency fixed point.
///
/// Call [`ContentionSolver::solve`] once per quantum; read the results
/// back through the accessors. The output slices are indexed like the
/// input `profiles` slice.
#[derive(Debug, Clone, Default)]
pub struct ContentionSolver {
    instr_rates: Vec<f64>,
    miss_ratios: Vec<f64>,
    demands: Vec<CacheDemand>,
    shares: Vec<CacheShare>,
    scratch: ApportionScratch,
    dram_demand: f64,
}

impl ContentionSolver {
    /// A fresh solver with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves the fixed point for the active-task `profiles` under the
    /// standard [`FIXED_POINT_ITERATIONS`] budget. `clocks[i]` is the
    /// core clock (Hz) profile `i` retires at.
    ///
    /// # Panics
    ///
    /// Panics if `clocks.len() != profiles.len()`.
    pub fn solve(
        &mut self,
        cache: &SharedCache,
        memory: &MemorySystem,
        params: &ContentionParams,
        profiles: &[PhaseProfile],
        clocks: &[f64],
    ) {
        assert_eq!(clocks.len(), profiles.len(), "one clock per profile");
        self.solve_inner(
            cache,
            memory,
            params,
            profiles,
            |i| clocks[i],
            FIXED_POINT_ITERATIONS,
        );
    }

    /// The fixed-point loop under an explicit iteration budget; only the
    /// convergence test runs it with another budget than
    /// [`FIXED_POINT_ITERATIONS`]. `clock(i)` is the core clock (Hz)
    /// profile `i` retires at. It is a closure rather than a slice
    /// because the generic form inlines into the board's quantum step:
    /// a slice-taking loop stepped an idle msm8974 board about 30 %
    /// slower (release build, 2-vCPU x86-64 VM).
    fn solve_inner(
        &mut self,
        cache: &SharedCache,
        memory: &MemorySystem,
        params: &ContentionParams,
        profiles: &[PhaseProfile],
        clock: impl Fn(usize) -> f64,
        iterations: usize,
    ) {
        let n = profiles.len();
        self.instr_rates.clear();
        for (i, p) in profiles.iter().enumerate() {
            self.instr_rates.push(p.duty_cycle * clock(i) / p.base_cpi);
        }
        self.miss_ratios.clear();
        self.miss_ratios.resize(n, 0.0);
        self.dram_demand = 0.0;
        for _ in 0..iterations {
            self.demands.clear();
            for (p, &r) in profiles.iter().zip(&self.instr_rates) {
                self.demands.push(CacheDemand {
                    access_rate: r * p.l2_apki / 1000.0,
                    working_set: p.working_set_bytes,
                    reuse_fraction: p.reuse_fraction,
                });
            }
            cache.apportion_into(&self.demands, &mut self.shares, &mut self.scratch);
            self.dram_demand = 0.0;
            for i in 0..n {
                self.miss_ratios[i] = self.shares[i].miss_ratio;
                let miss_rate = self.demands[i].access_rate * self.shares[i].miss_ratio;
                self.dram_demand +=
                    MemorySystem::demand_from_miss_rate(miss_rate, params.dirty_fraction);
            }
            let latency = memory.miss_latency(params.tier, self.dram_demand);
            for (i, p) in profiles.iter().enumerate() {
                let miss_cycles = (p.l2_apki / 1000.0)
                    * self.miss_ratios[i]
                    * latency.value()
                    * clock(i)
                    * params.mem_overlap;
                let cpi_eff = p.base_cpi + miss_cycles;
                self.instr_rates[i] = p.duty_cycle * clock(i) / cpi_eff;
            }
        }
    }

    /// Converged instructions-per-second for each profile.
    pub fn instr_rates(&self) -> &[f64] {
        &self.instr_rates
    }

    /// Converged shared-L2 miss ratio for each profile.
    pub fn miss_ratios(&self) -> &[f64] {
        &self.miss_ratios
    }

    /// Total DRAM bandwidth demand (bytes/s) implied by the converged
    /// miss traffic.
    pub fn dram_demand(&self) -> f64 {
        self.dram_demand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The stock middle frequency of the msm8974 fixture (1497.6 MHz),
    /// in Hz: the clock every fixture core runs at.
    const F_HZ: f64 = 1_497_600_000.0;

    /// The msm8974 board's operating point at [`F_HZ`], pulled from the
    /// same config the simulator runs under.
    fn fixture() -> (SharedCache, MemorySystem, ContentionParams) {
        let config = crate::profile::SocProfile::msm8974().board_config();
        let cache = SharedCache::new(config.l2_capacity_bytes);
        let tier = config
            .dvfs
            .bus_tier(crate::dvfs::Frequency::from_khz(1_497_600));
        let params = ContentionParams {
            tier,
            mem_overlap: config.mem_overlap,
            dirty_fraction: config.dirty_fraction,
        };
        (cache, config.memory, params)
    }

    /// One clock per profile, every core at [`F_HZ`].
    fn uniform(profiles: &[PhaseProfile]) -> Vec<f64> {
        vec![F_HZ; profiles.len()]
    }

    /// The pre-refactor single-clock inline computation from `board.rs`,
    /// transcribed verbatim (allocating `Vec`s, `apportion`), as the
    /// golden reference the extracted solver must match bit-for-bit when
    /// every core runs at `f_hz`.
    fn reference_fixed_point(
        cache: &SharedCache,
        memory: &MemorySystem,
        params: &ContentionParams,
        profiles: &[PhaseProfile],
        f_hz: f64,
    ) -> (Vec<f64>, Vec<f64>, f64) {
        let n = profiles.len();
        let mut instr_rates: Vec<f64> = profiles
            .iter()
            .map(|p| p.duty_cycle * f_hz / p.base_cpi)
            .collect();
        let mut miss_ratios = vec![0.0f64; n];
        let mut dram_demand = 0.0f64;
        for _ in 0..FIXED_POINT_ITERATIONS {
            let demands: Vec<CacheDemand> = profiles
                .iter()
                .zip(&instr_rates)
                .map(|(p, &r)| CacheDemand {
                    access_rate: r * p.l2_apki / 1000.0,
                    working_set: p.working_set_bytes,
                    reuse_fraction: p.reuse_fraction,
                })
                .collect();
            let shares = cache.apportion(&demands);
            dram_demand = 0.0;
            for i in 0..n {
                miss_ratios[i] = shares[i].miss_ratio;
                let miss_rate = demands[i].access_rate * shares[i].miss_ratio;
                dram_demand +=
                    MemorySystem::demand_from_miss_rate(miss_rate, params.dirty_fraction);
            }
            let latency = memory.miss_latency(params.tier, dram_demand);
            for i in 0..n {
                let p = &profiles[i];
                let miss_cycles = (p.l2_apki / 1000.0)
                    * miss_ratios[i]
                    * latency.value()
                    * f_hz
                    * params.mem_overlap;
                let cpi_eff = p.base_cpi + miss_cycles;
                instr_rates[i] = p.duty_cycle * f_hz / cpi_eff;
            }
        }
        (instr_rates, miss_ratios, dram_demand)
    }

    fn profile(cpi: f64, apki: f64, ws_mib: f64, reuse: f64, duty: f64) -> PhaseProfile {
        PhaseProfile {
            base_cpi: cpi,
            l2_apki: apki,
            working_set_bytes: ws_mib * 1024.0 * 1024.0,
            reuse_fraction: reuse,
            duty_cycle: duty,
        }
    }

    /// A strategy over plausible task profiles, spanning compute-bound
    /// through streaming behavior.
    fn any_profile() -> impl Strategy<Value = PhaseProfile> {
        (
            0.6f64..4.0,
            0.1f64..80.0,
            0.01f64..16.0,
            0.0f64..=0.95,
            0.05f64..=1.0,
        )
            .prop_map(|(cpi, apki, ws, reuse, duty)| profile(cpi, apki, ws, reuse, duty))
    }

    #[test]
    fn matches_pre_refactor_computation_on_pinned_golden_vector() {
        let (cache, memory, params) = fixture();
        // The scenario the paper cares about: browser main + aux threads
        // plus a streaming memory hog, with one idle-ish task mixed in.
        let profiles = [
            profile(1.1, 6.0, 1.5, 0.85, 0.9),
            profile(1.3, 3.0, 0.5, 0.8, 0.4),
            profile(0.9, 45.0, 8.0, 0.1, 1.0),
            profile(2.0, 0.5, 0.05, 0.9, 0.1),
        ];
        let mut solver = ContentionSolver::new();
        solver.solve(&cache, &memory, &params, &profiles, &uniform(&profiles));
        let (rates, misses, dram) =
            reference_fixed_point(&cache, &memory, &params, &profiles, F_HZ);
        // Bit-for-bit: the extraction must not change a single rounding.
        assert_eq!(solver.instr_rates(), rates.as_slice());
        assert_eq!(solver.miss_ratios(), misses.as_slice());
        assert_eq!(solver.dram_demand().to_bits(), dram.to_bits());
        // And the golden vector itself is anchored: the hog saturates its
        // share while the browser suffers visibly.
        assert!(misses[2] > 0.85, "hog miss ratio {}", misses[2]);
        assert!(misses[0] > 0.15, "victim under pressure {}", misses[0]);
        assert!(rates[0] < F_HZ / 1.1, "victim slower than solo");
    }

    #[test]
    fn solver_reuse_across_calls_does_not_leak_state() {
        let (cache, memory, params) = fixture();
        let heavy = [
            profile(1.1, 6.0, 1.5, 0.85, 0.9),
            profile(0.9, 45.0, 8.0, 0.1, 1.0),
        ];
        let light = [profile(1.1, 6.0, 1.5, 0.85, 0.9)];
        let mut reused = ContentionSolver::new();
        reused.solve(&cache, &memory, &params, &heavy, &uniform(&heavy));
        reused.solve(&cache, &memory, &params, &light, &uniform(&light));
        let mut fresh = ContentionSolver::new();
        fresh.solve(&cache, &memory, &params, &light, &uniform(&light));
        assert_eq!(reused.instr_rates(), fresh.instr_rates());
        assert_eq!(reused.miss_ratios(), fresh.miss_ratios());
        assert_eq!(
            reused.dram_demand().to_bits(),
            fresh.dram_demand().to_bits()
        );
    }

    #[test]
    fn per_core_clocks_slow_only_the_downclocked_core() {
        let (cache, memory, params) = fixture();
        let profiles = [
            profile(1.1, 6.0, 1.5, 0.85, 0.9),
            profile(1.1, 6.0, 1.5, 0.85, 0.9),
        ];
        let mut solver = ContentionSolver::new();
        // Core 1 on a half-speed LITTLE cluster.
        solver.solve(&cache, &memory, &params, &profiles, &[F_HZ, F_HZ / 2.0]);
        let rates = solver.instr_rates();
        assert!(
            rates[1] < rates[0] * 0.6,
            "downclocked core should retire ~half as fast: {rates:?}"
        );
    }

    #[test]
    fn empty_profile_set_is_a_clean_no_op() {
        let (cache, memory, params) = fixture();
        let mut solver = ContentionSolver::new();
        solver.solve(&cache, &memory, &params, &[], &[]);
        assert!(solver.instr_rates().is_empty());
        assert!(solver.miss_ratios().is_empty());
        assert_eq!(solver.dram_demand(), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The extracted solver matches the pre-refactor inline loop
        /// bit-for-bit on arbitrary profile mixes, not just the golden
        /// vector.
        #[test]
        fn matches_reference_on_generated_profiles(
            profiles in proptest::collection::vec(any_profile(), 1..5),
        ) {
            let (cache, memory, params) = fixture();
            let mut solver = ContentionSolver::new();
            solver.solve(&cache, &memory, &params, &profiles, &uniform(&profiles));
            let (rates, misses, dram) =
                reference_fixed_point(&cache, &memory, &params, &profiles, F_HZ);
            prop_assert_eq!(solver.instr_rates(), rates.as_slice());
            prop_assert_eq!(solver.miss_ratios(), misses.as_slice());
            prop_assert_eq!(solver.dram_demand().to_bits(), dram.to_bits());
        }

        /// The fixed point settles within the 4-iteration budget: one
        /// extra round moves every instruction rate by under 1%.
        #[test]
        fn converges_within_iteration_budget(
            profiles in proptest::collection::vec(any_profile(), 1..5),
        ) {
            let (cache, memory, params) = fixture();
            let mut at_budget = ContentionSolver::new();
            let clocks = uniform(&profiles);
            at_budget.solve_inner(
                &cache, &memory, &params, &profiles, |i| clocks[i], FIXED_POINT_ITERATIONS,
            );
            let mut one_more = ContentionSolver::new();
            one_more.solve_inner(
                &cache, &memory, &params, &profiles, |i| clocks[i], FIXED_POINT_ITERATIONS + 1,
            );
            for (a, b) in at_budget.instr_rates().iter().zip(one_more.instr_rates()) {
                let residual = (a - b).abs() / a.max(1.0);
                prop_assert!(
                    residual < 0.01,
                    "rate moved {residual:.4} past the budget ({a} -> {b})",
                );
            }
        }

        /// More co-runner demand never lowers the victim's miss ratio:
        /// scaling up the hog's access intensity can only squeeze the
        /// victim's occupancy harder.
        #[test]
        fn victim_miss_ratio_is_monotone_in_corunner_demand(
            victim in any_profile(),
            hog in any_profile(),
            scale in 1.0f64..4.0,
        ) {
            let (cache, memory, params) = fixture();
            let mut hotter = hog;
            hotter.l2_apki = (hog.l2_apki * scale).min(200.0);
            let mut base = ContentionSolver::new();
            base.solve(&cache, &memory, &params, &[victim, hog], &[F_HZ; 2]);
            let mut pressured = ContentionSolver::new();
            pressured.solve(&cache, &memory, &params, &[victim, hotter], &[F_HZ; 2]);
            prop_assert!(
                pressured.miss_ratios()[0] >= base.miss_ratios()[0] - 1e-9,
                "victim miss ratio dropped under pressure: {} -> {}",
                base.miss_ratios()[0],
                pressured.miss_ratios()[0],
            );
        }
    }
}
