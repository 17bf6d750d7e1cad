//! The per-quantum contention fixed point, extracted from the board.
//!
//! Each quantum, how fast every core retires instructions depends on its
//! effective CPI, which depends on the shared-L2 miss ratios, which
//! depend on every core's access rate (occupancy is rate-proportional),
//! which depends on... how fast every core retires instructions. The
//! DRAM bus closes a second loop: total miss traffic raises the queuing
//! delay behind each miss (Section II-B's interference channel).
//!
//! [`ContentionSolver`] resolves both loops by plain (undamped)
//! functional iteration over a fixed budget of
//! [`FIXED_POINT_ITERATIONS`] rounds; each round replaces the
//! instruction rates outright:
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
//! The solver owns the board's two constant inputs, the [`SharedCache`]
//! and the [`MemorySystem`], so a `solve` depends only on what changes
//! from quantum to quantum: the [`ContentionParams`], the profiles and
//! their clocks. Phases and operating points last far longer than a
//! quantum, so most calls repeat the previous call's inputs exactly.
//! The solver therefore keeps a copy of the last inputs and skips the
//! fixed point when the new ones are bit-identical: the outputs it still
//! holds are then the answer. The comparison is on `f64::to_bits`, never
//! `==`, because `-0.0 == 0.0` and `NaN != NaN`; the fixed point is a
//! deterministic function of those bits, so a hit is exact by
//! construction. The memo is that one entry, with no history.
//! [`ContentionSolver::solve`] returns whether the memo answered, which
//! the board counts (`Board::step_work`).
//!
//! The solver has no board state and no observers, and reuses its
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

/// Bitwise equality of two params: floats compare by `to_bits`.
fn same_params_bits(a: &ContentionParams, b: &ContentionParams) -> bool {
    // No `..`: a new field fails to compile until it joins the key.
    let ContentionParams {
        tier,
        mem_overlap,
        dirty_fraction,
    } = a;
    *tier == b.tier
        && mem_overlap.to_bits() == b.mem_overlap.to_bits()
        && dirty_fraction.to_bits() == b.dirty_fraction.to_bits()
}

/// Bitwise equality of two profiles: every field compares by `to_bits`.
fn same_profile_bits(a: &PhaseProfile, b: &PhaseProfile) -> bool {
    // No `..`: a new field fails to compile until it joins the key.
    let PhaseProfile {
        base_cpi,
        l2_apki,
        working_set_bytes,
        reuse_fraction,
        duty_cycle,
    } = a;
    base_cpi.to_bits() == b.base_cpi.to_bits()
        && l2_apki.to_bits() == b.l2_apki.to_bits()
        && working_set_bytes.to_bits() == b.working_set_bytes.to_bits()
        && reuse_fraction.to_bits() == b.reuse_fraction.to_bits()
        && duty_cycle.to_bits() == b.duty_cycle.to_bits()
}

/// Reusable solver for the CPI ↔ cache-share ↔ DRAM-latency fixed point.
///
/// Call [`ContentionSolver::solve`] once per quantum; read the results
/// back through the accessors. The output slices are indexed like the
/// input `profiles` slice.
#[derive(Debug, Clone)]
pub struct ContentionSolver {
    cache: SharedCache,
    memory: MemorySystem,
    instr_rates: Vec<f64>,
    miss_ratios: Vec<f64>,
    demands: Vec<CacheDemand>,
    shares: Vec<CacheShare>,
    scratch: ApportionScratch,
    dram_demand: f64,
    /// The memo: the inputs the outputs above were solved for. The
    /// params are `None` when the outputs came from anything but a
    /// standard-budget solve.
    last_params: Option<ContentionParams>,
    /// Each profile of the memoized call, with its clock.
    last_inputs: Vec<(PhaseProfile, f64)>,
}

impl ContentionSolver {
    /// A solver for a board with this L2 and memory system, with empty
    /// buffers and no memo.
    pub fn new(cache: SharedCache, memory: MemorySystem) -> Self {
        ContentionSolver {
            cache,
            memory,
            instr_rates: Vec::new(),
            miss_ratios: Vec::new(),
            demands: Vec::new(),
            shares: Vec::new(),
            scratch: ApportionScratch::default(),
            dram_demand: 0.0,
            last_params: None,
            last_inputs: Vec::new(),
        }
    }

    /// Solves the fixed point for the active-task `profiles` under the
    /// standard [`FIXED_POINT_ITERATIONS`] budget. `clocks[i]` is the
    /// core clock (Hz) profile `i` retires at. When every input is
    /// bit-identical to the previous call's, the outputs are already
    /// the answer and the fixed point is skipped. Returns whether it was
    /// skipped: a hit means every output is bit-identical to the
    /// previous call's.
    ///
    /// # Panics
    ///
    /// Panics if `clocks.len() != profiles.len()`.
    pub fn solve(
        &mut self,
        params: &ContentionParams,
        profiles: &[PhaseProfile],
        clocks: &[f64],
    ) -> bool {
        assert_eq!(clocks.len(), profiles.len(), "one clock per profile");
        if self.repeats_last(params, profiles, clocks) {
            return true;
        }
        self.solve_inner(params, profiles, |i| clocks[i], FIXED_POINT_ITERATIONS);
        self.last_params = Some(*params);
        self.last_inputs.clear();
        self.last_inputs
            .extend(profiles.iter().copied().zip(clocks.iter().copied()));
        false
    }

    /// Whether these inputs are bit-identical to the memoized ones.
    fn repeats_last(
        &self,
        params: &ContentionParams,
        profiles: &[PhaseProfile],
        clocks: &[f64],
    ) -> bool {
        self.last_params
            .as_ref()
            .is_some_and(|last| same_params_bits(last, params))
            && self.last_inputs.len() == profiles.len()
            && self
                .last_inputs
                .iter()
                .zip(profiles.iter().zip(clocks))
                .all(|((p, f), (q, g))| same_profile_bits(p, q) && f.to_bits() == g.to_bits())
    }

    /// The fixed-point loop under an explicit iteration budget; only the
    /// convergence test runs it with another budget than
    /// [`FIXED_POINT_ITERATIONS`]. It drops the memo, and only
    /// [`ContentionSolver::solve`] sets it again, so outputs from another
    /// budget are never served as a hit. `clock(i)` is the core clock
    /// (Hz) profile `i` retires at. It is a closure rather than a slice
    /// because the generic form inlines into the board's quantum step:
    /// a slice-taking loop stepped an idle msm8974 board about 30 %
    /// slower (release build, 2-vCPU x86-64 VM).
    fn solve_inner(
        &mut self,
        params: &ContentionParams,
        profiles: &[PhaseProfile],
        clock: impl Fn(usize) -> f64,
        iterations: usize,
    ) {
        self.last_params = None;
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
            self.cache
                .apportion_into(&self.demands, &mut self.shares, &mut self.scratch);
            self.dram_demand = 0.0;
            for i in 0..n {
                self.miss_ratios[i] = self.shares[i].miss_ratio;
                let miss_rate = self.demands[i].access_rate * self.shares[i].miss_ratio;
                self.dram_demand +=
                    MemorySystem::demand_from_miss_rate(miss_rate, params.dirty_fraction);
            }
            let latency = self.memory.miss_latency(params.tier, self.dram_demand);
            for (i, p) in profiles.iter().enumerate() {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "seconds × Hz is a cycle count, which has no unit type; the operand order is pinned"
                )]
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

    /// The msm8974 board's L2, memory system and operating point at
    /// [`F_HZ`], pulled from the same config the simulator runs under.
    fn fixture() -> (SharedCache, MemorySystem, ContentionParams) {
        fixture_for("msm8974")
    }

    /// [`fixture`] for any registered SoC profile.
    fn fixture_for(name: &str) -> (SharedCache, MemorySystem, ContentionParams) {
        let config = crate::profile::SocProfile::by_name(name)
            .expect("registered profile")
            .board_config();
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

    /// The raw bits of each float, for bitwise comparison.
    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// One call's inputs, as the memo walk below mutates them.
    #[derive(Debug, Clone)]
    struct Inputs {
        params: ContentionParams,
        profiles: Vec<PhaseProfile>,
        clocks: Vec<f64>,
    }

    impl Inputs {
        /// The `k`-th float input, counting every profile field (`base_cpi`
        /// only when `with_cpi`), then every clock, then `mem_overlap`
        /// and `dirty_fraction`, and wrapping around.
        fn float_mut(&mut self, k: usize, with_cpi: bool) -> &mut f64 {
            let mut fields: Vec<&mut f64> = Vec::new();
            for p in &mut self.profiles {
                if with_cpi {
                    fields.push(&mut p.base_cpi);
                }
                fields.push(&mut p.l2_apki);
                fields.push(&mut p.working_set_bytes);
                fields.push(&mut p.reuse_fraction);
                fields.push(&mut p.duty_cycle);
            }
            fields.extend(self.clocks.iter_mut());
            fields.push(&mut self.params.mem_overlap);
            fields.push(&mut self.params.dirty_fraction);
            let n = fields.len();
            fields.swap_remove(k % n)
        }

        fn solve_on(&self, solver: &mut ContentionSolver) -> bool {
            solver.solve(&self.params, &self.profiles, &self.clocks)
        }
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
        let mut solver = ContentionSolver::new(cache, memory.clone());
        solver.solve(&params, &profiles, &uniform(&profiles));
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
    fn per_core_clocks_slow_only_the_downclocked_core() {
        let (cache, memory, params) = fixture();
        let profiles = [
            profile(1.1, 6.0, 1.5, 0.85, 0.9),
            profile(1.1, 6.0, 1.5, 0.85, 0.9),
        ];
        let mut solver = ContentionSolver::new(cache, memory);
        // Core 1 on a half-speed LITTLE cluster.
        solver.solve(&params, &profiles, &[F_HZ, F_HZ / 2.0]);
        let rates = solver.instr_rates();
        assert!(
            rates[1] < rates[0] * 0.6,
            "downclocked core should retire ~half as fast: {rates:?}"
        );
    }

    #[test]
    fn empty_profile_set_is_a_clean_no_op() {
        let (cache, memory, params) = fixture();
        let mut solver = ContentionSolver::new(cache, memory);
        solver.solve(&params, &[], &[]);
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
            let mut solver = ContentionSolver::new(cache, memory.clone());
            solver.solve(&params, &profiles, &uniform(&profiles));
            let (rates, misses, dram) =
                reference_fixed_point(&cache, &memory, &params, &profiles, F_HZ);
            prop_assert_eq!(solver.instr_rates(), rates.as_slice());
            prop_assert_eq!(solver.miss_ratios(), misses.as_slice());
            prop_assert_eq!(solver.dram_demand().to_bits(), dram.to_bits());
        }

        /// A reused solver answers every call exactly as a fresh one
        /// would, bit for bit, along a random walk of inputs built to
        /// trip a wrong memo key: exact repeats, 1-ulp nudges of a single
        /// float, `+0.0`/`-0.0` swaps (which `==` cannot tell apart), bus
        /// tier flips, and tasks arriving and leaving, on every
        /// registered SoC profile. Each input is solved twice in a row,
        /// and the second call must be a memo hit.
        #[test]
        fn solver_reuse_across_calls_does_not_leak_state(
            soc in 0usize..8,
            start in proptest::collection::vec((any_profile(), 3.0e8f64..2.3e9), 0..5),
            walk in proptest::collection::vec((0u8..5, 0usize..64, 0u8..2), 1..24),
        ) {
            let names = crate::profile::SocProfile::names();
            let (cache, memory, params) = fixture_for(names[soc % names.len()]);
            let mut inputs = Inputs {
                params,
                profiles: start.iter().map(|&(p, _)| p).collect(),
                clocks: start.iter().map(|&(_, f)| f).collect(),
            };
            let mut sequence = vec![inputs.clone()];
            for &(kind, k, flag) in &walk {
                match kind {
                    // An exact repeat.
                    0 => {}
                    1 => {
                        let v = inputs.float_mut(k, true);
                        *v = if flag == 0 && *v > 0.0 { v.next_down() } else { v.next_up() };
                    }
                    // Both signed zeros back to back, in either order. A
                    // zero CPI is outside the solver's domain (the seed
                    // rate divides by it), so `base_cpi` is left out.
                    2 => {
                        let sign = if flag == 0 { 1.0 } else { -1.0 };
                        *inputs.float_mut(k, false) = sign * 0.0;
                        sequence.push(inputs.clone());
                        *inputs.float_mut(k, false) = -sign * 0.0;
                    }
                    3 => {
                        let next = inputs.params.tier.index() + 1 + usize::from(flag);
                        inputs.params.tier = BusTier::ALL[next % BusTier::ALL.len()];
                    }
                    _ => {
                        if flag == 0 && !inputs.profiles.is_empty() {
                            inputs.profiles.pop();
                            inputs.clocks.pop();
                        } else if inputs.profiles.len() < 5 {
                            inputs.profiles.push(profile(1.1, 6.0, 1.5, 0.85, 0.9));
                            inputs.clocks.push(F_HZ);
                        }
                    }
                }
                sequence.push(inputs.clone());
            }
            let mut reused = ContentionSolver::new(cache, memory.clone());
            for step in &sequence {
                step.solve_on(&mut reused);
                prop_assert!(step.solve_on(&mut reused), "an exact repeat is a hit");
                let mut fresh = ContentionSolver::new(cache, memory.clone());
                step.solve_on(&mut fresh);
                prop_assert_eq!(bits(reused.instr_rates()), bits(fresh.instr_rates()));
                prop_assert_eq!(bits(reused.miss_ratios()), bits(fresh.miss_ratios()));
                prop_assert_eq!(
                    reused.dram_demand().to_bits(),
                    fresh.dram_demand().to_bits()
                );
            }
        }

        /// The fixed point settles within the 4-iteration budget: one
        /// extra round moves every instruction rate by under 1%.
        #[test]
        fn converges_within_iteration_budget(
            profiles in proptest::collection::vec(any_profile(), 1..5),
        ) {
            let (cache, memory, params) = fixture();
            let clocks = uniform(&profiles);
            let mut at_budget = ContentionSolver::new(cache, memory.clone());
            at_budget.solve(&params, &profiles, &clocks);
            // The same solver first memoizes the standard solve, then runs
            // one more round: that must drop the memo, or the next `solve`
            // would hand back the five-round answer.
            let mut one_more = ContentionSolver::new(cache, memory);
            prop_assert!(!one_more.solve(&params, &profiles, &clocks), "a fresh solver misses");
            one_more.solve_inner(&params, &profiles, |i| clocks[i], FIXED_POINT_ITERATIONS + 1);
            for (a, b) in at_budget.instr_rates().iter().zip(one_more.instr_rates()) {
                let residual = (a - b).abs() / a.max(1.0);
                prop_assert!(
                    residual < 0.01,
                    "rate moved {residual:.4} past the budget ({a} -> {b})",
                );
            }
            prop_assert!(
                !one_more.solve(&params, &profiles, &clocks),
                "outputs of another budget are never a hit"
            );
            prop_assert_eq!(bits(one_more.instr_rates()), bits(at_budget.instr_rates()));
            prop_assert_eq!(bits(one_more.miss_ratios()), bits(at_budget.miss_ratios()));
            prop_assert_eq!(
                one_more.dram_demand().to_bits(),
                at_budget.dram_demand().to_bits()
            );
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
            let mut base = ContentionSolver::new(cache, memory.clone());
            base.solve(&params, &[victim, hog], &[F_HZ; 2]);
            let mut pressured = ContentionSolver::new(cache, memory);
            pressured.solve(&params, &[victim, hotter], &[F_HZ; 2]);
            prop_assert!(
                pressured.miss_ratios()[0] >= base.miss_ratios()[0] - 1e-9,
                "victim miss ratio dropped under pressure: {} -> {}",
                base.miss_ratios()[0],
                pressured.miss_ratios()[0],
            );
        }
    }
}
