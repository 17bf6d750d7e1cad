//! Shared last-level cache contention model.
//!
//! The Nexus 5's four Krait cores share a 2 MB L2 (Table II). When a
//! memory-hungry co-runner executes next to the browser, it steals L2
//! occupancy, turning browser hits into misses — this is the "interference"
//! whose effect on load time and energy the whole paper quantifies
//! (Section II-B).
//!
//! The model is an occupancy/partition approximation in the spirit of
//! analytical shared-cache models: each task's steady-state occupancy is
//! proportional to its access rate (the rate at which it can re-install
//! lines), capped by its working set, with unclaimed capacity redistributed.
//! A task's hit ratio then follows a concave function of how much of its
//! working set fits.

/// A task's demand on the shared cache for one quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheDemand {
    /// L2 accesses per second the task issues.
    pub access_rate: f64,
    /// Bytes of cache the task could profitably use.
    pub working_set: f64,
    /// Fraction of accesses that are reusable (can hit if resident).
    pub reuse_fraction: f64,
}

/// The cache model's verdict for one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheShare {
    /// Bytes of L2 occupancy the task holds at steady state.
    pub allocated_bytes: f64,
    /// Fraction of the task's L2 accesses that miss.
    pub miss_ratio: f64,
}

/// Reusable buffers for [`SharedCache::apportion_into`], so the
/// per-quantum contention fixed point allocates nothing at steady state.
#[derive(Debug, Clone, Default)]
pub struct ApportionScratch {
    alloc: Vec<f64>,
    satisfied: Vec<bool>,
}

/// The shared L2 cache.
///
/// # Example
///
/// ```
/// use dora_soc::cache::{CacheDemand, SharedCache};
///
/// let l2 = SharedCache::new(2.0 * 1024.0 * 1024.0);
/// let browser = CacheDemand {
///     access_rate: 2.0e7,
///     working_set: 1.5 * 1024.0 * 1024.0,
///     reuse_fraction: 0.8,
/// };
/// // Alone, the browser's working set fits: misses are only the
/// // non-reusable fraction.
/// let alone = l2.apportion(&[browser]);
/// assert!(alone[0].miss_ratio < 0.25);
///
/// // A streaming co-runner steals occupancy and the miss ratio rises.
/// let hog = CacheDemand {
///     access_rate: 8.0e7,
///     working_set: 8.0 * 1024.0 * 1024.0,
///     reuse_fraction: 0.1,
/// };
/// let shared = l2.apportion(&[browser, hog]);
/// assert!(shared[0].miss_ratio > alone[0].miss_ratio);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedCache {
    capacity_bytes: f64,
}

impl SharedCache {
    /// Creates a shared cache of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is not positive and finite.
    pub fn new(capacity_bytes: f64) -> Self {
        assert!(
            capacity_bytes.is_finite() && capacity_bytes > 0.0,
            "bad cache capacity {capacity_bytes}"
        );
        SharedCache { capacity_bytes }
    }

    /// The cache capacity in bytes.
    pub fn capacity_bytes(&self) -> f64 {
        self.capacity_bytes
    }

    /// Computes each task's occupancy and miss ratio under contention.
    ///
    /// Tasks with zero access rate receive no occupancy and a miss ratio of
    /// 1.0 (vacuously — they issue no accesses).
    pub fn apportion(&self, demands: &[CacheDemand]) -> Vec<CacheShare> {
        // A convenience wrapper: hot callers hold their own buffers and
        // go through `apportion_into` instead.
        let mut shares = Vec::new();
        let mut scratch = ApportionScratch::default();
        self.apportion_into(demands, &mut shares, &mut scratch);
        shares
    }

    /// [`SharedCache::apportion`] into caller-owned buffers: `shares` is
    /// cleared and refilled, `scratch` is reused across calls. Identical
    /// arithmetic to `apportion` — only the storage differs — so results
    /// are bit-for-bit the same.
    pub fn apportion_into(
        &self,
        demands: &[CacheDemand],
        shares: &mut Vec<CacheShare>,
        scratch: &mut ApportionScratch,
    ) {
        shares.clear();
        let n = demands.len();
        if n == 0 {
            return;
        }
        for d in demands {
            debug_assert!(d.access_rate >= 0.0 && d.working_set >= 0.0);
            debug_assert!((0.0..=1.0).contains(&d.reuse_fraction));
        }

        // Water-filling: weight = access rate; each round, distribute the
        // remaining capacity among unsatisfied tasks proportionally to
        // weight, capping at the working set, until stable.
        let alloc = &mut scratch.alloc;
        let satisfied = &mut scratch.satisfied;
        alloc.clear();
        alloc.resize(n, 0.0);
        satisfied.clear();
        satisfied.resize(n, false);
        let mut remaining = self.capacity_bytes;
        for _ in 0..n {
            let weight_sum: f64 = demands
                .iter()
                .zip(satisfied.iter())
                .filter(|(_, &s)| !s)
                .map(|(d, _)| d.access_rate)
                .sum();
            if weight_sum <= 0.0 || remaining <= 0.0 {
                break;
            }
            let mut progressed = false;
            for i in 0..n {
                if satisfied[i] {
                    continue;
                }
                let fair = remaining * demands[i].access_rate / weight_sum;
                let want = demands[i].working_set - alloc[i];
                if want <= fair {
                    alloc[i] += want.max(0.0);
                    satisfied[i] = true;
                    progressed = true;
                }
            }
            if !progressed {
                // Nobody is capped: give everyone their fair share and stop.
                for i in 0..n {
                    if !satisfied[i] {
                        alloc[i] += remaining * demands[i].access_rate / weight_sum;
                        satisfied[i] = true;
                    }
                }
            }
            remaining = self.capacity_bytes - alloc.iter().sum::<f64>();
        }

        for (d, &a) in demands.iter().zip(alloc.iter()) {
            shares.push(CacheShare {
                allocated_bytes: a,
                miss_ratio: Self::miss_ratio(d, a),
            });
        }
    }

    /// Hit/miss curve: with fraction `x = alloc / working_set` of the
    /// working set resident, the reusable traffic hits with probability
    /// `sqrt(x)` (a standard concave utility shape — the hottest lines fit
    /// first). Non-reusable traffic always misses.
    fn miss_ratio(d: &CacheDemand, allocated: f64) -> f64 {
        if d.access_rate <= 0.0 {
            return 1.0;
        }
        if d.working_set <= 0.0 {
            // No working set: everything reusable trivially fits.
            return 1.0 - d.reuse_fraction;
        }
        let coverage = (allocated / d.working_set).clamp(0.0, 1.0);
        (1.0 - d.reuse_fraction * coverage.sqrt()).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = 1024.0 * 1024.0;

    fn demand(rate: f64, ws_mib: f64, reuse: f64) -> CacheDemand {
        CacheDemand {
            access_rate: rate,
            working_set: ws_mib * MIB,
            reuse_fraction: reuse,
        }
    }

    #[test]
    fn solo_task_fitting_working_set_gets_floor_miss_ratio() {
        let l2 = SharedCache::new(2.0 * MIB);
        let shares = l2.apportion(&[demand(1e7, 1.0, 0.9)]);
        assert!((shares[0].allocated_bytes - MIB).abs() < 1.0);
        assert!((shares[0].miss_ratio - 0.1).abs() < 1e-9);
    }

    #[test]
    fn solo_task_larger_than_cache_is_capped() {
        let l2 = SharedCache::new(2.0 * MIB);
        let shares = l2.apportion(&[demand(1e7, 8.0, 0.9)]);
        assert!((shares[0].allocated_bytes - 2.0 * MIB).abs() < 1.0);
        // coverage = 1/4 -> hit = 0.9*0.5 -> miss = 0.55
        assert!((shares[0].miss_ratio - 0.55).abs() < 1e-9);
    }

    #[test]
    fn total_allocation_never_exceeds_capacity() {
        let l2 = SharedCache::new(2.0 * MIB);
        let demands = [
            demand(5e7, 4.0, 0.5),
            demand(2e7, 3.0, 0.8),
            demand(9e7, 6.0, 0.2),
        ];
        let shares = l2.apportion(&demands);
        let total: f64 = shares.iter().map(|s| s.allocated_bytes).sum();
        assert!(total <= 2.0 * MIB + 1.0, "total {total}");
    }

    #[test]
    fn aggressive_corunner_raises_victim_miss_ratio() {
        let l2 = SharedCache::new(2.0 * MIB);
        let victim = demand(2e7, 1.5, 0.85);
        let alone = l2.apportion(&[victim])[0].miss_ratio;
        for hog_rate in [2e7, 6e7, 1.2e8] {
            let shared = l2.apportion(&[victim, demand(hog_rate, 8.0, 0.1)]);
            assert!(
                shared[0].miss_ratio > alone,
                "hog at {hog_rate} should hurt: {} vs {}",
                shared[0].miss_ratio,
                alone
            );
        }
    }

    #[test]
    fn interference_is_monotone_in_corunner_rate() {
        let l2 = SharedCache::new(2.0 * MIB);
        let victim = demand(2e7, 1.5, 0.85);
        let mut last = 0.0;
        for hog_rate in [1e7, 3e7, 6e7, 1.2e8] {
            let m = l2.apportion(&[victim, demand(hog_rate, 8.0, 0.1)])[0].miss_ratio;
            assert!(m >= last, "miss ratio should not decrease: {m} < {last}");
            last = m;
        }
    }

    #[test]
    fn small_corunner_leaves_fitting_victim_alone() {
        // Both working sets fit together: no interference.
        let l2 = SharedCache::new(2.0 * MIB);
        let victim = demand(2e7, 0.5, 0.85);
        let buddy = demand(2e7, 0.5, 0.85);
        let shares = l2.apportion(&[victim, buddy]);
        assert!((shares[0].miss_ratio - 0.15).abs() < 1e-9);
        assert!((shares[1].miss_ratio - 0.15).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_task_gets_nothing() {
        let l2 = SharedCache::new(2.0 * MIB);
        let shares = l2.apportion(&[demand(0.0, 4.0, 0.9), demand(1e7, 1.0, 0.9)]);
        assert_eq!(shares[0].allocated_bytes, 0.0);
        assert_eq!(shares[0].miss_ratio, 1.0);
        assert!((shares[1].allocated_bytes - MIB).abs() < 1.0);
    }

    #[test]
    fn empty_demand_list() {
        let l2 = SharedCache::new(2.0 * MIB);
        assert!(l2.apportion(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "bad cache capacity")]
    fn rejects_zero_capacity() {
        let _ = SharedCache::new(0.0);
    }

    #[test]
    fn reused_scratch_buffers_match_fresh_apportion_bitwise() {
        let l2 = SharedCache::new(2.0 * MIB);
        let mut shares = Vec::new();
        let mut scratch = ApportionScratch::default();
        let sets: [&[CacheDemand]; 4] = [
            &[demand(2e7, 1.5, 0.85), demand(6e7, 8.0, 0.1)],
            &[demand(1e7, 1.0, 0.9)],
            &[
                demand(5e7, 4.0, 0.5),
                demand(2e7, 3.0, 0.8),
                demand(9e7, 6.0, 0.2),
                demand(0.0, 4.0, 0.9),
            ],
            &[],
        ];
        for demands in sets {
            l2.apportion_into(demands, &mut shares, &mut scratch);
            assert_eq!(shares, l2.apportion(demands));
        }
    }
}
