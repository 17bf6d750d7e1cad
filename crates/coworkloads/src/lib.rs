//! # dora-coworkloads
//!
//! The interference generators of the DORA reproduction.
//!
//! The paper co-schedules the browser with kernels from the Rodinia suite
//! — "the basic building blocks of current and future smartphone
//! workloads" (Section IV-B) — classified by their solo shared-L2 MPKI
//! (Table III):
//!
//! | Intensity | L2 MPKI | Kernels |
//! |---|---|---|
//! | Low | < 1 | srad, heartwall, kmeans, hotspot |
//! | Medium | 1–7 | srad2, bfs, b+tree |
//! | High | > 7 | backprop, needleman-wunsch |
//!
//! Each kernel here is a synthetic phase cycle whose cache/memory profile
//! is calibrated so its *measured in-simulator* solo MPKI lands in the
//! paper's class (verified by the `mpki_classes` integration test — the
//! classification is an emergent measurement, not a label).
//!
//! # Example
//!
//! ```
//! use dora_coworkloads::{Intensity, Kernel};
//!
//! let kernels = Kernel::all();
//! assert_eq!(kernels.len(), 9);
//! let backprop = Kernel::by_name("backprop").expect("in suite");
//! assert_eq!(backprop.intensity(), Intensity::High);
//! let _task = backprop.spawn(7);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use dora_sim_core::Rng;
use dora_soc::task::{CyclicTask, PhaseProfile};
use std::fmt;

/// Table III memory-intensity class of a co-run application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Intensity {
    /// Solo L2 MPKI below 1.
    Low,
    /// Solo L2 MPKI between 1 and 7.
    Medium,
    /// Solo L2 MPKI above 7.
    High,
}

impl Intensity {
    /// All classes, low to high.
    pub const ALL: [Intensity; 3] = [Intensity::Low, Intensity::Medium, Intensity::High];

    /// The MPKI interval `(lo, hi)` defining this class in Table III.
    pub fn mpki_bounds(self) -> (f64, f64) {
        match self {
            Intensity::Low => (0.0, 1.0),
            Intensity::Medium => (1.0, 7.0),
            Intensity::High => (7.0, f64::INFINITY),
        }
    }

    /// Classifies a measured solo MPKI.
    pub fn classify(mpki: f64) -> Intensity {
        if mpki < 1.0 {
            Intensity::Low
        } else if mpki <= 7.0 {
            Intensity::Medium
        } else {
            Intensity::High
        }
    }

    /// The canonical lowercase label (`"low"`, `"medium"`, `"high"`) used
    /// in result rows and CSV exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Intensity::Low => "low",
            Intensity::Medium => "medium",
            Intensity::High => "high",
        }
    }
}

impl fmt::Display for Intensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The error returned when parsing an unknown intensity label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIntensityError(String);

impl fmt::Display for ParseIntensityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown intensity class `{}` (expected low/medium/high)",
            self.0
        )
    }
}

impl std::error::Error for ParseIntensityError {}

impl std::str::FromStr for Intensity {
    type Err = ParseIntensityError;

    /// Parses the canonical labels, case-insensitively (so exported CSV
    /// rows round-trip).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Intensity::ALL
            .into_iter()
            .find(|i| s.eq_ignore_ascii_case(i.as_str()))
            .ok_or_else(|| ParseIntensityError(s.to_string()))
    }
}

/// The algorithmic domain a kernel represents (the paper's Table III
/// descriptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Image processing (srad, srad2, heartwall).
    ImageProcessing,
    /// Clustering analysis (kmeans).
    Clustering,
    /// Temperature management (hotspot).
    ThermalManagement,
    /// Tree and graph traversal (bfs, b+tree).
    GraphTraversal,
    /// Sensor data analysis (backprop).
    SensorAnalysis,
    /// Bioinformatics (needleman-wunsch).
    Bioinformatics,
}

/// A Rodinia-like interference kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: &'static str,
    domain: Domain,
    intensity: Intensity,
    /// `(instruction budget, profile)` phases cycled endlessly.
    phases: Vec<(f64, PhaseProfile)>,
}

const KIB: f64 = 1024.0;
const MIB: f64 = 1024.0 * 1024.0;

fn profile(cpi: f64, apki: f64, ws: f64, reuse: f64, duty: f64) -> PhaseProfile {
    PhaseProfile {
        base_cpi: cpi,
        l2_apki: apki,
        working_set_bytes: ws,
        reuse_fraction: reuse,
        duty_cycle: duty,
    }
}

impl Kernel {
    /// The full nine-kernel suite of Table III.
    pub fn all() -> Vec<Kernel> {
        use Domain::*;
        use Intensity::*;
        vec![
            // ---- Low intensity: small working sets that fit in L2. ----
            Kernel {
                name: "srad",
                domain: ImageProcessing,
                intensity: Low,
                phases: vec![
                    // Stencil update over a tile that fits in cache.
                    (4.0e8, profile(1.1, 5.0, 400.0 * KIB, 0.88, 0.95)),
                    // Reduction pass: compute bound.
                    (1.5e8, profile(1.0, 1.5, 128.0 * KIB, 0.92, 0.95)),
                ],
            },
            Kernel {
                name: "heartwall",
                domain: ImageProcessing,
                intensity: Low,
                phases: vec![(5.0e8, profile(1.2, 2.5, 250.0 * KIB, 0.85, 0.90))],
            },
            Kernel {
                name: "kmeans",
                domain: Clustering,
                intensity: Low,
                phases: vec![
                    // Assignment: scan points, centroids stay hot.
                    (3.0e8, profile(1.1, 3.0, 300.0 * KIB, 0.90, 0.85)),
                    // Centroid update: compute bound.
                    (1.0e8, profile(1.0, 1.0, 64.0 * KIB, 0.95, 0.85)),
                ],
            },
            Kernel {
                name: "hotspot",
                domain: ThermalManagement,
                intensity: Low,
                phases: vec![(4.5e8, profile(1.15, 4.0, 500.0 * KIB, 0.85, 0.70))],
            },
            // ---- Medium intensity: working sets around/above L2. ----
            Kernel {
                name: "srad2",
                domain: ImageProcessing,
                intensity: Medium,
                phases: vec![(6.0e8, profile(1.2, 12.0, 3.0 * MIB, 0.70, 0.95))],
            },
            Kernel {
                name: "bfs",
                domain: GraphTraversal,
                intensity: Medium,
                phases: vec![
                    // Frontier expansion: irregular access over the graph.
                    (3.0e8, profile(1.5, 10.0, 4.0 * MIB, 0.60, 0.80)),
                    // Frontier bookkeeping: lighter.
                    (1.0e8, profile(1.2, 4.0, 512.0 * KIB, 0.85, 0.80)),
                ],
            },
            Kernel {
                name: "b+tree",
                domain: GraphTraversal,
                intensity: Medium,
                phases: vec![(5.0e8, profile(1.4, 8.0, 2.5 * MIB, 0.75, 0.75))],
            },
            // ---- High intensity: streaming far beyond the L2. ----
            Kernel {
                name: "backprop",
                domain: SensorAnalysis,
                intensity: High,
                phases: vec![
                    // Forward pass: stream the weight matrices.
                    (3.0e8, profile(1.3, 25.0, 8.0 * MIB, 0.30, 1.00)),
                    // Backward pass: stream them again, heavier writes.
                    (3.5e8, profile(1.4, 28.0, 8.0 * MIB, 0.25, 1.00)),
                ],
            },
            Kernel {
                name: "needleman-wunsch",
                domain: Bioinformatics,
                intensity: High,
                phases: vec![(6.0e8, profile(1.3, 18.0, 6.0 * MIB, 0.25, 0.95))],
            },
        ]
    }

    /// Looks a kernel up by name (case-insensitive; `nw` is accepted as an
    /// alias for `needleman-wunsch`).
    pub fn by_name(name: &str) -> Option<Kernel> {
        let target = if name.eq_ignore_ascii_case("nw") {
            "needleman-wunsch"
        } else {
            name
        };
        Kernel::all()
            .into_iter()
            .find(|k| k.name.eq_ignore_ascii_case(target))
    }

    /// Kernels of a given intensity class.
    pub fn in_class(intensity: Intensity) -> Vec<Kernel> {
        Kernel::all()
            .into_iter()
            .filter(|k| k.intensity == intensity)
            .collect()
    }

    /// A representative kernel per class — the trio used when the paper
    /// sweeps "an application from each memory intensity category":
    /// kmeans (low), bfs (medium), backprop (high).
    #[expect(
        clippy::expect_used,
        reason = "the three names are members of the static suite"
    )]
    pub fn representatives() -> [Kernel; 3] {
        [
            Kernel::by_name("kmeans").expect("in suite"),
            Kernel::by_name("bfs").expect("in suite"),
            Kernel::by_name("backprop").expect("in suite"),
        ]
    }

    /// The kernel's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The algorithmic domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The expected Table III intensity class.
    pub fn intensity(&self) -> Intensity {
        self.intensity
    }

    /// Mean duty cycle across phases — the paper's X9 (core utilization of
    /// the co-scheduled task) predictor for this kernel.
    pub fn mean_duty_cycle(&self) -> f64 {
        let total: f64 = self.phases.iter().map(|(b, _)| b).sum();
        self.phases
            .iter()
            .map(|(b, p)| b / total * p.duty_cycle)
            .sum()
    }

    /// Budget-weighted mean L2 accesses per kilo-instruction.
    pub fn mean_apki(&self) -> f64 {
        let total: f64 = self.phases.iter().map(|(b, _)| b).sum();
        self.phases.iter().map(|(b, p)| b / total * p.l2_apki).sum()
    }

    /// Spawns an endless task instance. `seed` applies a small (±3 %)
    /// lognormal jitter to phase budgets, modelling input-dependent work,
    /// while leaving the cache profile (and hence the class) untouched.
    pub fn spawn(&self, seed: u64) -> CyclicTask {
        let mut rng = Rng::seed_from_u64(seed ^ fxhash(self.name));
        let phases: Vec<(f64, PhaseProfile)> = self
            .phases
            .iter()
            .map(|(budget, profile)| (budget * rng.jitter(0.03), *profile))
            .collect();
        CyclicTask::new(self.name, phases)
    }
}

/// A tiny FNV-style string hash so each kernel gets an independent jitter
/// stream from the same campaign seed.
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dora_soc::task::Task;

    #[test]
    fn suite_has_nine_kernels_in_paper_classes() {
        let all = Kernel::all();
        assert_eq!(all.len(), 9);
        assert_eq!(Kernel::in_class(Intensity::Low).len(), 4);
        assert_eq!(Kernel::in_class(Intensity::Medium).len(), 3);
        assert_eq!(Kernel::in_class(Intensity::High).len(), 2);
    }

    #[test]
    fn lookup_and_alias() {
        assert!(Kernel::by_name("BFS").is_some());
        assert_eq!(
            Kernel::by_name("nw").expect("alias works").name(),
            "needleman-wunsch"
        );
        assert!(Kernel::by_name("linpack").is_none());
    }

    #[test]
    fn representatives_cover_all_classes() {
        let [low, medium, high] = Kernel::representatives();
        assert_eq!(low.intensity(), Intensity::Low);
        assert_eq!(medium.intensity(), Intensity::Medium);
        assert_eq!(high.intensity(), Intensity::High);
    }

    #[test]
    fn classify_matches_bounds() {
        assert_eq!(Intensity::classify(0.2), Intensity::Low);
        assert_eq!(Intensity::classify(1.0), Intensity::Medium);
        assert_eq!(Intensity::classify(6.9), Intensity::Medium);
        assert_eq!(Intensity::classify(7.1), Intensity::High);
    }

    #[test]
    fn duty_cycles_vary_across_kernels() {
        let duties: Vec<f64> = Kernel::all().iter().map(|k| k.mean_duty_cycle()).collect();
        let min = duties.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = duties.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.2, "X9 needs spread: {duties:?}");
        for d in duties {
            assert!((0.0..=1.0).contains(&d));
        }
    }

    #[test]
    fn spawn_is_deterministic_per_seed() {
        let k = Kernel::by_name("backprop").expect("in suite");
        let mut a = k.spawn(1);
        let mut b = k.spawn(1);
        a.retire(1e6);
        b.retire(1e6);
        assert_eq!(a.current_phase(), b.current_phase());
        assert_eq!(a.retired(), b.retired());
    }

    #[test]
    fn higher_class_means_more_apki() {
        // Mean APKI should rise across the classes — the mechanism behind
        // the MPKI classification.
        let mean_apki = |class: Intensity| -> f64 {
            let kernels = Kernel::in_class(class);
            kernels.iter().map(Kernel::mean_apki).sum::<f64>() / kernels.len() as f64
        };
        let low = mean_apki(Intensity::Low);
        let medium = mean_apki(Intensity::Medium);
        let high = mean_apki(Intensity::High);
        assert!(low < medium && medium < high, "{low} {medium} {high}");
    }
}
