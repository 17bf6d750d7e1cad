//! DVFS operating points and the core→memory-bus frequency mapping.
//!
//! The MSM8974 chipset in the paper's Nexus 5 exposes 14 frequency settings
//! between 300 MHz and 2265.6 MHz (Section IV-A), and on a typical SoC "a
//! set of core frequencies map to a particular memory bus frequency"
//! (Section III-A) — which is why the paper trains *piecewise* models, one
//! per bus tier. This module carries both facts.

use std::fmt;

/// A core or bus frequency.
///
/// Stored internally in kilohertz as an integer so that frequencies are
/// `Eq`/`Ord`/`Hash` and can be used as model keys without floating-point
/// comparison hazards.
///
/// # Example
///
/// ```
/// use dora_soc::Frequency;
///
/// let f = Frequency::from_mhz(1497.6);
/// assert_eq!(f.as_khz(), 1_497_600);
/// assert!((f.as_ghz() - 1.4976).abs() < 1e-9);
/// assert_eq!(f.to_string(), "1.498GHz");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Frequency(u64);

impl Frequency {
    /// Constructs from kilohertz.
    pub const fn from_khz(khz: u64) -> Self {
        Frequency(khz)
    }

    /// Constructs from megahertz, rounding to the nearest kilohertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is negative or non-finite.
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(mhz.is_finite() && mhz >= 0.0, "bad frequency {mhz} MHz");
        Frequency((mhz * 1000.0).round() as u64)
    }

    /// The value in kilohertz.
    pub const fn as_khz(self) -> u64 {
        self.0
    }

    /// The value in megahertz.
    pub fn as_mhz(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The value in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The value in hertz.
    pub fn as_hz(self) -> f64 {
        self.0 as f64 * 1e3
    }
}

impl fmt::Display for Frequency {
    #[expect(
        clippy::disallowed_methods,
        reason = "rendering a clock prints its raw number"
    )]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}GHz", self.as_ghz())
        } else {
            write!(f, "{:.1}MHz", self.as_mhz())
        }
    }
}

/// The memory-bus tier a core frequency maps to.
///
/// Mirrors the bandwidth-level voting of the MSM8974: low core clocks run
/// the DDR slowly to save power; high clocks unlock full LPDDR3 bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BusTier {
    /// DDR at a power-saving clock; lowest bandwidth, highest base latency.
    Low,
    /// Intermediate DDR clock.
    Mid,
    /// Full LPDDR3 clock; highest bandwidth, lowest base latency.
    High,
}

impl BusTier {
    /// All tiers, low to high.
    pub const ALL: [BusTier; 3] = [BusTier::Low, BusTier::Mid, BusTier::High];

    /// The effective memory-bus frequency of this tier.
    pub fn bus_frequency(self) -> Frequency {
        match self {
            BusTier::Low => Frequency::from_mhz(200.0),
            BusTier::Mid => Frequency::from_mhz(460.8),
            BusTier::High => Frequency::from_mhz(800.0),
        }
    }

    /// A small index (0, 1, 2) for array lookup.
    pub fn index(self) -> usize {
        match self {
            BusTier::Low => 0,
            BusTier::Mid => 1,
            BusTier::High => 2,
        }
    }
}

impl fmt::Display for BusTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BusTier::Low => "bus-low",
            BusTier::Mid => "bus-mid",
            BusTier::High => "bus-high",
        };
        f.write_str(name)
    }
}

/// An operating performance point: a core frequency and its supply voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opp {
    /// Core clock frequency.
    pub frequency: Frequency,
    /// Supply voltage in volts at this frequency.
    pub voltage: f64,
}

/// The MSM8974 operating points as integer `(kHz, millivolt)` pairs.
///
/// Defined through the crate-private `checked_khz_mv`, so sortedness
/// and duplicate-freedom are proven at compile time — a corrupted table
/// edit fails `cargo build`, not a campaign three layers up.
///
/// paper: Section II — Nexus 5 (Snapdragon 800 / MSM8974) with 14 OPPs
/// from 300 MHz to 2.2656 GHz; voltages follow the msm8974 regulator
/// tables from the platform's ACPU clock driver.
pub const MSM8974_KHZ_MV: [(u64, u32); 14] = checked_khz_mv([
    (300_000, 800),
    (422_400, 810),
    (576_000, 825),
    (729_600, 840),
    (806_400, 850),
    (883_200, 860),
    (960_000, 875),
    (1_190_400, 900),
    (1_267_200, 910),
    (1_497_600, 945),
    (1_728_000, 974),
    (1_958_400, 1_030),
    (2_112_000, 1_065),
    (2_265_600, 1_100),
]);

/// Returns a `(kHz, mV)` table unchanged after checking that it is
/// non-empty, strictly ascending in frequency (which also rules out
/// duplicates) and free of zero voltages; panics otherwise. Every such
/// table in this crate is a `const` defined through this constructor,
/// so the check runs during const evaluation and a bad edit fails
/// `cargo build`.
pub(crate) const fn checked_khz_mv<const N: usize>(table: [(u64, u32); N]) -> [(u64, u32); N] {
    assert!(N > 0, "DVFS table must not be empty");
    let mut i = 0;
    while i < N {
        assert!(table[i].1 > 0, "DVFS table voltages must be positive");
        assert!(
            i == 0 || table[i - 1].0 < table[i].0,
            "DVFS table must be strictly ascending in frequency"
        );
        i += 1;
    }
    table
}

/// The table of available operating points, sorted ascending by frequency.
///
/// # Example
///
/// ```
/// use dora_soc::{Frequency, SocProfile};
///
/// let board = SocProfile::msm8974().board_config();
/// let table = &board.clusters[0].dvfs;
/// assert_eq!(table.len(), 14);
/// assert_eq!(table.min_frequency(), Frequency::from_mhz(300.0));
/// assert_eq!(table.max_frequency(), Frequency::from_mhz(2265.6));
/// // The paper's plots use an eight-frequency ladder from 0.7 to 2.2 GHz.
/// assert_eq!(table.paper_ladder().len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsTable {
    opps: Vec<Opp>,
}

impl DvfsTable {
    /// Builds a table from `(MHz, volts)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, unsorted, contains duplicate
    /// frequencies, or has non-positive voltages.
    pub fn new(points: &[(f64, f64)]) -> Self {
        assert!(!points.is_empty(), "a DVFS table needs at least one OPP");
        let opps: Vec<Opp> = points
            .iter()
            .map(|&(mhz, v)| {
                assert!(v > 0.0, "non-positive voltage {v} V at {mhz} MHz");
                Opp {
                    frequency: Frequency::from_mhz(mhz),
                    voltage: v,
                }
            })
            .collect();
        for pair in opps.windows(2) {
            assert!(
                pair[0].frequency < pair[1].frequency,
                "DVFS table must be strictly ascending: {} then {}",
                pair[0].frequency,
                pair[1].frequency
            );
        }
        DvfsTable { opps }
    }

    /// Builds a table from an integer `(kHz, mV)` constant table (the
    /// form the profile registry's cited OPP tables take).
    pub(crate) fn from_khz_mv(table: &[(u64, u32)]) -> Self {
        let points: Vec<(f64, f64)> = table
            .iter()
            .map(|&(khz, mv)| (khz as f64 / 1000.0, mv as f64 / 1000.0))
            .collect();
        DvfsTable::new(&points)
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.opps.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.opps.is_empty()
    }

    /// The operating points in ascending frequency order.
    pub fn opps(&self) -> &[Opp] {
        &self.opps
    }

    /// All frequencies in ascending order.
    pub fn frequencies(&self) -> impl Iterator<Item = Frequency> + '_ {
        self.opps.iter().map(|o| o.frequency)
    }

    /// The lowest frequency.
    pub fn min_frequency(&self) -> Frequency {
        self.opps[0].frequency
    }

    /// The highest frequency.
    pub fn max_frequency(&self) -> Frequency {
        self.opps[self.opps.len() - 1].frequency
    }

    /// The index of an exact frequency, if present.
    pub fn index_of(&self, f: Frequency) -> Option<usize> {
        self.opps.iter().position(|o| o.frequency == f)
    }

    /// The operating point at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn opp(&self, index: usize) -> Opp {
        self.opps[index]
    }

    /// The supply voltage at an exact table frequency, if present.
    pub fn voltage_of(&self, f: Frequency) -> Option<f64> {
        self.index_of(f).map(|i| self.opps[i].voltage)
    }

    /// The operating point whose frequency is closest to `target` (ties
    /// resolve downward). The total alternative to
    /// `voltage_of(nearest(f)).unwrap()`: every lookup that only needs the
    /// nearest entry gets its voltage without an unwrap.
    pub fn nearest_opp(&self, target: Frequency) -> Opp {
        let mut best = self.opps[0];
        let mut best_d = best.frequency.as_khz().abs_diff(target.as_khz());
        for &opp in &self.opps[1..] {
            let d = opp.frequency.as_khz().abs_diff(target.as_khz());
            // Strict improvement only: on a tie the earlier (lower)
            // frequency wins because the table ascends.
            if d < best_d {
                best = opp;
                best_d = d;
            }
        }
        best
    }

    /// The table frequency closest to `target` (ties resolve downward).
    pub fn nearest(&self, target: Frequency) -> Frequency {
        self.nearest_opp(target).frequency
    }

    /// The lowest table frequency `>= target`, or the maximum if none.
    pub fn ceil(&self, target: Frequency) -> Frequency {
        self.opps
            .iter()
            .map(|o| o.frequency)
            .find(|&f| f >= target)
            .unwrap_or_else(|| self.max_frequency())
    }

    /// One step above `f` in the table (saturating at the top). `None` when
    /// `f` is not a table frequency.
    pub fn step_up(&self, f: Frequency) -> Option<Frequency> {
        let i = self.index_of(f)?;
        Some(self.opps[(i + 1).min(self.opps.len() - 1)].frequency)
    }

    /// One step below `f` in the table (saturating at the bottom). `None`
    /// when `f` is not a table frequency.
    pub fn step_down(&self, f: Frequency) -> Option<Frequency> {
        let i = self.index_of(f)?;
        Some(self.opps[i.saturating_sub(1)].frequency)
    }

    /// The memory-bus tier a core frequency maps to (Section III-A's
    /// piecewise core→bus mapping): ≤ 729.6 MHz votes the low DDR clock,
    /// ≤ 1267.2 MHz the intermediate one, and anything above runs the bus
    /// at full speed.
    pub fn bus_tier(&self, f: Frequency) -> BusTier {
        if f <= Frequency::from_mhz(729.6) {
            BusTier::Low
        } else if f <= Frequency::from_mhz(1267.2) {
            BusTier::Mid
        } else {
            BusTier::High
        }
    }

    /// The eight-frequency ladder the paper's figures sweep
    /// (0.7 … 2.2 GHz): 729.6, 806.4, 883.2, 1190.4, 1497.6, 1728, 1958.4
    /// and 2265.6 MHz.
    pub fn paper_ladder(&self) -> Vec<Frequency> {
        [729.6, 806.4, 883.2, 1190.4, 1497.6, 1728.0, 1958.4, 2265.6]
            .iter()
            .map(|&mhz| self.nearest(Frequency::from_mhz(mhz)))
            .collect()
    }
}

/// The 14-entry MSM8974 Snapdragon 800 table used throughout the
/// reproduction (Table II: "14 different frequency settings available,
/// ranging from 300 MHz to 2265 MHz"), built from [`MSM8974_KHZ_MV`].
impl Default for DvfsTable {
    fn default() -> Self {
        DvfsTable::from_khz_mv(&MSM8974_KHZ_MV)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clippy_bans_every_raw_frequency_accessor() {
        let source = include_str!("dvfs.rs");
        let clippy = include_str!("../../../clippy.toml");
        let accessors: Vec<&str> = source
            .lines()
            .filter_map(|line| line.trim().strip_prefix("pub fn "))
            .filter_map(|rest| rest.strip_suffix("(self) -> f64 {"))
            .collect();
        assert_eq!(accessors, ["as_mhz", "as_ghz", "as_hz"]);
        for name in accessors {
            let entry = format!("path = \"dora_soc::dvfs::Frequency::{name}\"");
            assert!(clippy.contains(&entry), "clippy.toml lacks {entry}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn checked_table_rejects_unsorted_frequencies() {
        checked_khz_mv([(400_000, 900), (300_000, 900)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn checked_table_rejects_duplicate_frequencies() {
        checked_khz_mv([(300_000, 800), (300_000, 900)]);
    }

    #[test]
    #[should_panic(expected = "voltages must be positive")]
    fn checked_table_rejects_zero_voltage() {
        checked_khz_mv([(300_000, 800), (400_000, 0)]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn checked_table_rejects_an_empty_table() {
        checked_khz_mv::<0>([]);
    }

    #[test]
    fn msm8974_shape() {
        let t = DvfsTable::default();
        assert_eq!(t.len(), 14);
        assert_eq!(t.min_frequency().as_mhz(), 300.0);
        assert!((t.max_frequency().as_mhz() - 2265.6).abs() < 1e-9);
        // Voltage must be non-decreasing with frequency.
        for pair in t.opps().windows(2) {
            assert!(pair[0].voltage <= pair[1].voltage);
        }
    }

    #[test]
    fn index_and_voltage_lookup() {
        let t = DvfsTable::default();
        let f = Frequency::from_mhz(1497.6);
        let i = t.index_of(f).expect("1497.6 in table");
        assert_eq!(t.opp(i).frequency, f);
        assert_eq!(t.voltage_of(f), Some(0.945));
        assert_eq!(t.voltage_of(Frequency::from_mhz(1000.0)), None);
    }

    #[test]
    fn nearest_snaps_and_breaks_ties_down() {
        let t = DvfsTable::new(&[(100.0, 0.8), (200.0, 0.9)]);
        assert_eq!(t.nearest(Frequency::from_mhz(120.0)).as_mhz(), 100.0);
        assert_eq!(t.nearest(Frequency::from_mhz(180.0)).as_mhz(), 200.0);
        assert_eq!(t.nearest(Frequency::from_mhz(150.0)).as_mhz(), 100.0);
        assert_eq!(t.nearest(Frequency::from_mhz(9999.0)).as_mhz(), 200.0);
    }

    #[test]
    fn ceil_finds_first_at_or_above() {
        let t = DvfsTable::default();
        assert_eq!(
            t.ceil(Frequency::from_mhz(1000.0)),
            Frequency::from_mhz(1190.4)
        );
        assert_eq!(
            t.ceil(Frequency::from_mhz(5000.0)),
            Frequency::from_mhz(2265.6)
        );
        assert_eq!(t.ceil(Frequency::from_mhz(0.0)), Frequency::from_mhz(300.0));
    }

    #[test]
    fn step_up_down_saturate() {
        let t = DvfsTable::default();
        let min = t.min_frequency();
        let max = t.max_frequency();
        assert_eq!(t.step_down(min), Some(min));
        assert_eq!(t.step_up(max), Some(max));
        assert_eq!(
            t.step_up(Frequency::from_mhz(300.0)),
            Some(Frequency::from_mhz(422.4))
        );
        assert_eq!(t.step_up(Frequency::from_mhz(555.0)), None);
    }

    #[test]
    fn bus_tier_piecewise_mapping() {
        let t = DvfsTable::default();
        assert_eq!(t.bus_tier(Frequency::from_mhz(300.0)), BusTier::Low);
        assert_eq!(t.bus_tier(Frequency::from_mhz(729.6)), BusTier::Low);
        assert_eq!(t.bus_tier(Frequency::from_mhz(806.4)), BusTier::Mid);
        assert_eq!(t.bus_tier(Frequency::from_mhz(1267.2)), BusTier::Mid);
        assert_eq!(t.bus_tier(Frequency::from_mhz(1497.6)), BusTier::High);
        assert_eq!(t.bus_tier(Frequency::from_mhz(2265.6)), BusTier::High);
    }

    #[test]
    fn paper_ladder_is_eight_ascending_table_entries() {
        let t = DvfsTable::default();
        let ladder = t.paper_ladder();
        assert_eq!(ladder.len(), 8);
        for pair in ladder.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        for f in &ladder {
            assert!(t.index_of(*f).is_some());
        }
    }

    #[test]
    fn bus_tier_frequencies_ascend() {
        assert!(
            BusTier::Low.bus_frequency() < BusTier::Mid.bus_frequency()
                && BusTier::Mid.bus_frequency() < BusTier::High.bus_frequency()
        );
        assert_eq!(BusTier::Low.index(), 0);
        assert_eq!(BusTier::High.index(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_table_rejected() {
        let _ = DvfsTable::new(&[(200.0, 0.9), (100.0, 0.8)]);
    }

    #[test]
    #[should_panic(expected = "at least one OPP")]
    fn empty_table_rejected() {
        let _ = DvfsTable::new(&[]);
    }

    #[test]
    fn frequency_display() {
        assert_eq!(Frequency::from_mhz(300.0).to_string(), "300.0MHz");
        assert_eq!(Frequency::from_mhz(2265.6).to_string(), "2.266GHz");
    }
}
