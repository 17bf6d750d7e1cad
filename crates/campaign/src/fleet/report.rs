//! Streaming fleet aggregation: mergeable per-governor sketches.
//!
//! A fleet run never materializes per-session results. Each shard folds
//! its sessions into a [`FleetReport`] — fixed-bin histograms, counters
//! and running sums, all O(bins) — and shard reports merge left-to-right
//! in shard order. Histogram merges add exact bin counts, and every
//! floating-point sum is folded in the same fixed order regardless of
//! executor width, so the merged report (and its [`FleetReport::digest`])
//! is byte-identical across `--jobs 1/N`.

#![allow(
    clippy::disallowed_methods,
    reason = "report sketches, digests and tables hold plain numbers"
)]

use crate::runner::RunResult;
use dora_sim_core::sketch::{Digest64, FixedHistogram, SketchError};
use dora_sim_core::units::{Joules, Seconds, WattHours};

/// Load-time histogram shape: 96 × 0.125 s bins over `[0, 12)` s; slower
/// loads (including timeouts) land in the overflow bucket.
const LOAD_TIME_BINS: usize = 96;
const LOAD_TIME_HI: f64 = 12.0;

/// PPW histogram shape: 100 bins over `[0, 1)` 1/(J·s)·s⁻¹ — browsing
/// PPW on this platform sits well inside `[0.05, 0.6]`.
const PPW_BINS: usize = 100;
const PPW_HI: f64 = 1.0;

/// The streamed aggregate of one governor's sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorSheet {
    /// Governor name (a [`crate::policy::Policy::name`]).
    pub governor: String,
    /// Sessions folded in.
    pub sessions: u64,
    /// Sessions whose load met the deadline.
    pub deadline_met: u64,
    /// Sessions censored at the timeout.
    pub timed_out: u64,
    /// DVFS transitions across all sessions.
    pub switches: u64,
    /// Load-time distribution (the deadline-hit CDF).
    pub load_time: FixedHistogram,
    /// Energy-efficiency (PPW) distribution.
    pub ppw: FixedHistogram,
    /// Total measured energy.
    pub energy: Joules,
    /// Sum over sessions of projected battery life at the session's
    /// sampled state of charge (hours).
    pub battery_hours_sum: f64,
}

impl GovernorSheet {
    /// An empty sheet for `governor`.
    ///
    /// # Panics
    ///
    /// Never: the histogram shapes are compile-time constants.
    #[expect(
        clippy::expect_used,
        reason = "the histogram shapes are compile-time constants"
    )]
    pub fn new(governor: &str) -> GovernorSheet {
        GovernorSheet {
            governor: governor.to_string(),
            sessions: 0,
            deadline_met: 0,
            timed_out: 0,
            switches: 0,
            load_time: FixedHistogram::new(LOAD_TIME_BINS, 0.0, LOAD_TIME_HI)
                .expect("constant shape is valid"),
            ppw: FixedHistogram::new(PPW_BINS, 0.0, PPW_HI).expect("constant shape is valid"),
            energy: Joules::ZERO,
            battery_hours_sum: 0.0,
        }
    }

    /// Folds one session's outcome in. `battery` is the session device's
    /// pack scaled to its sampled state of charge.
    pub fn record(&mut self, result: &RunResult, battery: WattHours) {
        self.sessions += 1;
        self.deadline_met += u64::from(result.met_deadline);
        self.timed_out += u64::from(result.timed_out);
        self.switches += result.switches;
        self.load_time.record(result.load_time.value());
        self.ppw.record(result.ppw.value());
        self.energy += result.energy;
        self.battery_hours_sum += battery.hours_at(result.mean_power);
    }

    /// Merges another sheet of the same governor into this one.
    ///
    /// # Errors
    ///
    /// [`SketchError::ShapeMismatch`] if the histogram shapes differ.
    ///
    /// # Panics
    ///
    /// Panics if the sheets aggregate different governors — shard sheets
    /// are built from one shared governor list, so this is a construction
    /// bug, not a data condition.
    pub fn merge(&mut self, other: &GovernorSheet) -> Result<(), SketchError> {
        // No `..`: a new field fails to compile until it is merged here.
        let GovernorSheet {
            governor,
            sessions,
            deadline_met,
            timed_out,
            switches,
            load_time,
            ppw,
            energy,
            battery_hours_sum,
        } = other;
        assert_eq!(
            &self.governor, governor,
            "sheets of different governors cannot merge"
        );
        self.load_time.merge(load_time)?;
        self.ppw.merge(ppw)?;
        self.sessions += sessions;
        self.deadline_met += deadline_met;
        self.timed_out += timed_out;
        self.switches += switches;
        self.energy += *energy;
        // Shards fold in fixed shard-index order (FleetReport::merge
        // iterates sheets in governor order), so this addition sequence is
        // identical across --jobs 1/N/auto; tests/fleet_determinism.rs pins
        // the byte-identical fold.
        self.battery_hours_sum += battery_hours_sum;
        Ok(())
    }

    /// Fraction of sessions that met the deadline.
    pub fn deadline_met_fraction(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.deadline_met as f64 / self.sessions as f64
        }
    }

    /// The deadline-hit CDF evaluated at `seconds`.
    pub fn load_time_cdf_at(&self, seconds: f64) -> f64 {
        self.load_time.cdf_at(seconds)
    }

    /// Mean projected battery life per session, in hours.
    pub fn mean_battery_hours(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.battery_hours_sum / self.sessions as f64
        }
    }

    /// Mean energy per session.
    pub fn mean_energy(&self) -> Joules {
        if self.sessions == 0 {
            Joules::ZERO
        } else {
            Joules::new(self.energy.value() / self.sessions as f64)
        }
    }

    fn digest_into(&self, digest: &mut Digest64) {
        digest.write_str(&self.governor);
        digest.write_u64(self.sessions);
        digest.write_u64(self.deadline_met);
        digest.write_u64(self.timed_out);
        digest.write_u64(self.switches);
        self.load_time.digest_into(digest);
        self.ppw.digest_into(digest);
        digest.write_f64(self.energy.value());
        digest.write_f64(self.battery_hours_sum);
    }
}

/// The merged outcome of a fleet run: one [`GovernorSheet`] per policy,
/// in the configured policy order (first policy = the baseline deltas
/// are quoted against).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Sessions aggregated (per governor).
    pub sessions: u64,
    /// The fleet seed.
    pub seed: u64,
    /// Shards merged into this report.
    pub shards: u64,
    sheets: Vec<GovernorSheet>,
}

impl FleetReport {
    /// An empty report carrying one sheet per governor name, in order.
    pub fn empty(seed: u64, governors: &[&str]) -> FleetReport {
        FleetReport {
            sessions: 0,
            seed,
            shards: 0,
            sheets: governors.iter().map(|g| GovernorSheet::new(g)).collect(),
        }
    }

    /// Per-governor sheets, in policy order.
    pub fn sheets(&self) -> &[GovernorSheet] {
        &self.sheets
    }

    /// Mutable sheets, for shard-local recording.
    pub(crate) fn sheets_mut(&mut self) -> &mut [GovernorSheet] {
        &mut self.sheets
    }

    /// The sheet of one governor.
    pub fn sheet(&self, governor: &str) -> Option<&GovernorSheet> {
        self.sheets.iter().find(|s| s.governor == governor)
    }

    /// Merges `other` (the next shard, in shard order) into this report.
    ///
    /// # Errors
    ///
    /// [`SketchError::ShapeMismatch`] if sketch shapes differ.
    ///
    /// # Panics
    ///
    /// Panics if the reports carry different governor lists or seeds —
    /// all shard reports are built by one fleet run, so a mismatch is a
    /// construction bug.
    pub fn merge(&mut self, other: &FleetReport) -> Result<(), SketchError> {
        // No `..`: a new field fails to compile until it is merged here.
        let FleetReport {
            sessions,
            seed,
            shards,
            sheets,
        } = other;
        assert_eq!(self.seed, *seed, "reports of different fleets");
        assert_eq!(
            self.sheets.len(),
            sheets.len(),
            "reports of different governor lists"
        );
        for (mine, theirs) in self.sheets.iter_mut().zip(sheets) {
            mine.merge(theirs)?;
        }
        self.sessions += sessions;
        self.shards += shards;
        Ok(())
    }

    /// Mean battery-life delta of `governor` against `baseline`, in
    /// hours per session (positive = `governor` lasts longer).
    pub fn battery_delta_hours(&self, governor: &str, baseline: &str) -> Option<f64> {
        let g = self.sheet(governor)?;
        let b = self.sheet(baseline)?;
        Some(g.mean_battery_hours() - b.mean_battery_hours())
    }

    /// An order-sensitive FNV-1a digest of every aggregate in the report.
    /// Two runs produce the same digest iff they folded the same sessions
    /// into the same sketches in the same merge order.
    pub fn digest(&self) -> u64 {
        let mut digest = Digest64::new();
        digest.write_str("fleet-v1");
        digest.write_u64(self.sessions);
        digest.write_u64(self.seed);
        digest.write_u64(self.shards);
        for sheet in &self.sheets {
            sheet.digest_into(&mut digest);
        }
        digest.finish()
    }

    /// Renders the per-governor comparison as an aligned text table with
    /// the digest trailer. The baseline row (first policy) anchors the
    /// battery-life delta column.
    pub fn render(&self, deadline: Seconds) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet: {} sessions, seed {}, {} shards\n",
            self.sessions, self.seed, self.shards
        ));
        out.push_str(&format!(
            "{:<14} {:>8} {:>9} {:>9} {:>9} {:>11} {:>11} {:>11}\n",
            "governor", "met %", "p50 s", "p90 s", "mean PPW", "energy J", "battery h", "delta h"
        ));
        let baseline = self.sheets.first().map(GovernorSheet::mean_battery_hours);
        for sheet in &self.sheets {
            let delta = baseline.map_or(0.0, |b| sheet.mean_battery_hours() - b);
            out.push_str(&format!(
                "{:<14} {:>8.1} {:>9.3} {:>9.3} {:>9.4} {:>11.1} {:>11.2} {:>+11.2}\n",
                sheet.governor,
                sheet.load_time_cdf_at(deadline.value()) * 100.0,
                sheet.load_time.quantile(0.5),
                sheet.load_time.quantile(0.9),
                sheet.ppw.mean(),
                sheet.energy.value(),
                sheet.mean_battery_hours(),
                delta,
            ));
        }
        out.push_str(&format!("digest: {:016x}\n", self.digest()));
        out
    }

    /// Renders the same comparison as CSV (one row per governor).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "governor,sessions,met_fraction,timed_out,switches,\
             p50_load_s,p90_load_s,mean_ppw,energy_j,mean_battery_h,digest\n",
        );
        for sheet in &self.sheets {
            out.push_str(&format!(
                "{},{},{:.6},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:016x}\n",
                sheet.governor,
                sheet.sessions,
                sheet.deadline_met_fraction(),
                sheet.timed_out,
                sheet.switches,
                sheet.load_time.quantile(0.5),
                sheet.load_time.quantile(0.9),
                sheet.ppw.mean(),
                sheet.energy.value(),
                sheet.mean_battery_hours(),
                self.digest(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyName;
    use dora_coworkloads::Intensity;
    use dora_sim_core::units::{Celsius, Mpki, Ppw, Seconds, Utilization, Watts};
    use dora_soc::Frequency;

    fn result(load_s: f64, power_w: f64, met: bool) -> RunResult {
        let load_time = Seconds::new(load_s);
        let mean_power = Watts::new(power_w);
        RunResult {
            workload_id: "Amazon+bfs".into(),
            page: "Amazon".into(),
            kernel: "bfs".into(),
            intensity: Some(Intensity::Low),
            training: true,
            governor: PolicyName::from("interactive"),
            load_time,
            mean_power,
            energy: mean_power * load_time,
            ppw: Ppw::from_time_power(load_time, mean_power),
            met_deadline: met,
            timed_out: false,
            switches: 3,
            mean_frequency: Frequency::from_mhz(1190.4),
            final_temp: Celsius::new(45.0),
            mean_mpki: Mpki::clamped(3.0),
            corun_utilization: Utilization::clamped(0.5),
            corun_instructions: 1.0e9,
        }
    }

    #[test]
    fn record_accumulates_and_summarizes() {
        let mut sheet = GovernorSheet::new("interactive");
        sheet.record(&result(1.0, 2.0, true), WattHours::new(8.0));
        sheet.record(&result(5.0, 4.0, false), WattHours::new(8.0));
        assert_eq!(sheet.sessions, 2);
        assert_eq!(sheet.deadline_met, 1);
        assert_eq!(sheet.switches, 6);
        assert_eq!(sheet.deadline_met_fraction(), 0.5);
        assert_eq!(sheet.energy, Joules::new(1.0 * 2.0 + 5.0 * 4.0));
        // 8 Wh at 2 W = 4 h; at 4 W = 2 h; mean 3 h.
        assert!((sheet.mean_battery_hours() - 3.0).abs() < 1e-12);
        assert!(sheet.load_time_cdf_at(3.0) > 0.0);
    }

    #[test]
    fn shard_merge_equals_single_fold() {
        let sessions = [
            (0.8, 2.1, true),
            (2.9, 3.0, true),
            (4.4, 3.8, false),
            (1.7, 2.6, true),
            (6.2, 4.1, false),
        ];
        let mut whole = FleetReport::empty(9, &["interactive", "DORA"]);
        whole.sessions = sessions.len() as u64;
        whole.shards = 1;
        for &(t, p, met) in &sessions {
            for sheet in whole.sheets_mut() {
                sheet.record(&result(t, p, met), WattHours::new(8.74));
            }
        }
        let mut merged = FleetReport::empty(9, &["interactive", "DORA"]);
        for chunk in sessions.chunks(2) {
            let mut shard = FleetReport::empty(9, &["interactive", "DORA"]);
            shard.sessions = chunk.len() as u64;
            shard.shards = 1;
            for &(t, p, met) in chunk {
                for sheet in shard.sheets_mut() {
                    sheet.record(&result(t, p, met), WattHours::new(8.74));
                }
            }
            merged.merge(&shard).expect("same shapes");
        }
        assert_eq!(merged.sessions, whole.sessions);
        assert_eq!(merged.sheets(), whole.sheets());
        // Shard count differs (3 vs 1) and is part of the digest; zero it
        // out to compare the aggregates themselves.
        let mut merged_one = merged.clone();
        merged_one.shards = whole.shards;
        assert_eq!(merged_one.digest(), whole.digest());
    }

    #[test]
    fn digest_separates_different_fleets() {
        let mut a = FleetReport::empty(1, &["interactive"]);
        let mut b = FleetReport::empty(1, &["interactive"]);
        assert_eq!(a.digest(), b.digest());
        a.sheets_mut()[0].record(&result(1.0, 2.0, true), WattHours::new(8.74));
        a.sessions = 1;
        b.sheets_mut()[0].record(&result(1.0, 2.5, true), WattHours::new(8.74));
        b.sessions = 1;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn battery_delta_is_signed_difference() {
        let mut report = FleetReport::empty(0, &["interactive", "DORA"]);
        report.sheets_mut()[0].record(&result(2.0, 4.0, true), WattHours::new(8.0)); // 2 h
        report.sheets_mut()[1].record(&result(2.0, 2.0, true), WattHours::new(8.0)); // 4 h
        let delta = report
            .battery_delta_hours("DORA", "interactive")
            .expect("both present");
        assert!((delta - 2.0).abs() < 1e-12);
        assert!(report.battery_delta_hours("EE", "interactive").is_none());
    }

    #[test]
    fn render_and_csv_name_every_governor() {
        let mut report = FleetReport::empty(3, &["interactive", "DORA"]);
        for sheet in report.sheets_mut() {
            sheet.record(&result(1.5, 2.5, true), WattHours::new(8.74));
        }
        report.sessions = 1;
        report.shards = 1;
        let text = report.render(Seconds::new(3.0));
        let csv = report.to_csv();
        for g in ["interactive", "DORA"] {
            assert!(text.contains(g), "{text}");
            assert!(csv.contains(g), "{csv}");
        }
        assert!(text.contains(&format!("{:016x}", report.digest())));
        assert_eq!(csv.lines().count(), 3);
    }
}
