//! Result export.
//!
//! The experiment binaries print human-readable tables; for plotting and
//! downstream analysis the raw [`RunResult`] rows export to RFC-4180-style
//! CSV. Hand-rolled (quoting included) so the workspace carries no
//! serialization dependency.

#![allow(clippy::disallowed_methods, reason = "CSV columns are plain numbers")]

use crate::runner::{RunResult, SweepPoint};
use std::fmt::Write as _;

/// Errors produced while serializing results.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExportError {
    /// A sweep point produced no CSV row (internal serialization bug).
    MissingRow {
        /// Index of the offending sweep point.
        index: usize,
    },
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::MissingRow { index } => {
                write!(f, "sweep point {index} produced no CSV row")
            }
        }
    }
}

impl std::error::Error for ExportError {}

/// Quotes a CSV field when it contains a delimiter, quote or newline.
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The CSV header matching [`results_to_csv`] rows.
pub const RESULT_HEADER: &str = "workload_id,page,kernel,intensity,training,governor,\
load_time_s,mean_power_w,energy_j,ppw,met_deadline,timed_out,switches,\
mean_freq_ghz,final_temp_c,mean_mpki,corun_utilization,corun_instructions";

/// Serializes run results to CSV (header + one row per result).
///
/// # Example
///
/// ```
/// use dora_campaign::export::results_to_csv;
///
/// let csv = results_to_csv(&[]);
/// assert!(csv.starts_with("workload_id,page,kernel"));
/// assert_eq!(csv.lines().count(), 1); // header only
/// ```
pub fn results_to_csv(results: &[RunResult]) -> String {
    let mut out = String::from(RESULT_HEADER);
    out.push('\n');
    for r in results {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            field(&r.workload_id),
            field(&r.page),
            field(&r.kernel),
            r.intensity.map_or("none", |i| i.as_str()),
            r.training,
            field(r.governor.as_str()),
            r.load_time.value(),
            r.mean_power.value(),
            r.energy.value(),
            r.ppw.value(),
            r.met_deadline,
            r.timed_out,
            r.switches,
            r.mean_frequency.as_ghz(),
            r.final_temp.value(),
            r.mean_mpki.value(),
            r.corun_utilization.value(),
            r.corun_instructions,
        );
    }
    out
}

/// Serializes a frequency sweep to CSV, with the pinned frequency as the
/// leading column.
///
/// # Errors
///
/// Returns [`ExportError::MissingRow`] if a point fails to serialize —
/// impossible with the current writer, but surfaced rather than silently
/// emitting a short row.
pub fn sweep_to_csv(points: &[SweepPoint]) -> Result<String, ExportError> {
    let mut out = format!("freq_mhz,{RESULT_HEADER}\n");
    for (index, p) in points.iter().enumerate() {
        let rows = results_to_csv(std::slice::from_ref(&p.result));
        let row = rows
            .lines()
            .nth(1)
            .ok_or(ExportError::MissingRow { index })?;
        let _ = writeln!(out, "{},{}", p.frequency.as_mhz(), row);
    }
    Ok(out)
}

/// Parses one CSV line back into fields (inverse of the writer's quoting;
/// used by tests and external tooling that round-trips exports).
pub fn parse_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if !quoted && current.is_empty() => quoted = true,
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    current.push('"');
                } else {
                    quoted = false;
                }
            }
            ',' if !quoted => {
                fields.push(std::mem::take(&mut current));
            }
            c => current.push(c),
        }
    }
    fields.push(current);
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_scenario, ScenarioConfig};
    use crate::workload::WorkloadSet;
    use dora_coworkloads::Intensity;
    use dora_governors::PerformanceGovernor;
    use dora_sim_core::SimDuration;
    use dora_soc::DvfsTable;

    fn one_result() -> RunResult {
        let set = WorkloadSet::paper54();
        let w = set.find_by_class("Amazon", Intensity::Low).expect("exists");
        let mut g = PerformanceGovernor::new(DvfsTable::default());
        run_scenario(
            w,
            &mut g,
            &ScenarioConfig::builder()
                .warmup(SimDuration::from_secs(2))
                .build(),
        )
    }

    #[test]
    fn csv_has_header_and_one_row_per_result() {
        let r = one_result();
        let csv = results_to_csv(&[r.clone(), r]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], RESULT_HEADER);
        assert_eq!(lines[1], lines[2]);
        // Column count matches the header.
        let header_cols = parse_csv_line(lines[0]).len();
        assert_eq!(parse_csv_line(lines[1]).len(), header_cols);
    }

    #[test]
    fn numeric_fields_roundtrip() {
        let r = one_result();
        let csv = results_to_csv(std::slice::from_ref(&r));
        let row = parse_csv_line(csv.lines().nth(1).expect("row"));
        let header = parse_csv_line(RESULT_HEADER);
        let idx = |name: &str| header.iter().position(|h| h == name).expect("column");
        assert_eq!(row[idx("workload_id")], r.workload_id);
        assert_eq!(
            row[idx("load_time_s")].parse::<f64>().expect("float"),
            r.load_time.value()
        );
        assert_eq!(row[idx("met_deadline")], r.met_deadline.to_string());
        assert_eq!(
            row[idx("switches")].parse::<u64>().expect("int"),
            r.switches
        );
    }

    #[test]
    fn quoting_handles_awkward_strings() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
        let parsed = parse_csv_line("\"a,b\",c,\"say \"\"hi\"\"\"");
        assert_eq!(parsed, vec!["a,b", "c", "say \"hi\""]);
    }

    #[test]
    fn sweep_csv_prefixes_frequency() {
        let set = WorkloadSet::paper54();
        let w = set.find_by_class("Amazon", Intensity::Low).expect("exists");
        let config = ScenarioConfig::builder()
            .warmup(SimDuration::from_secs(2))
            .build();
        let points = crate::runner::sweep_frequencies_with(
            w,
            &config,
            &[dora_soc::Frequency::from_mhz(729.6)],
            &crate::executor::Executor::sequential(),
        );
        let csv = sweep_to_csv(&points).expect("serializes");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("freq_mhz,"));
        assert!(lines[1].starts_with("729.6,"));
    }
}
