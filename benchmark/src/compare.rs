//! `compare <parent-dir> <change-dir>`: the verdict rule for a change
//! measured against its parent on a small, noisy machine.
//!
//! Both directories hold the `runs.jsonl` the benchmark appends to; runs
//! pair up by order within each workload (run both sides with the same
//! seed sequence, alternating which side runs first). For every workload
//! and end-to-end metric, on its own row: each side's median and
//! quartiles, the pairs the change won (ties count for neither) and a
//! verdict —
//!
//! * `unresolved` when either side's run-to-run spread (interquartile
//!   range over median) exceeds the metric's bound, unless every change
//!   run reads better than every parent run;
//! * `improved` when the change wins at least nine tenths of the pairs
//!   and its median is better by more than the parent's interquartile
//!   range;
//! * `regressed` when its median is worse by more than the bound;
//! * `unchanged` otherwise.
//!
//! A workload's details (the decision latencies of `decide-replay`) get
//! the same verdict against the direction and bound stored with them.
//! Per-layer metrics are listed without a verdict; deterministic checks
//! (digests, simulated outcomes) and failure counts must match exactly.

use crate::json::{self, Value};
use crate::stats;
use crate::{spec, MetricSpec, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One recorded run.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    attempted: f64,
    failed: f64,
    /// Metric and detail values by name.
    metrics: BTreeMap<String, f64>,
    /// The details as declared by the run that reported them.
    details: Vec<MetricSpec>,
    checks: BTreeMap<String, String>,
}

fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let path = dir.join("runs.jsonl");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = json::parse(line)?;
            let num = |k: &str| {
                v.get(k)
                    .and_then(Value::as_f64)
                    .ok_or(format!("run without {k}"))
            };
            let object = |k: &str| v.get(k).and_then(Value::as_object);
            let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
            for (k, mv) in object("metrics")
                .into_iter()
                .chain(object("details"))
                .flatten()
            {
                if let Some(x) = mv.get("value").and_then(Value::as_f64) {
                    metrics.insert(k.clone(), x);
                }
            }
            let details = object("details")
                .into_iter()
                .flatten()
                .map(|(k, d)| MetricSpec {
                    name: k.clone(),
                    unit: d.get("unit").and_then(Value::as_str).unwrap_or("").into(),
                    better: d.get("better").and_then(Value::as_str).map(String::from),
                    bound: d.get("bound").and_then(Value::as_f64),
                })
                .collect();
            let checks = v
                .get("checks")
                .and_then(Value::as_object)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, cv)| cv.as_str().map(|s| (k.clone(), s.to_string())))
                        .collect()
                })
                .unwrap_or_default();
            Ok(Run {
                workload: v
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or("run without workload")?
                    .to_string(),
                seed: num("seed")? as u64,
                trace: num("trace")? != 0.0,
                attempted: num("attempted")?,
                failed: num("failed")?,
                metrics,
                details,
                checks,
            })
        })
        .collect()
}

/// The verdict of one end-to-end metric.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (usize, &'static str) {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return (0, "unresolved");
    }
    let [p1, pm, p3] = stats::quartiles(parent);
    let cm = stats::median(change);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let spread_too_wide =
        stats::relative_spread(parent) > bound || stats::relative_spread(change) > bound;
    let worse_share = if lower_is_better {
        (cm - pm) / pm.abs()
    } else {
        (pm - cm) / pm.abs()
    };
    let v = if spread_too_wide && !all_better {
        "unresolved"
    } else if wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > p3 - p1 {
        "improved"
    } else if worse_share > bound {
        "regressed"
    } else {
        "unchanged"
    };
    (wins, v)
}

fn describe(values: &[f64]) -> String {
    let [q1, q2, q3] = stats::quartiles(values);
    format!("{q2:>12.4} [{q1:.4}, {q3:.4}]")
}

/// Runs the subcommand; exit 1 on a regression or a deterministic
/// mismatch, 2 on unreadable input.
pub fn main(args: &[String]) -> ExitCode {
    let [parent_dir, change_dir] = args else {
        eprintln!("usage: dora-benchmark compare <parent-dir> <change-dir>");
        return ExitCode::from(2);
    };
    let (spec, parent, change) = match (
        spec(),
        load(Path::new(parent_dir)),
        load(Path::new(change_dir)),
    ) {
        (Ok(s), Ok(p), Ok(c)) => (s, p, c),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = false;
    println!(
        "{:<22} {:<40} {:>34} {:>34} {:>7}  verdict",
        "workload", "metric", "parent median [p25, p75]", "change median [p25, p75]", "won"
    );
    for workload in WORKLOADS {
        for (trace, metrics) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let side = |runs: &[Run]| -> Vec<Run> {
                runs.iter()
                    .filter(|r| r.workload == workload && r.trace == trace)
                    .cloned()
                    .collect()
            };
            let (p, c) = (side(&parent), side(&change));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let mut details: Vec<&MetricSpec> = p.iter().flat_map(|r| &r.details).collect();
            details.sort_by(|a, b| a.name.cmp(&b.name));
            details.dedup_by(|a, b| a.name == b.name);
            for m in metrics.iter().chain(details) {
                bad |= row(workload, m, &p, &c);
            }
            let errors = |runs: &[Run]| {
                let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
                let failed: f64 = runs.iter().map(|r| r.failed).sum();
                (failed, attempted)
            };
            let (pf, pa) = errors(&p);
            let (cf, ca) = errors(&c);
            let same = pf == cf && pf == 0.0;
            bad |= !same;
            println!(
                "{workload:<22} {:<40} {:>34} {:>34} {:>7}  {}",
                if trace {
                    "failed/attempted (traced)"
                } else {
                    "failed/attempted"
                },
                format!("{pf}/{pa}"),
                format!("{cf}/{ca}"),
                "",
                if same { "identical" } else { "differs" }
            );
            bad |= checks_row(workload, &p, &c);
        }
    }
    if bad {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Whether `value` agrees between every parent and change run that share
/// a seed; `None` when no seed is shared (deterministic outputs depend on
/// the seed, so runs of different seeds are not comparable).
fn same_by_seed<T: PartialEq>(
    p: &[Run],
    c: &[Run],
    value: impl Fn(&Run) -> Option<T>,
) -> Option<bool> {
    let mut compared = false;
    for pr in p {
        for cr in c.iter().filter(|cr| cr.seed == pr.seed) {
            if let (Some(a), Some(b)) = (value(pr), value(cr)) {
                if a != b {
                    return Some(false);
                }
                compared = true;
            }
        }
    }
    compared.then_some(true)
}

fn agreement(same: Option<bool>) -> &'static str {
    match same {
        Some(true) => "identical",
        Some(false) => "differs",
        None => "-",
    }
}

/// Prints one metric row; returns whether it regressed or, for a count,
/// differed at an equal seed.
fn row(workload: &str, m: &MetricSpec, p: &[Run], c: &[Run]) -> bool {
    let values = |runs: &[Run]| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.metrics.get(&m.name).copied())
            .collect()
    };
    let (pv, cv) = (values(p), values(c));
    if pv.is_empty() || cv.is_empty() {
        return false;
    }
    let (won, v) = match (m.better.as_deref(), m.bound) {
        (Some(better), Some(bound)) => verdict(&pv, &cv, better == "lower", bound),
        _ if m.unit == "count" => (
            0,
            agreement(same_by_seed(p, c, |r| r.metrics.get(&m.name).copied())),
        ),
        _ => (0, "-"),
    };
    let pairs = pv.len().min(cv.len());
    println!(
        "{workload:<22} {:<40} {:>34} {:>34} {:>7}  {v}",
        format!("{} ({})", m.name, m.unit),
        describe(&pv),
        describe(&cv),
        if m.bound.is_some() {
            format!("{won}/{pairs}")
        } else {
            String::new()
        },
    );
    v == "regressed" || v == "differs"
}

/// Compares every deterministic check of runs that share a seed; returns
/// whether any differed.
fn checks_row(workload: &str, p: &[Run], c: &[Run]) -> bool {
    let names: std::collections::BTreeSet<&String> =
        p.iter().flat_map(|r| r.checks.keys()).collect();
    let mut differing: Vec<&str> = Vec::new();
    let mut compared = 0;
    for name in names {
        match same_by_seed(p, c, |r| r.checks.get(name).cloned()) {
            Some(true) => compared += 1,
            Some(false) => differing.push(name),
            None => {}
        }
    }
    if compared + differing.len() > 0 {
        println!(
            "{workload:<22} {:<40} {:>34} {:>34} {:>7}  {}",
            "deterministic checks",
            format!("{} compared", compared + differing.len()),
            "",
            "",
            if differing.is_empty() {
                "identical".to_string()
            } else {
                format!("differs: {}", differing.join(", "))
            }
        );
    }
    !differing.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        // Higher is better: a clear 20 % gain.
        let faster: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&parent, &faster, false, 0.1), (10, "improved"));
        // 20 % worse beyond a 10 % bound.
        let slower: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&parent, &slower, false, 0.1).1, "regressed");
        // Within the bound.
        let same: Vec<f64> = parent.iter().map(|x| x * 0.99).collect();
        assert_eq!(verdict(&parent, &same, false, 0.1).1, "unchanged");
        // Spread wider than the bound.
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 100.0, 70.0, 130.0, 90.0, 110.0,
        ];
        assert_eq!(verdict(&parent, &noisy, false, 0.1).1, "unresolved");
        // Lower is better.
        let lower: Vec<f64> = parent.iter().map(|x| x * 0.5).collect();
        assert_eq!(verdict(&parent, &lower, true, 0.1).1, "improved");
    }
}
