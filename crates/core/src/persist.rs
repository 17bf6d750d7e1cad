//! Trained-model persistence.
//!
//! The paper's models are trained *offline* and shipped to the phone; a
//! deployable governor therefore needs its model bundle to survive a
//! process boundary. This module serializes a [`DoraModels`] to a
//! versioned, line-oriented text format and back, with no dependency on a
//! serialization framework:
//!
//! ```text
//! dora-models v1
//! dvfs <n>
//! opp <khz> <voltage>
//! ...
//! leakage <k1> <alpha> <beta> <k2> <gamma> <delta>
//! surface load_time <encoding> <kind> <tiers-bitmask>
//! fit global <n-inputs> <means...> <stds...> <coefficients...>
//! fit tier0 ...
//! ...
//! surface power ...
//! end
//! ```
//!
//! All floats are written with `{:?}` (shortest round-trippable form), so
//! a save/load round trip is bit-exact.

use crate::models::{DoraModels, FrequencyEncoding, PiecewiseSurface, INPUTS};
use dora_modeling::leakage::Eq5Params;
use dora_modeling::surface::{FittedSurface, ResponseSurface, SurfaceKind};
use dora_soc::DvfsTable;
use std::fmt::Write as _;

/// Errors from parsing a persisted model bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The input ended before the bundle was complete.
    UnexpectedEof,
    /// A structurally invalid line.
    Malformed {
        /// 1-based line number of the offending input.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The parsed DVFS table failed validation.
    InvalidDvfs(String),
}

impl PersistError {
    fn malformed(line: usize, reason: impl Into<String>) -> Self {
        PersistError::Malformed {
            line,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::UnexpectedEof => {
                write!(f, "model bundle parse error: unexpected end of input")
            }
            PersistError::Malformed { line, reason } => {
                write!(f, "model bundle parse error: line {line}: {reason}")
            }
            PersistError::InvalidDvfs(reason) => {
                write!(f, "model bundle parse error: invalid dvfs table: {reason}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Serializes a model bundle to the versioned text format.
pub fn to_text(models: &DoraModels) -> String {
    let mut out = String::from("dora-models v1\n");
    let _ = writeln!(out, "dvfs {}", models.dvfs.len());
    for opp in models.dvfs.opps() {
        let _ = writeln!(out, "opp {} {:?}", opp.frequency.as_khz(), opp.voltage);
    }
    let lk = models.leakage;
    let _ = writeln!(
        out,
        "leakage {:?} {:?} {:?} {:?} {:?} {:?}",
        lk.k1, lk.alpha, lk.beta, lk.k2, lk.gamma, lk.delta
    );
    write_surface(&mut out, "load_time", &models.load_time);
    write_surface(&mut out, "power", &models.power);
    out.push_str("end\n");
    out
}

fn encoding_name(e: FrequencyEncoding) -> &'static str {
    match e {
        FrequencyEncoding::Natural => "natural",
        FrequencyEncoding::Period => "period",
    }
}

fn kind_name(k: SurfaceKind) -> &'static str {
    match k {
        SurfaceKind::Linear => "linear",
        SurfaceKind::Quadratic => "quadratic",
        SurfaceKind::Interaction => "interaction",
    }
}

fn write_fit(out: &mut String, label: &str, fit: &FittedSurface) {
    let _ = write!(out, "fit {label} {}", fit.surface().inputs());
    for v in fit.means() {
        let _ = write!(out, " {v:?}");
    }
    for v in fit.stds() {
        let _ = write!(out, " {v:?}");
    }
    for v in fit.coefficients() {
        let _ = write!(out, " {v:?}");
    }
    out.push('\n');
}

fn write_surface(out: &mut String, name: &str, surface: &PiecewiseSurface) {
    let mask = (0..3).fold(0u8, |m, i| {
        if surface.tier_fit(i).is_some() {
            m | (1 << i)
        } else {
            m
        }
    });
    let _ = writeln!(
        out,
        "surface {name} {} {} {mask}",
        encoding_name(surface.encoding()),
        kind_name(surface.global_fit().surface().kind()),
    );
    write_fit(out, "global", surface.global_fit());
    for i in 0..3 {
        if let Some(fit) = surface.tier_fit(i) {
            write_fit(out, &format!("tier{i}"), fit);
        }
    }
}

/// A line-cursor over the input.
struct Lines<'a> {
    iter: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Lines<'a> {
    fn next(&mut self) -> Result<(usize, &'a str), PersistError> {
        for (n, line) in self.iter.by_ref() {
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Ok((n + 1, trimmed));
            }
        }
        Err(PersistError::UnexpectedEof)
    }
}

fn parse_f64(tok: &str, line: usize) -> Result<f64, PersistError> {
    tok.parse::<f64>()
        .map_err(|_| PersistError::malformed(line, format!("bad float {tok:?}")))
}

fn parse_fit(
    line_no: usize,
    tokens: &[&str],
    expected_label: &str,
    kind: SurfaceKind,
) -> Result<FittedSurface, PersistError> {
    if tokens.len() < 3 || tokens[0] != "fit" {
        return Err(PersistError::malformed(line_no, "expected a fit line"));
    }
    if tokens[1] != expected_label {
        return Err(PersistError::malformed(
            line_no,
            format!("expected fit {expected_label}, got {}", tokens[1]),
        ));
    }
    let n: usize = tokens[2]
        .parse()
        .map_err(|_| PersistError::malformed(line_no, "bad input count"))?;
    if n != INPUTS {
        return Err(PersistError::malformed(
            line_no,
            format!("fit over {n} inputs; Table I has {INPUTS}"),
        ));
    }
    let surface = ResponseSurface::new(kind, n);
    let want = 2 * n + surface.term_count();
    let values = &tokens[3..];
    if values.len() != want {
        return Err(PersistError::malformed(
            line_no,
            format!("expected {want} numbers, got {}", values.len()),
        ));
    }
    let nums: Result<Vec<f64>, _> = values.iter().map(|t| parse_f64(t, line_no)).collect();
    let nums = nums?;
    FittedSurface::from_parts(
        surface,
        nums[..n].to_vec(),
        nums[n..2 * n].to_vec(),
        nums[2 * n..].to_vec(),
    )
    .map_err(|e| PersistError::malformed(line_no, e.to_string()))
}

fn parse_surface(
    lines: &mut Lines<'_>,
    expected_name: &str,
) -> Result<PiecewiseSurface, PersistError> {
    let (n, line) = lines.next()?;
    let tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.len() != 5 || tokens[0] != "surface" {
        return Err(PersistError::malformed(n, "expected a surface header"));
    }
    if tokens[1] != expected_name {
        return Err(PersistError::malformed(
            n,
            format!("expected surface {expected_name}, got {}", tokens[1]),
        ));
    }
    let encoding = match tokens[2] {
        "natural" => FrequencyEncoding::Natural,
        "period" => FrequencyEncoding::Period,
        other => {
            return Err(PersistError::malformed(
                n,
                format!("unknown encoding {other:?}"),
            ))
        }
    };
    let kind = match tokens[3] {
        "linear" => SurfaceKind::Linear,
        "quadratic" => SurfaceKind::Quadratic,
        "interaction" => SurfaceKind::Interaction,
        other => {
            return Err(PersistError::malformed(
                n,
                format!("unknown kind {other:?}"),
            ))
        }
    };
    let mask: u8 = tokens[4]
        .parse()
        .map_err(|_| PersistError::malformed(n, "bad tier mask"))?;

    let (gn, gline) = lines.next()?;
    let global = parse_fit(
        gn,
        &gline.split_whitespace().collect::<Vec<_>>(),
        "global",
        kind,
    )?;
    let mut tiers: [Option<FittedSurface>; 3] = [None, None, None];
    for (i, tier) in tiers.iter_mut().enumerate() {
        if mask & (1 << i) != 0 {
            let (tn, tline) = lines.next()?;
            *tier = Some(parse_fit(
                tn,
                &tline.split_whitespace().collect::<Vec<_>>(),
                &format!("tier{i}"),
                kind,
            )?);
        }
    }
    Ok(PiecewiseSurface::new(tiers, global, encoding))
}

/// Parses a model bundle from the versioned text format.
///
/// # Errors
///
/// [`PersistError`] describing the first malformed line.
pub fn from_text(text: &str) -> Result<DoraModels, PersistError> {
    let mut lines = Lines {
        iter: text.lines().enumerate(),
    };
    let (n, header) = lines.next()?;
    if header != "dora-models v1" {
        return Err(PersistError::malformed(
            n,
            format!("unknown header {header:?}"),
        ));
    }

    let (n, dvfs_line) = lines.next()?;
    let tokens: Vec<&str> = dvfs_line.split_whitespace().collect();
    if tokens.len() != 2 || tokens[0] != "dvfs" {
        return Err(PersistError::malformed(n, "expected dvfs count"));
    }
    let count: usize = tokens[1]
        .parse()
        .map_err(|_| PersistError::malformed(n, "bad dvfs count"))?;
    if count == 0 || count > 64 {
        return Err(PersistError::malformed(
            n,
            format!("implausible dvfs count {count}"),
        ));
    }
    let mut points = Vec::with_capacity(count);
    for _ in 0..count {
        let (n, opp) = lines.next()?;
        let t: Vec<&str> = opp.split_whitespace().collect();
        if t.len() != 3 || t[0] != "opp" {
            return Err(PersistError::malformed(n, "expected an opp line"));
        }
        let khz: u64 = t[1]
            .parse()
            .map_err(|_| PersistError::malformed(n, "bad frequency"))?;
        let voltage = parse_f64(t[2], n)?;
        if !(voltage.is_finite() && voltage > 0.0) {
            return Err(PersistError::malformed(n, format!("bad voltage {voltage}")));
        }
        points.push((khz as f64 / 1000.0, voltage));
    }
    // DvfsTable::new validates ordering but panics; pre-check here so a
    // corrupt file yields an error instead.
    for pair in points.windows(2) {
        if pair[0].0 >= pair[1].0 {
            return Err(PersistError::InvalidDvfs(
                "table not strictly ascending".into(),
            ));
        }
    }
    let dvfs = DvfsTable::new(&points);

    let (n, lk) = lines.next()?;
    let t: Vec<&str> = lk.split_whitespace().collect();
    if t.len() != 7 || t[0] != "leakage" {
        return Err(PersistError::malformed(n, "expected a leakage line"));
    }
    let leakage = Eq5Params {
        k1: parse_f64(t[1], n)?,
        alpha: parse_f64(t[2], n)?,
        beta: parse_f64(t[3], n)?,
        k2: parse_f64(t[4], n)?,
        gamma: parse_f64(t[5], n)?,
        delta: parse_f64(t[6], n)?,
    };

    let load_time = parse_surface(&mut lines, "load_time")?;
    let power = parse_surface(&mut lines, "power")?;
    let (n, tail) = lines.next()?;
    if tail != "end" {
        return Err(PersistError::malformed(n, "expected end marker"));
    }
    let models = DoraModels {
        load_time,
        power,
        leakage,
        dvfs,
    };
    models
        .validate()
        .map_err(|e| PersistError::malformed(n, e.to_string()))?;
    Ok(models)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PredictorInputs;
    use dora_browser::PageFeatures;
    use dora_sim_core::units::{Celsius, Mpki, Seconds, Utilization, Watts};

    /// Builds a small but real trained bundle.
    fn trained_models() -> DoraModels {
        use crate::trainer::{train, TrainerConfig, TrainingObservation};
        use dora_modeling::leakage::LeakageObservation;
        use dora_sim_core::Rng;
        let dvfs = DvfsTable::default();
        let mut rng = Rng::seed_from_u64(5);
        let mut obs = Vec::new();
        for pi in 0..10 {
            let page = PageFeatures::synthesize(&mut rng, pi as f64 / 9.0);
            for f in dvfs.frequencies() {
                for mpki in [0.5, 6.0, 14.0] {
                    let inputs = PredictorInputs::for_frequency(
                        page,
                        f,
                        &dvfs,
                        Mpki::clamped(mpki),
                        Utilization::clamped(0.7),
                    );
                    obs.push(TrainingObservation {
                        inputs,
                        load_time: Seconds::new(2.0 / f.as_ghz() + 0.04 * mpki),
                        total_power: Watts::new(1.5 + 0.8 * f.as_ghz()),
                        mean_temp: Celsius::new(30.0 + 10.0 * f.as_ghz()),
                    });
                }
            }
        }
        let truth = Eq5Params {
            k1: 0.22,
            alpha: 800.0,
            beta: -4300.0,
            k2: 0.05,
            gamma: 2.0,
            delta: -2.0,
        };
        let lk_obs: Vec<LeakageObservation> = (0..30)
            .map(|i| {
                let v = 0.8 + 0.3 * (i % 6) as f64 / 5.0;
                let c = Celsius::new(25.0 + 40.0 * (i / 6) as f64 / 4.0);
                LeakageObservation {
                    voltage: v,
                    temp: c,
                    power: truth.eval(v, c),
                }
            })
            .collect();
        train(&obs, &lk_obs, &dvfs, TrainerConfig::default()).expect("trains")
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let models = trained_models();
        let text = to_text(&models);
        let parsed = from_text(&text).expect("parses back");
        assert_eq!(models, parsed);
        // Predictions agree exactly too.
        let page = PageFeatures::new(2100, 1300, 620, 680, 590).expect("valid");
        let warm = Celsius::new(45.0);
        for f in models.dvfs.frequencies() {
            let inputs = PredictorInputs::for_frequency(
                page,
                f,
                &models.dvfs,
                Mpki::clamped(4.0),
                Utilization::clamped(0.6),
            );
            assert_eq!(
                models.predict_load_time(&inputs).value().to_bits(),
                parsed.predict_load_time(&inputs).value().to_bits()
            );
            assert_eq!(
                models
                    .predict_total_power(&inputs, warm, true)
                    .value()
                    .to_bits(),
                parsed
                    .predict_total_power(&inputs, warm, true)
                    .value()
                    .to_bits()
            );
        }
    }

    #[test]
    fn format_is_versioned_and_terminated() {
        let text = to_text(&trained_models());
        assert!(text.starts_with("dora-models v1\n"));
        assert!(text.ends_with("end\n"));
        assert!(text.contains("surface load_time period interaction"));
        assert!(text.contains("surface power natural linear"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_text("").is_err());
        assert!(from_text("hello world").is_err());
        assert!(from_text("dora-models v2\n").is_err());
        // Truncation after the header.
        assert!(from_text("dora-models v1\ndvfs 2\nopp 300000 0.8\n").is_err());
    }

    #[test]
    fn rejects_corrupted_numbers() {
        let good = to_text(&trained_models());
        let bad = good.replacen("leakage", "leakage NaNsense", 1);
        assert!(from_text(&bad).is_err());
        let bad = good.replace("dvfs 14", "dvfs 9999");
        assert!(from_text(&bad).is_err());
    }

    #[test]
    fn rejects_unsorted_dvfs() {
        let good = to_text(&trained_models());
        // Swap the first two opp lines.
        let mut lines: Vec<&str> = good.lines().collect();
        lines.swap(2, 3);
        assert!(from_text(&lines.join("\n")).is_err());
    }

    /// `good` with the global load-time fit's input count replaced.
    fn with_input_count(good: &str, count: &str) -> String {
        good.replacen("fit global 9 ", &format!("fit global {count} "), 1)
    }

    fn assert_malformed(text: &str) {
        assert!(
            matches!(from_text(text), Err(PersistError::Malformed { .. })),
            "expected a malformed-input error"
        );
    }

    #[test]
    fn rejects_zero_input_count() {
        let good = to_text(&trained_models());
        assert_malformed(&with_input_count(&good, "0"));
    }

    #[test]
    fn rejects_huge_input_count() {
        let good = to_text(&trained_models());
        assert_malformed(&with_input_count(&good, &usize::MAX.to_string()));
        assert_malformed(&with_input_count(&good, "4294967296"));
    }

    #[test]
    fn rejects_input_count_other_than_nine() {
        let good = to_text(&trained_models());
        // Eight inputs with a number list that is self-consistent for
        // eight: only the count check can catch it.
        let surface = ResponseSurface::new(SurfaceKind::Interaction, 8);
        let fit = FittedSurface::from_parts(
            surface,
            vec![0.0; 8],
            vec![1.0; 8],
            vec![0.5; surface.term_count()],
        )
        .expect("valid parts");
        let mut line = String::new();
        write_fit(&mut line, "global", &fit);
        let global = good
            .lines()
            .find(|l| l.starts_with("fit global"))
            .expect("has a global fit");
        assert_malformed(&good.replacen(global, line.trim_end(), 1));
    }

    #[test]
    fn whitespace_and_blank_lines_tolerated() {
        let text = to_text(&trained_models());
        let padded: String = text.lines().map(|l| format!("  {l}  \n\n")).collect();
        let parsed = from_text(&padded).expect("parses with padding");
        assert_eq!(parsed, trained_models());
    }
}
