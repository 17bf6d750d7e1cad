//! Minimal flag parsing for the CLI's small grammar.

use dora::units::Seconds;
use dora_campaign::{Executor, Parallelism};
use std::collections::BTreeMap;

/// Parsed arguments: positional operands plus `--flag [value]` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, Option<String>>,
}

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 3] = ["quick", "trace", "oracle"];

impl Args {
    /// Parses a raw argument list against the flags (names without the
    /// leading `--`) the subcommand accepts.
    ///
    /// # Errors
    ///
    /// Rejects a flag outside `accepted`, naming it and listing the
    /// accepted ones, and options missing a required value.
    pub fn parse(raw: &[String], accepted: &[&str]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let token = &raw[i];
            if let Some(name) = token.strip_prefix("--") {
                if !accepted.contains(&name) {
                    return Err(if accepted.is_empty() {
                        format!("unknown flag --{name}; this command takes no flags")
                    } else {
                        format!(
                            "unknown flag --{name}; accepted: --{}",
                            accepted.join(", --")
                        )
                    });
                }
                if BOOLEAN_FLAGS.contains(&name) {
                    args.options.insert(name.to_string(), None);
                } else {
                    let value = raw
                        .get(i + 1)
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("--{name} requires a value"))?;
                    args.options.insert(name.to_string(), Some(value.clone()));
                    i += 1;
                }
            } else {
                args.positional.push(token.clone());
            }
            i += 1;
        }
        Ok(args)
    }

    /// The `n`-th positional operand.
    pub fn positional(&self, n: usize) -> Option<&str> {
        self.positional.get(n).map(String::as_str)
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// A string option's value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).and_then(|v| v.as_deref())
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// When the option is absent.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// A numeric option with a default.
    ///
    /// # Errors
    ///
    /// When present but unparseable or not finite (`nan`, `inf`).
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("--{name} expects a finite number, got {v:?}")),
        }
    }

    /// The load-time deadline from `--deadline S` (3 s when absent),
    /// shared by every subcommand that takes one.
    ///
    /// # Errors
    ///
    /// When present but not a finite number of seconds above zero.
    pub fn deadline(&self) -> Result<Seconds, String> {
        let seconds = self.get_f64("deadline", 3.0)?;
        if seconds > 0.0 {
            Ok(Seconds::new(seconds))
        } else {
            Err(format!("--deadline must be positive, got {seconds}"))
        }
    }

    /// An integer option with a default.
    ///
    /// # Errors
    ///
    /// When present but unparseable.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| format!("--{name} expects an integer, got {v:?}")),
        }
    }

    /// The SoC profile selected by `--soc <name>` (MSM8974, the paper's
    /// platform, when absent).
    ///
    /// # Errors
    ///
    /// When `--soc` names an unknown profile; the message lists the
    /// registry.
    pub fn soc(&self) -> Result<dora_soc::SocProfile, String> {
        match self.get("soc") {
            None => Ok(dora_soc::SocProfile::msm8974()),
            Some(name) => dora_soc::SocProfile::by_name(name).ok_or_else(|| {
                format!(
                    "--soc expects one of {}, got {name:?}",
                    dora_soc::SocProfile::names().join(", ")
                )
            }),
        }
    }

    /// The campaign executor selected by `--jobs N` (default: one worker
    /// per core; `--jobs 1` reproduces the sequential loop exactly;
    /// `--jobs 0` means auto, matching make/cargo convention).
    ///
    /// # Errors
    ///
    /// When `--jobs` is present but not a non-negative integer.
    pub fn executor(&self) -> Result<Executor, String> {
        match self.get("jobs") {
            None => Ok(Executor::new(Parallelism::Auto)),
            Some(v) => {
                let n = v
                    .parse::<usize>()
                    .map_err(|_| format!("--jobs expects a non-negative integer, got {v:?}"))?;
                Ok(Executor::new(match n {
                    0 => Parallelism::Auto,
                    n => Parallelism::Fixed(n),
                }))
            }
        }
    }
}

/// Output format selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable aligned tables (the default).
    Text,
    /// Machine-readable CSV on stdout.
    Csv,
}

/// The option set shared by every simulation subcommand — `--jobs N`,
/// `--seed N`, `--format text|csv`, `--trace`, `--soc <profile>` —
/// parsed once so govern, campaign and fleet commands agree on spelling
/// and defaults.
#[derive(Debug)]
pub struct CommonArgs {
    /// Fan-out width from `--jobs` (auto when absent or `0`).
    pub executor: Executor,
    /// Simulation seed from `--seed` (subcommand default when absent).
    pub seed: u64,
    /// Output format from `--format` (text when absent).
    pub format: OutputFormat,
    /// Whether `--trace` asked for per-decision probe output.
    pub trace: bool,
    /// The SoC profile from `--soc` (MSM8974 when absent).
    pub soc: dora_soc::SocProfile,
}

impl Args {
    /// Parses the shared subcommand options, defaulting `--seed` to
    /// `default_seed`.
    ///
    /// # Errors
    ///
    /// When `--jobs` or `--seed` is unparseable, or `--format` names an
    /// unknown format.
    pub fn common(&self, default_seed: u64) -> Result<CommonArgs, String> {
        let format = match self.get("format") {
            None | Some("text") => OutputFormat::Text,
            Some("csv") => OutputFormat::Csv,
            Some(other) => return Err(format!("--format expects text or csv, got {other:?}")),
        };
        Ok(CommonArgs {
            executor: self.executor()?,
            seed: self.get_u64("seed", default_seed)?,
            format,
            trace: self.flag("trace"),
            soc: self.soc()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag the tests below pass.
    const FLAGS: &[&str] = &[
        "page", "quick", "mpki", "deadline", "out", "jobs", "seed", "format", "trace", "soc",
    ];

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_mixed_arguments() {
        let a = Args::parse(
            &strings(&["models.txt", "--page", "Reddit", "--quick", "--mpki", "5.5"]),
            FLAGS,
        )
        .expect("valid");
        assert_eq!(a.positional(0), Some("models.txt"));
        assert_eq!(a.get("page"), Some("Reddit"));
        assert!(a.flag("quick"));
        assert_eq!(a.get_f64("mpki", 0.0).expect("number"), 5.5);
        assert_eq!(a.get_f64("util", 0.7).expect("default"), 0.7);
    }

    #[test]
    fn missing_value_rejected() {
        assert!(Args::parse(&strings(&["--page"]), FLAGS).is_err());
        assert!(Args::parse(&strings(&["--page", "--quick"]), FLAGS).is_err());
    }

    #[test]
    fn bad_number_rejected() {
        for bad in ["lots", "nan", "inf", "-inf", "NaN"] {
            let a = Args::parse(&strings(&["--mpki", bad]), FLAGS).expect("parses");
            assert!(a.get_f64("mpki", 0.0).is_err(), "--mpki {bad}");
        }
    }

    #[test]
    fn deadline_must_be_finite_and_positive() {
        let absent = Args::parse(&[], FLAGS).expect("parses").deadline();
        assert_eq!(absent, Ok(Seconds::new(3.0)));
        for bad in ["0", "-1", "nan", "inf"] {
            let a = Args::parse(&strings(&["--deadline", bad]), FLAGS).expect("parses");
            let err = a.deadline().expect_err(bad);
            assert!(err.contains("--deadline"), "{err}");
        }
    }

    #[test]
    fn require_reports_flag_name() {
        let a = Args::parse(&[], FLAGS).expect("parses");
        let err = a.require("out").expect_err("absent");
        assert!(err.contains("--out"));
    }

    /// The executor `--jobs <value>` resolves to.
    fn executor_for(value: &str) -> Executor {
        Args::parse(&strings(&["--jobs", value]), FLAGS)
            .expect("parses")
            .executor()
            .expect("valid width")
    }

    #[test]
    fn jobs_flag_selects_executor_width() {
        let default = Args::parse(&[], FLAGS)
            .expect("parses")
            .executor()
            .expect("auto");
        assert!(default.jobs() >= 1);
        assert_eq!(executor_for("1").jobs(), 1);
        assert_eq!(executor_for("4").jobs(), 4);
        for bad in ["-2", "many", "1.5", ""] {
            // "-2" may already fail at parse; anything that parses must
            // be rejected by executor().
            if let Ok(a) = Args::parse(&strings(&["--jobs", bad]), FLAGS) {
                assert!(a.executor().is_err(), "--jobs {bad} must be rejected");
            }
        }
    }

    #[test]
    fn common_args_share_one_grammar() {
        let a = Args::parse(
            &strings(&["--jobs", "2", "--seed", "7", "--format", "csv", "--trace"]),
            FLAGS,
        )
        .expect("parses");
        let common = a.common(42).expect("valid");
        assert_eq!(common.executor.jobs(), 2);
        assert_eq!(common.seed, 7);
        assert_eq!(common.format, OutputFormat::Csv);
        assert!(common.trace);

        let defaults = Args::parse(&[], FLAGS)
            .expect("parses")
            .common(42)
            .expect("valid");
        assert_eq!(defaults.seed, 42);
        assert_eq!(defaults.format, OutputFormat::Text);
        assert!(!defaults.trace);

        let bad = Args::parse(&strings(&["--format", "yaml"]), FLAGS).expect("parses");
        let err = bad.common(42).expect_err("unknown format");
        assert!(err.contains("yaml"), "{err}");
    }

    #[test]
    fn soc_flag_selects_a_registry_profile() {
        let default = Args::parse(&[], FLAGS)
            .expect("parses")
            .soc()
            .expect("default");
        assert_eq!(default.name(), "msm8974");
        let bl = Args::parse(&strings(&["--soc", "biglittle-a15a7"]), FLAGS)
            .expect("parses")
            .soc()
            .expect("registered");
        assert_eq!(bl.name(), "biglittle-a15a7");
        assert_eq!(bl.board_config().clusters.len(), 2);
        let err = Args::parse(&strings(&["--soc", "exynos9"]), FLAGS)
            .expect("parses")
            .soc()
            .expect_err("unknown profile");
        assert!(
            err.contains("msm8974") && err.contains("biglittle-a15a7"),
            "{err}"
        );
    }

    #[test]
    fn jobs_round_trips_through_parallelism() {
        // `--jobs 0` and the flag's absence both mean auto: one worker
        // per available core, exactly what Parallelism::Auto resolves to.
        let auto = Executor::new(Parallelism::Auto).jobs();
        let absent = Args::parse(&[], FLAGS)
            .expect("parses")
            .executor()
            .expect("auto");
        assert_eq!(absent.jobs(), auto);
        assert_eq!(executor_for("0").jobs(), auto);
        // Explicit widths round-trip verbatim, matching Fixed(n).
        for n in [1usize, 2, 3, 8, 64] {
            let got = executor_for(&n.to_string()).jobs();
            assert_eq!(got, Executor::new(Parallelism::Fixed(n)).jobs());
            assert_eq!(got, n);
        }
    }
}
