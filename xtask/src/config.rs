//! Typed view of `xtask.toml`.
//!
//! The config file owns everything a pass can be parameterized on:
//! per-lint levels, per-lint file allowlists, the crate layer order, the
//! determinism-scanned export paths, the designated paper-constants
//! modules with their trivial-float exemptions, and the sanctioned
//! panic entry points (`[panic-reachability] allow`, which subsumed the
//! old per-file `[panic-budget]` counts).

use crate::toml::{self, Value};
use std::collections::BTreeMap;

/// How findings of one lint are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Level {
    /// Findings fail the run (the default).
    #[default]
    Deny,
    /// Findings are reported but do not fail the run.
    Warn,
    /// Findings are dropped.
    Allow,
}

impl Level {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "deny" => Ok(Level::Deny),
            "warn" => Ok(Level::Warn),
            "allow" => Ok(Level::Allow),
            other => Err(format!(
                "unknown lint level `{other}` (expected deny | warn | allow)"
            )),
        }
    }
}

/// The parsed configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Per-lint level overrides (`[levels]`).
    pub levels: BTreeMap<String, Level>,
    /// Per-lint path-prefix allowlists (`[allow]`).
    pub allow: BTreeMap<String, Vec<String>>,
    /// The declared crate layers, bottom-up (`[layering] layers`). A crate
    /// may depend only on crates in its own or a lower layer.
    pub layers: Vec<Vec<String>>,
    /// Path prefixes of export/serialization code the determinism lint
    /// scans (`[determinism] export_paths`).
    pub determinism_paths: Vec<String>,
    /// Files designated as paper-constants modules (`[constants] modules`).
    pub constants_modules: Vec<String>,
    /// Float values exempt from the constants audit (`[constants]
    /// trivial`): structural values like 0.0, 1.0, 1024.0 that encode no
    /// physical or model assumption.
    pub trivial_floats: Vec<f64>,
    /// Qualified function paths sanctioned to contain panic sites
    /// (`[panic-reachability] allow`), e.g.
    /// `campaign::runner::Runner::run`.
    pub panic_allow: Vec<String>,
    /// Path prefixes of sync-facade implementations, exempt from the
    /// sync-hygiene facade ban (`[sync-hygiene] facade_paths`).
    pub sync_facade_paths: Vec<String>,
    /// Path prefixes of probe-off hot-path files the probe-purity lint
    /// scans for allocation/formatting (`[probe-purity] hot_paths`).
    pub probe_hot_paths: Vec<String>,
    /// Path prefixes of the typed-units boundary crates the units-escape
    /// lint audits (`[units-escape] boundary_paths`).
    pub units_boundary_paths: Vec<String>,
    /// Names of the unit newtypes (`[units-escape] unit_types`) —
    /// declared here because the types are macro-generated and invisible
    /// to item extraction.
    pub unit_types: Vec<String>,
    /// Qualified function paths treated as extra nondeterminism sources
    /// by the determinism-taint lint (`[determinism-taint] source_fns`).
    pub taint_source_fns: Vec<String>,
    /// State-coverage contracts (`[state-coverage]`): qualified struct
    /// path → qualified methods that must each access every named field
    /// of the struct (or justify the gap with `// state: skip(<reason>)`).
    pub state_coverage: BTreeMap<String, Vec<String>>,
    /// Qualified shard-merge sink functions (`[merge-associativity]
    /// sink_fns`): raw `f64` accumulation reachable from these is
    /// flagged unless it goes through a mergeable sketch type.
    pub merge_sink_fns: Vec<String>,
    /// Type names whose methods are trusted to merge associatively
    /// (`[merge-associativity] mergeable_types`).
    pub merge_mergeable_types: Vec<String>,
    /// Method name that opens a snapshot pair (`[snapshot-pairing]
    /// open`). Empty means the pass's built-in default, `snapshot`.
    pub snapshot_open: String,
    /// Method name that closes a snapshot pair (`[snapshot-pairing]
    /// close`). Empty means the pass's built-in default, `restore`.
    pub snapshot_close: String,
    /// Qualified functions the snapshot-pairing lint checks
    /// (`[snapshot-pairing] fns`). Empty leaves the pass inert.
    pub snapshot_fns: Vec<String>,
    /// Probe-balance contracts (`[probe-balance]`): qualified function
    /// path → `[open_method, close_method]` that must balance on every
    /// control-flow path through that function.
    pub probe_balance: BTreeMap<String, (String, String)>,
}

fn string_list(value: &Value, what: &str) -> Result<Vec<String>, String> {
    value
        .as_array()
        .ok_or_else(|| format!("{what} must be an array"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{what} must contain strings"))
        })
        .collect()
}

impl Config {
    /// Parses `xtask.toml` text.
    pub fn from_toml(text: &str) -> Result<Self, String> {
        let doc = toml::parse(text)?;
        let mut config = Config::default();
        for (table, entries) in &doc {
            match table.as_str() {
                "" => {
                    if let Some(key) = entries.keys().next() {
                        return Err(format!("top-level key `{key}` outside any table"));
                    }
                }
                "levels" => {
                    for (lint, v) in entries {
                        let s = v
                            .as_str()
                            .ok_or_else(|| format!("[levels] {lint} must be a string"))?;
                        config.levels.insert(lint.clone(), Level::parse(s)?);
                    }
                }
                "allow" => {
                    for (lint, v) in entries {
                        config
                            .allow
                            .insert(lint.clone(), string_list(v, &format!("[allow] {lint}"))?);
                    }
                }
                "layering" => {
                    for (key, v) in entries {
                        if key != "layers" {
                            return Err(format!("unknown key `{key}` in [layering]"));
                        }
                        let outer = v
                            .as_array()
                            .ok_or("[layering] layers must be an array of arrays")?;
                        for layer in outer {
                            config
                                .layers
                                .push(string_list(layer, "[layering] layers entries")?);
                        }
                    }
                }
                "determinism" => {
                    for (key, v) in entries {
                        if key != "export_paths" {
                            return Err(format!("unknown key `{key}` in [determinism]"));
                        }
                        config.determinism_paths = string_list(v, "[determinism] export_paths")?;
                    }
                }
                "constants" => {
                    for (key, v) in entries {
                        match key.as_str() {
                            "modules" => {
                                config.constants_modules = string_list(v, "[constants] modules")?;
                            }
                            "trivial" => {
                                config.trivial_floats = v
                                    .as_array()
                                    .ok_or("[constants] trivial must be an array")?
                                    .iter()
                                    .map(|x| {
                                        x.as_float().ok_or_else(|| {
                                            "[constants] trivial must contain numbers".to_string()
                                        })
                                    })
                                    .collect::<Result<_, _>>()?;
                            }
                            other => return Err(format!("unknown key `{other}` in [constants]")),
                        }
                    }
                }
                "sync-hygiene" => {
                    for (key, v) in entries {
                        if key != "facade_paths" {
                            return Err(format!("unknown key `{key}` in [sync-hygiene]"));
                        }
                        config.sync_facade_paths = string_list(v, "[sync-hygiene] facade_paths")?;
                    }
                }
                "probe-purity" => {
                    for (key, v) in entries {
                        if key != "hot_paths" {
                            return Err(format!("unknown key `{key}` in [probe-purity]"));
                        }
                        config.probe_hot_paths = string_list(v, "[probe-purity] hot_paths")?;
                    }
                }
                "panic-reachability" => {
                    for (key, v) in entries {
                        if key != "allow" {
                            return Err(format!("unknown key `{key}` in [panic-reachability]"));
                        }
                        config.panic_allow = string_list(v, "[panic-reachability] allow")?;
                    }
                }
                "units-escape" => {
                    for (key, v) in entries {
                        match key.as_str() {
                            "boundary_paths" => {
                                config.units_boundary_paths =
                                    string_list(v, "[units-escape] boundary_paths")?;
                            }
                            "unit_types" => {
                                config.unit_types = string_list(v, "[units-escape] unit_types")?;
                            }
                            other => {
                                return Err(format!("unknown key `{other}` in [units-escape]"))
                            }
                        }
                    }
                }
                "state-coverage" => {
                    for (ty, v) in entries {
                        config.state_coverage.insert(
                            ty.clone(),
                            string_list(v, &format!("[state-coverage] \"{ty}\""))?,
                        );
                    }
                }
                "merge-associativity" => {
                    for (key, v) in entries {
                        match key.as_str() {
                            "sink_fns" => {
                                config.merge_sink_fns =
                                    string_list(v, "[merge-associativity] sink_fns")?;
                            }
                            "mergeable_types" => {
                                config.merge_mergeable_types =
                                    string_list(v, "[merge-associativity] mergeable_types")?;
                            }
                            other => {
                                return Err(format!(
                                    "unknown key `{other}` in [merge-associativity]"
                                ))
                            }
                        }
                    }
                }
                "snapshot-pairing" => {
                    for (key, v) in entries {
                        match key.as_str() {
                            "open" => {
                                config.snapshot_open = v
                                    .as_str()
                                    .ok_or("[snapshot-pairing] open must be a string")?
                                    .to_string();
                            }
                            "close" => {
                                config.snapshot_close = v
                                    .as_str()
                                    .ok_or("[snapshot-pairing] close must be a string")?
                                    .to_string();
                            }
                            "fns" => {
                                config.snapshot_fns = string_list(v, "[snapshot-pairing] fns")?;
                            }
                            other => {
                                return Err(format!("unknown key `{other}` in [snapshot-pairing]"))
                            }
                        }
                    }
                }
                "probe-balance" => {
                    for (qual, v) in entries {
                        let pair = string_list(v, &format!("[probe-balance] \"{qual}\""))?;
                        let [open, close] = <[String; 2]>::try_from(pair).map_err(|_| {
                            format!("[probe-balance] \"{qual}\" must be [open, close]")
                        })?;
                        config.probe_balance.insert(qual.clone(), (open, close));
                    }
                }
                "determinism-taint" => {
                    for (key, v) in entries {
                        if key != "source_fns" {
                            return Err(format!("unknown key `{key}` in [determinism-taint]"));
                        }
                        config.taint_source_fns = string_list(v, "[determinism-taint] source_fns")?;
                    }
                }
                other => return Err(format!("unknown table `[{other}]` in xtask.toml")),
            }
        }
        Ok(config)
    }

    /// The effective level of a lint (deny unless overridden).
    pub fn level(&self, lint: &str) -> Level {
        self.levels.get(lint).copied().unwrap_or_default()
    }

    /// Whether `file` is allowlisted for `lint` (path-prefix match).
    pub fn is_allowed(&self, lint: &str, file: &str) -> bool {
        self.allow
            .get(lint)
            .is_some_and(|prefixes| prefixes.iter().any(|p| file.starts_with(p.as_str())))
    }

    /// Whether a float value is in the trivial exemption list.
    pub fn is_trivial_float(&self, value: f64) -> bool {
        self.trivial_floats.contains(&value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[levels]
partial-cmp = "warn"
sync-hygiene = "allow"

[allow]
units-escape = ["crates/experiments/", "crates/cli/"]

[layering]
layers = [
  ["dora-sim-core", "dora-soc"],
  ["dora-browser"],
]

[determinism]
export_paths = ["crates/campaign/src/export.rs"]

[constants]
modules = ["crates/soc/src/dvfs.rs"]
trivial = [0.0, 1.0, 1024.0]

[panic-reachability]
allow = ["campaign::runner::Runner::run"]

[units-escape]
boundary_paths = ["crates/soc/"]
unit_types = ["Seconds", "Watts"]

[determinism-taint]
source_fns = ["campaign::executor::unordered_reduce"]

[state-coverage]
"soc::snapshot::BoardSnapshot" = [
  "soc::snapshot::Board::snapshot",
  "soc::snapshot::Board::restore",
]
"sim-core::stats::Running" = ["sim-core::stats::Running::merge"]

[merge-associativity]
sink_fns = ["campaign::fleet::report::FleetReport::merge"]
mergeable_types = ["FixedHistogram", "Running"]

[snapshot-pairing]
open = "snapshot"
close = "restore"
fns = ["campaign::runner::Runner::sweep_frequencies_with"]

[probe-balance]
"campaign::runner::Runner::run_page_observed" = ["attach_probe", "detach_probe"]
"#;

    #[test]
    fn full_sample_round_trips() {
        let c = Config::from_toml(SAMPLE).expect("parses");
        assert_eq!(c.level("partial-cmp"), Level::Warn);
        assert_eq!(c.level("sync-hygiene"), Level::Allow);
        assert_eq!(c.level("panic-reachability"), Level::Deny);
        assert!(c.is_allowed("units-escape", "crates/cli/src/args.rs"));
        assert!(!c.is_allowed("units-escape", "crates/soc/src/dvfs.rs"));
        assert_eq!(c.layers.len(), 2);
        assert_eq!(c.layers[0], vec!["dora-sim-core", "dora-soc"]);
        assert_eq!(c.panic_allow, vec!["campaign::runner::Runner::run"]);
        assert_eq!(c.units_boundary_paths, vec!["crates/soc/"]);
        assert_eq!(c.unit_types, vec!["Seconds", "Watts"]);
        assert_eq!(
            c.taint_source_fns,
            vec!["campaign::executor::unordered_reduce"]
        );
        assert!(c.is_trivial_float(1024.0));
        assert!(!c.is_trivial_float(64.0));
        assert_eq!(
            c.state_coverage["soc::snapshot::BoardSnapshot"],
            vec![
                "soc::snapshot::Board::snapshot",
                "soc::snapshot::Board::restore"
            ]
        );
        assert_eq!(
            c.state_coverage["sim-core::stats::Running"],
            vec!["sim-core::stats::Running::merge"]
        );
        assert_eq!(
            c.merge_sink_fns,
            vec!["campaign::fleet::report::FleetReport::merge"]
        );
        assert_eq!(c.merge_mergeable_types, vec!["FixedHistogram", "Running"]);
        assert_eq!(c.snapshot_open, "snapshot");
        assert_eq!(c.snapshot_close, "restore");
        assert_eq!(
            c.snapshot_fns,
            vec!["campaign::runner::Runner::sweep_frequencies_with"]
        );
        assert_eq!(
            c.probe_balance["campaign::runner::Runner::run_page_observed"],
            ("attach_probe".to_string(), "detach_probe".to_string())
        );
    }

    #[test]
    fn probe_balance_pair_must_have_two_entries() {
        let err = Config::from_toml("[probe-balance]\n\"a::b\" = [\"open\"]\n").expect_err("bad");
        assert!(err.contains("must be [open, close]"), "{err}");
    }

    #[test]
    fn unknown_merge_associativity_key_is_rejected() {
        let err = Config::from_toml("[merge-associativity]\nsinks = []\n").expect_err("bad");
        assert!(err.contains("unknown key `sinks`"), "{err}");
    }

    #[test]
    fn bad_level_is_rejected() {
        let err = Config::from_toml("[levels]\nx = \"fatal\"\n").expect_err("bad");
        assert!(err.contains("unknown lint level"), "{err}");
    }

    #[test]
    fn unknown_table_is_rejected() {
        let err = Config::from_toml("[typo]\nx = 1\n").expect_err("bad");
        assert!(err.contains("unknown table"), "{err}");
    }

    #[test]
    fn retired_panic_budget_table_is_rejected() {
        let err = Config::from_toml("[panic-budget]\n\"a.rs\" = 1\n").expect_err("bad");
        assert!(err.contains("unknown table"), "{err}");
    }
}
