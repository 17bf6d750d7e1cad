//! Typed view of `xtask.toml`.
//!
//! The config file owns everything a pass can be parameterized on:
//! per-lint file allowlists, the crate layer order, the designated
//! paper-constants modules with their trivial-float exemptions, and the
//! typed-units boundary.
//! Panic sanctions, the hash-collection ban and the raw-unit accessor
//! ban are the compiler's (`#[expect(clippy::…)]` and clippy.toml).

use crate::toml::{self, Value};
use std::collections::BTreeMap;

/// The parsed configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Per-lint path-prefix allowlists (`[allow]`).
    pub allow: BTreeMap<String, Vec<String>>,
    /// The declared crate layers, bottom-up (`[layering] layers`). A crate
    /// may depend only on crates in its own or a lower layer.
    pub layers: Vec<Vec<String>>,
    /// Files designated as paper-constants modules (`[constants] modules`).
    pub constants_modules: Vec<String>,
    /// Float values exempt from the constants audit (`[constants]
    /// trivial`): structural values like 0.0, 1.0, 1024.0 that encode no
    /// physical or model assumption.
    pub trivial_floats: Vec<f64>,
    /// Path prefixes of the typed-units boundary crates the units-escape
    /// lint audits (`[units-escape] boundary_paths`).
    pub units_boundary_paths: Vec<String>,
    /// Names of the unit newtypes (`[units-escape] unit_types`) —
    /// declared here because the types are macro-generated and invisible
    /// to item extraction.
    pub unit_types: Vec<String>,
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
                other => return Err(format!("unknown table `[{other}]` in xtask.toml")),
            }
        }
        Ok(config)
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
[allow]
units-escape = ["crates/experiments/", "crates/cli/"]

[layering]
layers = [
  ["dora-sim-core", "dora-soc"],
  ["dora-browser"],
]

[constants]
modules = ["crates/soc/src/dvfs.rs"]
trivial = [0.0, 1.0, 1024.0]

[units-escape]
boundary_paths = ["crates/soc/"]
unit_types = ["Seconds", "Watts"]
"#;

    #[test]
    fn full_sample_round_trips() {
        let c = Config::from_toml(SAMPLE).expect("parses");
        assert!(c.is_allowed("units-escape", "crates/cli/src/args.rs"));
        assert!(!c.is_allowed("units-escape", "crates/soc/src/dvfs.rs"));
        assert_eq!(c.layers.len(), 2);
        assert_eq!(c.layers[0], vec!["dora-sim-core", "dora-soc"]);
        assert_eq!(c.units_boundary_paths, vec!["crates/soc/"]);
        assert_eq!(c.unit_types, vec!["Seconds", "Watts"]);
        assert!(c.is_trivial_float(1024.0));
        assert!(!c.is_trivial_float(64.0));
    }

    #[test]
    fn unknown_units_escape_key_is_rejected() {
        let err = Config::from_toml("[units-escape]\nboundary = []\n").expect_err("bad");
        assert!(err.contains("unknown key `boundary`"), "{err}");
    }

    #[test]
    fn unknown_table_is_rejected() {
        let err = Config::from_toml("[typo]\nx = 1\n").expect_err("bad");
        assert!(err.contains("unknown table"), "{err}");
    }

    #[test]
    fn retired_tables_are_rejected() {
        for table in [
            "panic-budget",
            "state-coverage",
            "snapshot-pairing",
            "probe-balance",
            "sync-hygiene",
            "panic-reachability",
            "determinism",
            "determinism-taint",
            "merge-associativity",
            "probe-purity",
            "levels",
        ] {
            let err = Config::from_toml(&format!("[{table}]\n\"a\" = 1\n")).expect_err("bad");
            assert!(err.contains("unknown table"), "{table}: {err}");
        }
    }
}
