//! `crate-layering` — the workspace's declared layer order stays intact.
//!
//! `[layering] layers` in `xtask.toml` lists the workspace crates
//! bottom-up. A crate's normal (non-dev) dependencies must sit in its own
//! layer or a lower one: upward edges are rejected, as are crates missing
//! from the declaration entirely. Cargo itself refuses cycles among
//! normal dependencies, the only edges checked here. Every member must
//! also declare `[lints] workspace = true`, so the workspace's rustc
//! lints (`unsafe_code` and `missing_docs` denied) reach each crate.

use crate::diag::{Diagnostic, Span};
use crate::workspace::Manifest;
use crate::Context;
use std::collections::BTreeMap;

/// The pass. See the module docs.
pub struct CrateLayering;

impl super::Pass for CrateLayering {
    fn id(&self) -> &'static str {
        "crate-layering"
    }

    fn description(&self) -> &'static str {
        "crate dependencies respect the declared layer order; every crate inherits the workspace lints"
    }

    fn explain(&self) -> &'static str {
        "Checks workspace crate dependencies against the declared layer\n\
         order: a crate may depend only on crates in its own or a lower\n\
         layer, and every workspace crate must be assigned to a layer\n\
         (cargo itself refuses dependency cycles). Every manifest must\n\
         also declare `[lints] workspace = true`, which carries the\n\
         workspace's denied `unsafe_code` and `missing_docs`.\n\
         \n\
         Config (`xtask.toml`):\n\
           [layering]\n\
           layers = [[\"dora-sim-core\", …], [\"dora-soc\"], …]  # bottom-up\n\
         Justification: none inline — fix the dependency or move the\n\
         crate's layer assignment; add the `[lints]` table."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        if cx.config.layers.is_empty() {
            return Vec::new();
        }
        let mut layer_of: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, layer) in cx.config.layers.iter().enumerate() {
            for name in layer {
                layer_of.insert(name.as_str(), i);
            }
        }
        let workspace: BTreeMap<&str, &Manifest> =
            cx.manifests.iter().map(|m| (m.name.as_str(), m)).collect();

        let mut out = Vec::new();
        for m in &cx.manifests {
            if !m.workspace_lints {
                out.push(
                    Diagnostic::error(
                        self.id(),
                        Span::file(&m.path),
                        format!("crate `{}` does not inherit the workspace lints", m.name),
                    )
                    .with_help("add `[lints]` with `workspace = true` to its manifest"),
                );
            }
            let Some(&my_layer) = layer_of.get(m.name.as_str()) else {
                out.push(
                    Diagnostic::error(
                        self.id(),
                        Span::file(&m.path),
                        format!("crate `{}` is not assigned to a layer", m.name),
                    )
                    .with_help("add it to [layering] layers in xtask/xtask.toml"),
                );
                continue;
            };
            for dep in m.normal_deps() {
                if !workspace.contains_key(dep.name.as_str()) {
                    continue; // external dependency: not layered
                }
                let Some(&dep_layer) = layer_of.get(dep.name.as_str()) else {
                    continue; // its own manifest finding covers this
                };
                if dep_layer > my_layer {
                    out.push(
                        Diagnostic::error(
                            self.id(),
                            Span::line(&m.path, dep.line),
                            format!(
                                "upward dependency: `{}` (layer {my_layer}) depends on \
                                 `{}` (layer {dep_layer})",
                                m.name, dep.name
                            ),
                        )
                        .with_help(
                            "invert the dependency or move shared code to a lower layer; \
                             the layer order lives in [layering] of xtask/xtask.toml",
                        ),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::Pass;
    use super::*;
    use crate::workspace::DepEntry;
    use crate::Config;

    fn manifest(name: &str, deps: &[&str]) -> Manifest {
        Manifest {
            name: name.to_string(),
            path: format!("crates/{name}/Cargo.toml"),
            deps: deps
                .iter()
                .enumerate()
                .map(|(i, d)| DepEntry {
                    name: (*d).to_string(),
                    line: i + 10,
                    dev: false,
                })
                .collect(),
            workspace_lints: true,
        }
    }

    fn config() -> Config {
        Config::from_toml(
            "[layering]\nlayers = [\n  [\"base\"],\n  [\"mid\", \"mid2\"],\n  [\"top\"],\n]\n",
        )
        .expect("config")
    }

    #[test]
    fn conforming_graph_is_clean() {
        let cx = Context {
            manifests: vec![
                manifest("base", &[]),
                manifest("mid", &["base"]),
                manifest("mid2", &["base", "mid"]),
                manifest("top", &["mid", "base"]),
            ],
            config: config(),
            ..Context::default()
        };
        assert!(CrateLayering.run(&cx).is_empty());
    }

    #[test]
    fn upward_edge_is_rejected_at_the_dep_line() {
        let cx = Context {
            manifests: vec![manifest("base", &["top"]), manifest("top", &[])],
            config: config(),
            ..Context::default()
        };
        let diags = CrateLayering.run(&cx);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("upward dependency"), "{diags:?}");
        assert_eq!(diags[0].span, Span::line("crates/base/Cargo.toml", 10));
    }

    #[test]
    fn unassigned_crate_is_rejected() {
        let cx = Context {
            manifests: vec![manifest("stray", &[])],
            config: config(),
            ..Context::default()
        };
        let diags = CrateLayering.run(&cx);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("not assigned"), "{diags:?}");
    }

    #[test]
    fn no_declared_layers_disables_the_pass() {
        let cx = Context {
            manifests: vec![manifest("anything", &["whatever"])],
            ..Context::default()
        };
        assert!(CrateLayering.run(&cx).is_empty());
    }
}
