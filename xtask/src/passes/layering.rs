//! `crate-layering` — the workspace's declared layer order stays intact.
//!
//! `[layering] layers` in `xtask.toml` lists the workspace crates
//! bottom-up. A crate's normal (non-dev) dependencies must sit in its own
//! layer or a lower one: upward edges are rejected, as are dependency
//! cycles (which same-layer edges could otherwise smuggle in) and crates
//! missing from the declaration entirely. Every member must also declare
//! `[lints] workspace = true`, so the workspace's rustc lints
//! (`unsafe_code` and `missing_docs` denied) reach each crate.

use crate::diag::{Diagnostic, Span};
use crate::workspace::Manifest;
use crate::Context;
use std::collections::BTreeMap;

/// The pass. See the module docs.
pub struct CrateLayering;

fn find_cycle(manifests: &[Manifest]) -> Option<Vec<String>> {
    let names: BTreeMap<&str, &Manifest> = manifests.iter().map(|m| (m.name.as_str(), m)).collect();
    // 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut state: BTreeMap<&str, u8> = BTreeMap::new();
    fn dfs<'a>(
        node: &'a str,
        names: &BTreeMap<&'a str, &'a Manifest>,
        state: &mut BTreeMap<&'a str, u8>,
        path: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        state.insert(node, 1);
        path.push(node);
        if let Some(m) = names.get(node) {
            for dep in m.normal_deps() {
                let Some((&dep_name, _)) = names.get_key_value(dep.name.as_str()) else {
                    continue;
                };
                match state.get(dep_name).copied().unwrap_or(0) {
                    1 => {
                        let start = path.iter().position(|&n| n == dep_name).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            path[start..].iter().map(|s| (*s).to_string()).collect();
                        cycle.push(dep_name.to_string());
                        return Some(cycle);
                    }
                    0 => {
                        if let Some(c) = dfs(dep_name, names, state, path) {
                            return Some(c);
                        }
                    }
                    _ => {}
                }
            }
        }
        path.pop();
        state.insert(node, 2);
        None
    }
    let mut keys: Vec<&str> = names.keys().copied().collect();
    keys.sort_unstable();
    for name in keys {
        if state.get(name).copied().unwrap_or(0) == 0 {
            let mut path = Vec::new();
            if let Some(c) = dfs(name, &names, &mut state, &mut path) {
                return Some(c);
            }
        }
    }
    None
}

impl super::Pass for CrateLayering {
    fn id(&self) -> &'static str {
        "crate-layering"
    }

    fn description(&self) -> &'static str {
        "crate dependencies respect the declared layer order, acyclically; every crate inherits the workspace lints"
    }

    fn explain(&self) -> &'static str {
        "Checks workspace crate dependencies against the declared layer\n\
         order: a crate may depend only on crates in its own or a lower\n\
         layer, every workspace crate must be assigned to a layer, and\n\
         the dependency graph must be acyclic. Every manifest must also\n\
         declare `[lints] workspace = true`, which carries the\n\
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
        if let Some(cycle) = find_cycle(&cx.manifests) {
            let first = cycle.first().cloned().unwrap_or_default();
            let span = workspace
                .get(first.as_str())
                .map_or_else(|| Span::file("Cargo.toml"), |m| Span::file(&m.path));
            out.push(
                Diagnostic::error(
                    self.id(),
                    span,
                    format!("dependency cycle: {}", cycle.join(" -> ")),
                )
                .with_help("break the cycle; same-layer edges must still form a DAG"),
            );
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
    fn same_layer_cycle_is_rejected() {
        let cx = Context {
            manifests: vec![manifest("mid", &["mid2"]), manifest("mid2", &["mid"])],
            config: config(),
            ..Context::default()
        };
        let diags = CrateLayering.run(&cx);
        assert!(
            diags.iter().any(|d| d.message.contains("dependency cycle")),
            "{diags:?}"
        );
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
