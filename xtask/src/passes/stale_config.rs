//! `stale-config` — every path, package, and lint id named in
//! `xtask.toml` must still resolve against the loaded tree.
//!
//! Allowlists and scan scopes rot silently: a file rename strips an
//! `[allow]` prefix of its targets, a crate rename orphans a
//! `[layering]` entry, a retired pass leaves its `[allow]` entry
//! behind — and every one of those *weakens* the gate without failing
//! it. This pass sweeps the whole file: lint ids in `[allow]` must be
//! registered passes, path prefixes must match at least one loaded
//! file, and package names in `[layering]` must exist in a manifest. Findings are errors — a config that names ghosts
//! fails the run, so the file can only describe the tree as it is.
//!
//! `[units-escape] unit_types` is exempt: the unit newtypes are
//! macro-generated and invisible to item extraction by design.
//! Contexts without loaded files or manifests (single-file fixtures)
//! skip the checks that need them.

use crate::diag::{Diagnostic, Span};
use crate::Context;
use std::collections::BTreeSet;

/// The pass. See the module docs.
pub struct StaleConfig;

const TOML_SPAN: &str = "xtask/xtask.toml";

impl super::Pass for StaleConfig {
    fn id(&self) -> &'static str {
        "stale-config"
    }

    fn description(&self) -> &'static str {
        "every path, package, and lint id named in xtask.toml must resolve against the tree"
    }

    fn explain(&self) -> &'static str {
        "The meta-lint: every path prefix, package name, and lint id\n\
         named in `xtask.toml` must still resolve against the tree, so\n\
         a rename or deletion cannot silently turn a contract into a\n\
         no-op. Also checks the registry itself — every pass must\n\
         ship non-empty `lint --explain` text.\n\
         \n\
         Config: it reads *all* of `xtask.toml`; it has no keys of its\n\
         own. Justification: none — fix or delete the stale entry."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let lint_ids: BTreeSet<&'static str> = super::registry().iter().map(|p| p.id()).collect();
        let mut err = |msg: String| {
            out.push(
                Diagnostic::error(StaleConfig.id(), Span::file(TOML_SPAN), msg).with_help(
                    "update the entry to match the tree, or delete it if the target is gone",
                ),
            );
        };

        // Lint ids keying [allow].
        for lint in cx.config.allow.keys() {
            if !lint_ids.contains(lint.as_str()) {
                err(format!("[allow] names unknown lint `{lint}`"));
            }
        }
        // Path prefixes must match at least one loaded file.
        if !cx.files.is_empty() {
            let matches_some = |prefix: &str| cx.files.iter().any(|f| f.rel.starts_with(prefix));
            for (what, prefixes) in [
                (
                    "[allow]",
                    cx.config.allow.values().flatten().collect::<Vec<_>>(),
                ),
                (
                    "[constants] modules",
                    cx.config.constants_modules.iter().collect(),
                ),
                (
                    "[units-escape] boundary_paths",
                    cx.config.units_boundary_paths.iter().collect(),
                ),
            ] {
                for prefix in prefixes {
                    if !matches_some(prefix) {
                        err(format!("{what} prefix `{prefix}` matches no loaded file"));
                    }
                }
            }
        }
        // Layer entries are package names from the workspace manifests.
        if !cx.manifests.is_empty() {
            let packages: BTreeSet<&str> = cx.manifests.iter().map(|m| m.name.as_str()).collect();
            for layer in &cx.config.layers {
                for pkg in layer {
                    if !packages.contains(pkg.as_str()) {
                        err(format!("[layering] names unknown package `{pkg}`"));
                    }
                }
            }
        }
        // The registry itself: a pass without --explain text is a
        // documentation contract silently dropped.
        for pass in super::registry() {
            if pass.explain().trim().is_empty() {
                err(format!(
                    "pass `{}` ships empty `lint --explain` text",
                    pass.id()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::Pass;
    use super::*;
    use crate::source::SourceFile;
    use crate::Config;

    fn cx(config: &str) -> Context {
        Context {
            files: vec![SourceFile::new(
                "crates/soc/src/agg.rs",
                "pub struct Report {\n    pub total: f64,\n}\n",
            )],
            config: Config::from_toml(config).expect("config"),
            ..Context::default()
        }
    }

    #[test]
    fn resolvable_entries_are_clean() {
        let diags = StaleConfig.run(&cx(
            "[allow]\nunits-escape = [\"crates/soc/\"]\n\n[constants]\nmodules = [\"crates/soc/src/agg.rs\"]\n",
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_lint_id_is_flagged() {
        // Retired passes: a leftover allowlist for one must be reported
        // like any typo.
        for id in [
            "no-such-lint",
            "dimensional-flow",
            "panic-reachability",
            "determinism-taint",
            "merge-associativity",
            "probe-purity",
        ] {
            let diags = StaleConfig.run(&cx(&format!("[allow]\n{id} = [\"crates/soc/\"]\n")));
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].span.file, "xtask/xtask.toml");
            assert!(
                diags[0]
                    .message
                    .contains(&format!("[allow] names unknown lint `{id}`")),
                "{diags:?}"
            );
        }
    }

    #[test]
    fn dead_path_prefix_is_flagged() {
        let diags = StaleConfig.run(&cx("[allow]\nunits-escape = [\"crates/gone/\"]\n"));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0]
                .message
                .contains("prefix `crates/gone/` matches no loaded file"),
            "{diags:?}"
        );
        assert!(
            diags[0]
                .help
                .as_deref()
                .is_some_and(|h| h.contains("delete it if the target is gone")),
            "{diags:?}"
        );
    }

    #[test]
    fn unit_types_are_exempt_and_empty_contexts_skip_tree_checks() {
        let cx = Context {
            config: Config::from_toml(
                "[units-escape]\nboundary_paths = [\"crates/gone/\"]\nunit_types = [\"NotAStruct\"]\n",
            )
            .expect("config"),
            ..Context::default()
        };
        assert!(StaleConfig.run(&cx).is_empty());
    }
}
