//! `stale-config` — every path, function, and type named in
//! `xtask.toml` must still resolve against the loaded tree.
//!
//! Allowlists and scan scopes rot silently: a file rename strips an
//! `[allow]` prefix of its targets, a function rename orphans a
//! `[panic-reachability]` entry, a struct rename turns a
//! `[state-coverage]` contract into a no-op — and every one of those
//! *weakens* the gate without failing it. This pass generalizes PR-7's
//! per-pass stale-entry notes into one sweep: lint ids in `[levels]` /
//! `[allow]` must be registered passes, path prefixes must match at
//! least one loaded file, package names in `[layering]` must exist in a
//! manifest, and qualified function/struct paths must resolve in the
//! item tree. Findings are errors — a config that names ghosts fails
//! the run, so the file can only describe the tree as it is.
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
        "every path, function, and type named in xtask.toml must resolve against the tree"
    }

    fn explain(&self) -> &'static str {
        "The meta-lint: every path prefix, qualified function, type, and\n\
         lint id named in `xtask.toml` must still resolve against the\n\
         tree, so a rename or deletion cannot silently turn a contract\n\
         into a no-op. Also checks the registry itself — every pass must\n\
         ship non-empty `lint --explain` text.\n\
         \n\
         Config: it reads *all* of `xtask.toml`; it has no keys of its\n\
         own. Justification: none — fix or delete the stale entry."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let lint_ids: BTreeSet<&'static str> = super::registry().iter().map(|p| p.id()).collect();
        let fn_quals: BTreeSet<&str> = cx
            .files
            .iter()
            .flat_map(|f| f.items.fns.iter())
            .filter(|m| !m.in_test)
            .map(|m| m.qual.as_str())
            .collect();
        let struct_quals: BTreeSet<&str> = cx
            .files
            .iter()
            .flat_map(|f| f.items.structs.iter())
            .filter(|s| !s.in_test)
            .map(|s| s.qual.as_str())
            .collect();
        let struct_names: BTreeSet<&str> = cx
            .files
            .iter()
            .flat_map(|f| f.items.structs.iter())
            .filter(|s| !s.in_test)
            .map(|s| s.name.as_str())
            .collect();
        let have_files = !cx.files.is_empty();
        let mut err = |msg: String| {
            out.push(
                Diagnostic::error(StaleConfig.id(), Span::file(TOML_SPAN), msg).with_help(
                    "update the entry to match the tree, or delete it if the target is gone",
                ),
            );
        };

        // Lint ids keying [levels] and [allow].
        let level_keys: Vec<(&str, &String)> =
            cx.config.levels.keys().map(|k| ("levels", k)).collect();
        let allow_keys: Vec<(&str, &String)> =
            cx.config.allow.keys().map(|k| ("allow", k)).collect();
        {
            for (table, lint) in level_keys.into_iter().chain(allow_keys) {
                if !lint_ids.contains(lint.as_str()) {
                    err(format!("[{table}] names unknown lint `{lint}`"));
                }
            }
        }
        // Path prefixes must match at least one loaded file.
        if have_files {
            let matches_some = |prefix: &str| cx.files.iter().any(|f| f.rel.starts_with(prefix));
            for (what, prefixes) in [
                (
                    "[allow]",
                    cx.config.allow.values().flatten().collect::<Vec<_>>(),
                ),
                (
                    "[determinism] export_paths",
                    cx.config.determinism_paths.iter().collect(),
                ),
                (
                    "[constants] modules",
                    cx.config.constants_modules.iter().collect(),
                ),
                (
                    "[sync-hygiene] facade_paths",
                    cx.config.sync_facade_paths.iter().collect(),
                ),
                (
                    "[probe-purity] hot_paths",
                    cx.config.probe_hot_paths.iter().collect(),
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
        // Qualified function paths.
        if have_files {
            for (what, quals) in [
                ("[panic-reachability] allow", &cx.config.panic_allow),
                (
                    "[determinism-taint] source_fns",
                    &cx.config.taint_source_fns,
                ),
                ("[merge-associativity] sink_fns", &cx.config.merge_sink_fns),
                ("[snapshot-pairing] fns", &cx.config.snapshot_fns),
            ] {
                for qual in quals {
                    if !fn_quals.contains(qual.as_str()) {
                        err(format!("{what} entry `{qual}` resolves to no function"));
                    }
                }
            }
            for (ty, methods) in &cx.config.state_coverage {
                if !struct_quals.contains(ty.as_str()) {
                    err(format!("[state-coverage] key `{ty}` resolves to no struct"));
                }
                for m in methods {
                    if !fn_quals.contains(m.as_str()) {
                        err(format!(
                            "[state-coverage] \"{ty}\" entry `{m}` resolves to no function"
                        ));
                    }
                }
            }
            for ty in &cx.config.merge_mergeable_types {
                if !struct_names.contains(ty.as_str()) {
                    err(format!(
                        "[merge-associativity] mergeable_types entry `{ty}` resolves to no struct"
                    ));
                }
            }
            for qual in cx.config.probe_balance.keys() {
                if !fn_quals.contains(qual.as_str()) {
                    err(format!(
                        "[probe-balance] key `{qual}` resolves to no function"
                    ));
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
    use crate::diag::Severity;
    use crate::source::SourceFile;
    use crate::Config;

    fn cx(config: &str) -> Context {
        Context {
            files: vec![SourceFile::new(
                "crates/soc/src/agg.rs",
                "pub struct Report {\n    pub total: f64,\n}\nimpl Report {\n    pub fn merge(&mut self, other: &Report) {\n        let _ = other.total;\n    }\n}\n",
            )],
            config: Config::from_toml(config).expect("config"),
            ..Context::default()
        }
    }

    #[test]
    fn resolvable_entries_are_clean() {
        let diags = StaleConfig.run(&cx(
            "[allow]\nunits-escape = [\"crates/soc/\"]\n\n[state-coverage]\n\"soc::agg::Report\" = [\"soc::agg::Report::merge\"]\n\n[merge-associativity]\nsink_fns = [\"soc::agg::Report::merge\"]\nmergeable_types = [\"Report\"]\n",
        ));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_lint_id_is_flagged() {
        let diags = StaleConfig.run(&cx("[levels]\nno-such-lint = \"warn\"\n"));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].span.file, "xtask/xtask.toml");
        assert!(
            diags[0].message.contains("unknown lint `no-such-lint`"),
            "{diags:?}"
        );
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
    fn orphaned_function_and_struct_quals_are_flagged() {
        let diags = StaleConfig.run(&cx(
            "[panic-reachability]\nallow = [\"soc::agg::gone\"]\n\n[state-coverage]\n\"soc::agg::Ghost\" = [\"soc::agg::Report::merge\"]\n\n[merge-associativity]\nsink_fns = [\"soc::agg::Report::merge\"]\nmergeable_types = [\"Ghost\"]\n",
        ));
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(msgs
            .iter()
            .any(|m| m.contains("`soc::agg::gone` resolves to no function")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("key `soc::agg::Ghost` resolves to no struct")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("mergeable_types entry `Ghost`")));
    }

    #[test]
    fn orphaned_dataflow_contracts_are_flagged() {
        let diags = StaleConfig.run(&cx(
            "[snapshot-pairing]\nfns = [\"soc::agg::gone\"]\n\n[probe-balance]\n\"soc::agg::ghost\" = [\"attach\", \"detach\"]\n",
        ));
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(msgs
            .iter()
            .any(|m| m.contains("[snapshot-pairing] fns entry `soc::agg::gone`")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("[probe-balance] key `soc::agg::ghost`")));
    }

    #[test]
    fn unit_types_are_exempt_and_empty_contexts_skip_tree_checks() {
        let cx = Context {
            config: Config::from_toml(
                "[units-escape]\nboundary_paths = [\"crates/gone/\"]\nunit_types = [\"NotAStruct\"]\n\n[panic-reachability]\nallow = [\"ghost::fn\"]\n",
            )
            .expect("config"),
            ..Context::default()
        };
        assert!(StaleConfig.run(&cx).is_empty());
    }
}
