//! `determinism-taint` — export/golden code must not draw on
//! nondeterminism, in the export files themselves or anywhere the call
//! graph leads from them.
//!
//! Byte-identical goldens (the fleet digest, SARIF snapshots, CSV
//! exports) are the repo's core reproducibility claim, so the files
//! listed under `[determinism] export_paths` are checked two ways:
//!
//! 1. **Export files.** Every non-test `HashMap`/`HashSet` token in them
//!    is an error — struct fields, `use` lines and signatures included,
//!    not only function bodies: iteration order varies run to run, so
//!    any CSV/JSON row order derived from one breaks bit-reproducibility.
//! 2. **Reachability.** Every function defined in an export file is a
//!    sink. A `HashMap` iteration, wall-clock read (`Instant` /
//!    `SystemTime`), or a declared unordered-reduction helper
//!    (`[determinism-taint] source_fns`) anywhere in the workspace is an
//!    error if some sink can reach it, and the finding prints the call
//!    chain from the sink.
//!
//! Sources are token-level idents, so strings, comments, and
//! `#[cfg(test)]` code never count; `FxHashMap` and `HashMapExt` are
//! different tokens.

use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, Span};
use crate::lex::{LineIndex, TokenKind};
use crate::source::SourceFile;
use crate::Context;

/// The pass. See the module docs.
pub struct DeterminismTaint;

const HASH_SOURCES: [&str; 2] = ["HashMap", "HashSet"];
const CLOCK_SOURCES: [&str; 2] = ["Instant", "SystemTime"];

/// `(1-based line, 1-based column, type name)` of hash-collection
/// mentions in non-test code.
pub fn hash_collection_sites(file: &SourceFile) -> Vec<(usize, usize, &'static str)> {
    let src = file.text.as_str();
    let index = LineIndex::new(src);
    let in_cfg_test = |lo: usize| {
        file.items
            .cfg_test_spans
            .iter()
            .any(|&(a, b)| a <= lo && lo < b)
    };
    let mut out = Vec::new();
    for tok in &file.tokens {
        if tok.kind != TokenKind::Ident || in_cfg_test(tok.lo) {
            continue;
        }
        if let Some(&name) = HASH_SOURCES.iter().find(|&&n| tok.text(src) == n) {
            let (line, col) = index.line_col(tok.lo);
            out.push((line, col, name));
        }
    }
    out
}

impl super::Pass for DeterminismTaint {
    fn id(&self) -> &'static str {
        "determinism-taint"
    }

    fn description(&self) -> &'static str {
        "export code must not use hash-seeded collections or reach nondeterminism sources"
    }

    fn explain(&self) -> &'static str {
        "Bans hash-seeded collections (`HashMap`, `HashSet`) anywhere in\n\
         the configured export/serialization files: their iteration order\n\
         varies run to run, so golden files and exported reports stop\n\
         being byte-stable. Use `BTreeMap`/`BTreeSet` (or sort before\n\
         emitting). Then a taint analysis over the intra-workspace call\n\
         graph: functions defined in those files are sinks, and any\n\
         nondeterminism source reachable from them — wall-clock reads,\n\
         hash-seeded iteration, plus the configured extra sources — is an\n\
         error, with the call path shown.\n\
         \n\
         Config (`xtask.toml`):\n\
           [determinism]\n\
           export_paths = [\"crates/campaign/src/export.rs\"]  # the sinks\n\
           [determinism-taint]\n\
           source_fns = [\"campaign::executor::unordered_reduce\"]\n\
         Justification: none inline — route the sink through a\n\
         deterministic facade instead."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        if cx.config.determinism_paths.is_empty() {
            return Vec::new();
        }
        let in_export = |rel: &str| {
            cx.config
                .determinism_paths
                .iter()
                .any(|p| rel.starts_with(p.as_str()))
        };
        let mut out = Vec::new();
        for file in cx.files.iter().filter(|f| in_export(&f.rel)) {
            for (line, column, name) in hash_collection_sites(file) {
                out.push(
                    Diagnostic::error(
                        self.id(),
                        Span::at(&file.rel, line, column),
                        format!("`{name}` in export code: iteration order is nondeterministic"),
                    )
                    .with_help("use BTreeMap/BTreeSet, or collect and sort before serializing"),
                );
            }
        }
        let graph = CallGraph::build(cx);

        // Sinks: every non-test function defined in an export path.
        let sinks: Vec<usize> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.item.in_test && in_export(&n.rel))
            .map(|(i, _)| i)
            .collect();
        if sinks.is_empty() {
            return out;
        }
        let reach = graph.forward(&sinks);

        // Sources: token scan of each reachable body, plus declared
        // source functions.
        for (idx, node) in graph.nodes.iter().enumerate() {
            if node.item.in_test || !reach.contains(idx) {
                continue;
            }
            let chain = reach
                .path_to(idx)
                .map(|p| graph.render_path(&p))
                .unwrap_or_else(|| node.item.qual.clone());
            if cx
                .config
                .taint_source_fns
                .iter()
                .any(|q| q == &node.item.qual)
            {
                out.push(
                    Diagnostic::error(
                        self.id(),
                        Span::line(&node.rel, node.item.line),
                        format!(
                            "declared nondeterminism source `{}` is reachable from export \
                             code (chain: `{chain}`)",
                            node.item.qual
                        ),
                    )
                    .with_help(
                        "make the helper deterministic or cut the call path to the \
                         export sink",
                    ),
                );
            }
            let Some((body_lo, body_hi)) = node.item.body else {
                continue;
            };
            let file = &cx.files[node.file];
            let src = file.text.as_str();
            let index = LineIndex::new(src);
            let mut seen_kinds: Vec<&str> = Vec::new();
            for i in body_lo..body_hi.min(file.tokens.len()) {
                let tok = &file.tokens[i];
                if tok.kind != TokenKind::Ident {
                    continue;
                }
                let text = tok.text(src);
                let is_hash = HASH_SOURCES.contains(&text);
                let is_clock = CLOCK_SOURCES.contains(&text);
                if !is_hash && !is_clock {
                    continue;
                }
                // Hash tokens in export files were all reported above,
                // with their columns.
                if is_hash && in_export(&node.rel) {
                    continue;
                }
                if seen_kinds.contains(&text) {
                    continue;
                }
                seen_kinds.push(text);
                let what = if is_hash {
                    format!("`{text}` iteration order")
                } else {
                    format!("wall clock (`{text}`)")
                };
                out.push(
                    Diagnostic::error(
                        self.id(),
                        Span::line(&node.rel, index.line(tok.lo)),
                        format!(
                            "{what} in `{}` is reachable from export code \
                             (chain: `{chain}`)",
                            node.item.qual
                        ),
                    )
                    .with_help(if is_hash {
                        "use BTreeMap/BTreeSet (stable iteration order) or sort before \
                         exporting"
                    } else {
                        "exported artifacts must not depend on wall-clock time; thread a \
                         simulated clock through instead"
                    }),
                );
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

    fn config() -> Config {
        Config::from_toml(
            "[determinism]\nexport_paths = [\"crates/campaign/src/export.rs\"]\n\
             [determinism-taint]\nsource_fns = [\"campaign::stats::unordered_sum\"]\n",
        )
        .expect("config")
    }

    const EXPORT_FIXTURE: &str = r#"
use std::collections::HashMap;

pub fn export(rows: &HashMap<String, f64>) -> String {
    rows.iter().map(|(k, v)| format!("{k},{v}\n")).collect()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
}
"#;

    fn run_on(rel: &str, src: &str, export_paths: &str) -> Vec<Diagnostic> {
        let cx = Context {
            files: vec![SourceFile::new(rel, src)],
            config: Config::from_toml(&format!(
                "[determinism]\nexport_paths = [\"{export_paths}\"]\n"
            ))
            .expect("config"),
            ..Context::default()
        };
        DeterminismTaint.run(&cx)
    }

    #[test]
    fn hash_collections_in_export_paths_are_flagged() {
        let rel = "crates/campaign/src/export.rs";
        let diags = run_on(rel, EXPORT_FIXTURE, rel);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].span, Span::at(rel, 2, 23));
        assert!(diags[0].message.contains("HashMap"));
        assert_eq!(diags[1].span, Span::at(rel, 4, 22));
    }

    #[test]
    fn test_modules_and_out_of_scope_files_are_exempt() {
        let diags = run_on("crates/cli/src/args.rs", EXPORT_FIXTURE, "crates/campaign/");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn prefix_scoping_covers_struct_fields_in_fig_modules() {
        let diags = run_on(
            "crates/experiments/src/fig08.rs",
            "pub struct R {\n    pub m: std::collections::HashMap<String, f64>,\n}\n",
            "crates/experiments/src/fig",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].span.line, 2);
    }

    #[test]
    fn identifier_continuations_and_strings_do_not_match() {
        let file = SourceFile::new(
            "crates/x/src/lib.rs",
            "fn f() {\n    let a = FxHashMap::default();\n    let b = \"HashMap\";\n    let c = r#\"HashSet\"#;\n    let _ = (a, b, c);\n}\nstruct HashMapExt;\n",
        );
        let sites = hash_collection_sites(&file);
        assert!(sites.is_empty(), "{sites:?}");
    }

    #[test]
    fn hash_iteration_reachable_from_export_is_flagged_with_chain() {
        let export = SourceFile::new(
            "crates/campaign/src/export.rs",
            "pub fn write_csv() {\n    crate::stats::summarize();\n}\n",
        );
        let stats = SourceFile::new(
            "crates/campaign/src/stats.rs",
            "use std::collections::HashMap;\n\npub fn summarize() {\n    let m: HashMap<u32, f64> = HashMap::new();\n    let _ = m;\n}\n",
        );
        let cx = Context {
            files: vec![export, stats],
            config: config(),
            ..Context::default()
        };
        let diags = DeterminismTaint.run(&cx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].span.file, "crates/campaign/src/stats.rs");
        assert_eq!(diags[0].span.line, 4);
        assert!(
            diags[0]
                .message
                .contains("campaign::export::write_csv -> campaign::stats::summarize"),
            "{diags:?}"
        );
    }

    #[test]
    fn unreachable_sources_and_test_code_are_clean() {
        let export = SourceFile::new("crates/campaign/src/export.rs", "pub fn write_csv() {}\n");
        let stats = SourceFile::new(
            "crates/campaign/src/stats.rs",
            "use std::collections::HashMap;\n\npub fn summarize() {\n    let m: HashMap<u32, f64> = HashMap::new();\n    let _ = m;\n}\n\n#[cfg(test)]\nmod tests {\n    fn t() {\n        let _ = std::time::Instant::now();\n    }\n}\n",
        );
        let cx = Context {
            files: vec![export, stats],
            config: config(),
            ..Context::default()
        };
        assert!(DeterminismTaint.run(&cx).is_empty());
    }

    #[test]
    fn wall_clock_is_flagged_even_inside_export_files() {
        let export = SourceFile::new(
            "crates/campaign/src/export.rs",
            "pub fn write_csv() {\n    let _t = std::time::Instant::now();\n}\n",
        );
        let cx = Context {
            files: vec![export],
            config: config(),
            ..Context::default()
        };
        let diags = DeterminismTaint.run(&cx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("Instant"), "{diags:?}");
    }

    #[test]
    fn declared_source_fns_taint_their_callers() {
        let export = SourceFile::new(
            "crates/campaign/src/export.rs",
            "pub fn write_csv() {\n    crate::stats::unordered_sum();\n}\n",
        );
        let stats = SourceFile::new(
            "crates/campaign/src/stats.rs",
            "pub fn unordered_sum() {}\n",
        );
        let cx = Context {
            files: vec![export, stats],
            config: config(),
            ..Context::default()
        };
        let diags = DeterminismTaint.run(&cx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("declared nondeterminism source"));
    }
}
