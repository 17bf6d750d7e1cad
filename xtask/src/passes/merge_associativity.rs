//! `merge-associativity` — raw `f64` accumulation in shard-merge code.
//!
//! Fleet aggregation folds shard results in a fixed order so reports
//! are byte-identical across `--jobs 1/N/auto`; the O(shards) streaming
//! story additionally wants each fold step to be associative enough to
//! re-shard. The mergeable sketch types (`FixedHistogram`, `Running`,
//! …) own that property and carry property tests; a raw `f64 +=` or
//! `.sum()` sneaking into merge-reachable code bypasses them and is
//! exactly where a future refactor reintroduces order sensitivity.
//!
//! The pass walks the call graph forward from the configured
//! `[merge-associativity] sink_fns` and inside every reached non-test
//! function flags (a) `recv.field += …` where `field` is declared `f64`
//! on the enclosing impl's struct, and (b) `.sum(` / `.sum::<` iterator
//! folds. Methods of the configured `mergeable_types` are exempt (they
//! *implement* the blessed accumulators), as is accumulation into typed
//! unit fields (`Joules`, …) whose `+` is the newtype's. Deliberate raw
//! accumulation is justified in place with `// merge: <reason>` (same
//! line or the comment/attribute block directly above).

use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, Span};
use crate::justify::justified;
use crate::lex::{LineIndex, TokenKind};
use crate::Context;
use std::collections::BTreeMap;

/// The pass. See the module docs.
pub struct MergeAssociativity;

const MARKER: &str = "// merge:";

impl super::Pass for MergeAssociativity {
    fn id(&self) -> &'static str {
        "merge-associativity"
    }

    fn description(&self) -> &'static str {
        "no raw f64 accumulation in code reachable from shard-merge sinks"
    }

    fn explain(&self) -> &'static str {
        "Walks the call graph from the configured shard-merge sinks and\n\
         flags raw `f64` accumulation (`+=`, `sum()`, fold-style updates)\n\
         reachable from them: float addition is not associative, so\n\
         accumulating in shard-arrival order makes fleet reports depend\n\
         on scheduling. Accumulation through a declared mergeable sketch\n\
         type is trusted.\n\
         \n\
         Config (`xtask.toml`):\n\
           [merge-associativity]\n\
           sink_fns = [\"campaign::fleet::report::FleetReport::merge\"]\n\
           mergeable_types = [\"FixedHistogram\", \"Running\"]\n\
         Justification: `// merge: <reason>` on the flagged line or in\n\
         the comment block directly above it (say why the fold order is\n\
         stable)."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        if cx.config.merge_sink_fns.is_empty() {
            return Vec::new();
        }
        let graph = CallGraph::build(cx);
        let sinks: Vec<usize> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| cx.config.merge_sink_fns.iter().any(|s| s == &n.item.qual))
            .map(|(i, _)| i)
            .collect();
        if sinks.is_empty() {
            // Unresolvable sink quals are stale-config findings.
            return Vec::new();
        }
        let reach = graph.forward(&sinks);
        // (struct name, field name) → declared type, for typing `+=`
        // left-hand sides.
        let mut field_ty: BTreeMap<(String, String), String> = BTreeMap::new();
        for file in &cx.files {
            for s in file.items.structs.iter().filter(|s| !s.in_test) {
                for f in &s.fields {
                    field_ty.insert((s.name.clone(), f.name.clone()), f.ty.clone());
                }
            }
        }
        let mut out = Vec::new();
        for (idx, node) in graph.nodes.iter().enumerate() {
            if !reach.contains(idx) || node.item.in_test {
                continue;
            }
            if node
                .item
                .self_ty
                .as_deref()
                .is_some_and(|ty| cx.config.merge_mergeable_types.iter().any(|m| m == ty))
            {
                continue;
            }
            let file = &cx.files[node.file];
            let src = file.text.as_str();
            let index = LineIndex::new(&file.text);
            let Some((body_lo, body_hi)) = node.item.body else {
                continue;
            };
            let code: Vec<usize> = (body_lo..body_hi.min(file.tokens.len()))
                .filter(|&i| !file.tokens[i].kind.is_trivia())
                .collect();
            let text = |p: usize| -> &str { code.get(p).map_or("", |&i| file.tokens[i].text(src)) };
            let kind = |p: usize| code.get(p).map(|&i| file.tokens[i].kind);
            let is_p = |p: usize, s: &str| kind(p) == Some(TokenKind::Punct) && text(p) == s;
            let path = reach
                .path_to(idx)
                .map(|p| graph.render_path(&p))
                .unwrap_or_else(|| node.item.qual.clone());
            let mut flag = |what: String, byte: usize| {
                let line = index.line(byte);
                if justified(src, line, MARKER) {
                    return;
                }
                out.push(
                    Diagnostic::error(
                        self.id(),
                        Span::line(&file.rel, line),
                        format!(
                            "raw f64 accumulation `{what}` in `{}` (merge-reachable via `{path}`)",
                            node.item.qual
                        ),
                    )
                    .with_help(
                        "accumulate through a mergeable sketch type, or justify the fixed \
                         fold order with `// merge: <reason>`",
                    ),
                );
            };
            for p in 0..code.len() {
                // `recv.field += …` with `field` declared `f64` on the
                // enclosing impl's struct.
                if is_p(p, "+")
                    && is_p(p + 1, "=")
                    && p >= 2
                    && kind(p - 1) == Some(TokenKind::Ident)
                    && is_p(p - 2, ".")
                {
                    let field = text(p - 1);
                    let declared = node
                        .item
                        .self_ty
                        .as_deref()
                        .and_then(|ty| field_ty.get(&(ty.to_string(), field.to_string())));
                    if declared.is_some_and(|ty| ty == "f64") {
                        let byte = code.get(p - 1).map_or(0, |&i| file.tokens[i].lo);
                        flag(format!(".{field} +="), byte);
                    }
                }
                // `.sum(` / `.sum::<…>(` iterator folds.
                if kind(p) == Some(TokenKind::Ident)
                    && text(p) == "sum"
                    && p >= 1
                    && is_p(p - 1, ".")
                    && (is_p(p + 1, "(") || (is_p(p + 1, ":") && is_p(p + 2, ":")))
                {
                    let byte = code.get(p).map_or(0, |&i| file.tokens[i].lo);
                    flag(".sum()".to_string(), byte);
                }
            }
        }
        out.sort_by(|a, b| {
            (&a.span.file, a.span.line)
                .cmp(&(&b.span.file, b.span.line))
                .then_with(|| a.message.cmp(&b.message))
        });
        out.dedup_by(|a, b| {
            a.span.file == b.span.file && a.span.line == b.span.line && a.message == b.message
        });
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

    const CONFIG: &str = "[merge-associativity]\nsink_fns = [\"soc::agg::Report::merge\"]\nmergeable_types = [\"Hist\"]\n";

    fn cx(src: &str) -> Context {
        Context {
            files: vec![SourceFile::new("crates/soc/src/agg.rs", src)],
            config: Config::from_toml(CONFIG).expect("config"),
            ..Context::default()
        }
    }

    #[test]
    fn raw_f64_add_assign_in_sink_is_flagged() {
        let src = "pub struct Report {\n    pub total: f64,\n    pub count: u64,\n}\nimpl Report {\n    pub fn merge(&mut self, other: &Report) {\n        self.total += other.total;\n        self.count += other.count;\n    }\n}\n";
        let diags = MergeAssociativity.run(&cx(src));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].span.line, 7);
        assert!(
            diags[0]
                .message
                .contains("`.total +=` in `soc::agg::Report::merge`"),
            "{diags:?}"
        );
        assert!(
            diags[0]
                .help
                .as_deref()
                .is_some_and(|h| h.contains("// merge: <reason>")),
            "{diags:?}"
        );
    }

    #[test]
    fn reachable_helper_sum_is_flagged_with_path() {
        let src = "pub struct Report {\n    pub total: f64,\n}\nimpl Report {\n    pub fn merge(&mut self, other: &Report) {\n        self.total = combine(self.total, other.total);\n    }\n}\nfn combine(a: f64, b: f64) -> f64 {\n    [a, b].iter().sum()\n}\n";
        let diags = MergeAssociativity.run(&cx(src));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].span.line, 10);
        assert!(
            diags[0]
                .message
                .contains("via `soc::agg::Report::merge -> soc::agg::combine`"),
            "{diags:?}"
        );
    }

    #[test]
    fn mergeable_type_methods_and_unreachable_code_are_exempt() {
        let src = "pub struct Hist {\n    pub sum: f64,\n}\nimpl Hist {\n    pub fn absorb(&mut self, other: &Hist) {\n        self.sum += other.sum;\n    }\n}\npub struct Report {\n    pub hist: Hist,\n}\nimpl Report {\n    pub fn merge(&mut self, other: &Report) {\n        self.hist.absorb(&other.hist);\n    }\n}\npub fn elsewhere(xs: &[f64]) -> f64 {\n    xs.iter().sum()\n}\n";
        assert!(MergeAssociativity.run(&cx(src)).is_empty());
    }

    #[test]
    fn merge_justification_is_honored() {
        let src = "pub struct Report {\n    pub total: f64,\n}\nimpl Report {\n    pub fn merge(&mut self, other: &Report) {\n        // merge: shards fold in fixed index order; addition order is stable\n        self.total += other.total;\n    }\n}\n";
        assert!(MergeAssociativity.run(&cx(src)).is_empty());
    }

    #[test]
    fn typed_unit_fields_are_not_raw_f64() {
        let src = "pub struct Joules(f64);\npub struct Report {\n    pub energy: Joules,\n}\nimpl Report {\n    pub fn merge(&mut self, other: &Report) {\n        self.energy += other.energy;\n    }\n}\n";
        assert!(MergeAssociativity.run(&cx(src)).is_empty());
    }
}
