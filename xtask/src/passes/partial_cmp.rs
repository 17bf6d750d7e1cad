//! `partial-cmp` — float ordering goes through `f64::total_cmp`, which
//! cannot panic on NaN. The ban is workspace-wide. (Clippy's
//! `disallowed-methods` is no substitute: the path `f64::partial_cmp`
//! matches nothing, and `core::cmp::PartialOrd::partial_cmp` also fires
//! on every `#[derive(PartialOrd)]`.)
//!
//! Token-level: only a real `.partial_cmp(` method call counts — the
//! name in a comment, doc example, or string literal never trips it.

use crate::diag::{Diagnostic, Span};
use crate::lex::{LineIndex, TokenKind};
use crate::source::SourceFile;
use crate::Context;

/// The pass. See the module docs.
pub struct PartialCmp;

/// `(1-based line, 1-based column)` of `.partial_cmp(` call sites.
pub fn partial_cmp_sites(file: &SourceFile) -> Vec<(usize, usize)> {
    let src = file.text.as_str();
    let index = LineIndex::new(src);
    let code: Vec<usize> = (0..file.tokens.len())
        .filter(|&i| !file.tokens[i].kind.is_trivia())
        .collect();
    let mut out = Vec::new();
    let in_cfg_test = |lo: usize| {
        file.items
            .cfg_test_spans
            .iter()
            .any(|&(a, b)| a <= lo && lo < b)
    };
    for (pos, &i) in code.iter().enumerate() {
        let tok = &file.tokens[i];
        if tok.kind != TokenKind::Ident || tok.text(src) != "partial_cmp" || in_cfg_test(tok.lo) {
            continue;
        }
        let punct = |p: usize, s: &str| {
            code.get(p).is_some_and(|&j| {
                file.tokens[j].kind == TokenKind::Punct && file.tokens[j].text(src) == s
            })
        };
        if pos > 0 && punct(pos - 1, ".") && punct(pos + 1, "(") {
            out.push(index.line_col(tok.lo));
        }
    }
    out
}

impl super::Pass for PartialCmp {
    fn id(&self) -> &'static str {
        "partial-cmp"
    }

    fn description(&self) -> &'static str {
        "float ordering must use f64::total_cmp, not partial_cmp"
    }

    fn explain(&self) -> &'static str {
        "Flags `partial_cmp` on floats in library code: a NaN anywhere in\n\
         the data turns `partial_cmp(..).unwrap()` into a panic and\n\
         sort-by-partial_cmp into an inconsistent order. Use\n\
         `f64::total_cmp`, which is a total order over every bit pattern\n\
         and keeps campaign reductions deterministic.\n\
         \n\
         Config: none of its own; the generic `[levels]` / `[allow]`\n\
         policy applies."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in &cx.files {
            for (line, column) in partial_cmp_sites(file) {
                out.push(
                    Diagnostic::error(
                        self.id(),
                        Span::at(&file.rel, line, column),
                        "partial_cmp on floats can surface NaN panics",
                    )
                    .with_help("use f64::total_cmp"),
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

    #[test]
    fn partial_cmp_is_flagged_with_column() {
        let file = SourceFile::new(
            "crates/x/src/lib.rs",
            "fn f(v: &mut [f64]) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
        );
        assert_eq!(partial_cmp_sites(&file), vec![(2, 24)]);
    }

    #[test]
    fn comments_strings_and_tests_do_not_count() {
        let file = SourceFile::new(
            "crates/x/src/lib.rs",
            "/// Avoid `.partial_cmp(x)` here.\nfn f() {\n    let s = \"a.partial_cmp(b)\";\n    let _ = s;\n}\n\n#[cfg(test)]\nmod tests {\n    fn t(a: f64, b: f64) {\n        let _ = a.partial_cmp(&b);\n    }\n}\n",
        );
        assert!(partial_cmp_sites(&file).is_empty());
    }

    #[test]
    fn pass_reports_span() {
        let cx = Context {
            files: vec![SourceFile::new(
                "crates/x/src/lib.rs",
                "fn f(a: f64, b: f64) -> bool {\n    a.partial_cmp(&b).is_some()\n}\n",
            )],
            ..Context::default()
        };
        let diags = PartialCmp.run(&cx);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].span, Span::at("crates/x/src/lib.rs", 2, 7));
    }
}
