//! `paper-constants` — hard-coded physical/model constants carry
//! provenance.
//!
//! Two complementary rules keep the paper's numbers auditable:
//!
//! 1. **Designated constants modules** (`[constants] modules` in
//!    `xtask.toml` — the DVFS table, the power model, the overhead
//!    budget) may hold numeric `const`/`static` items, but each must cite
//!    its source with a `paper:` comment (doc comment or trailing `//`).
//! 2. **Everywhere else**, a float-literal audit flags non-trivial float
//!    values in `const`/`static` initializers: a magic `0.22` belongs in
//!    a constants module with a citation, not inline. Structural values
//!    (`0.0`, `1.0`, `1024.0`, …) are exempted via `[constants] trivial`.
//!
//! The audit walks the [`crate::items`] const items and their
//! initializer token ranges, so only the initializer (never array
//! lengths in the type annotation, never comments or strings) is
//! scanned.

use crate::diag::{Diagnostic, Span};
use crate::lex::{literal_value, LineIndex, TokenKind};
use crate::source::SourceFile;
use crate::Context;

/// The pass. See the module docs.
pub struct PaperConstants;

/// Whether the raw source cites a paper reference for the item spanning
/// `line..=end_line` (1-based): a `paper:` marker in the contiguous
/// comment / attribute block above, or trailing on one of the item's own
/// lines.
pub fn has_citation(raw: &SourceFile, line: usize, end_line: usize) -> bool {
    let lines: Vec<&str> = raw.text.lines().collect();
    // Walk up through the doc/comment/attribute block.
    let mut i = line.saturating_sub(1);
    while i > 0 {
        let above = lines.get(i - 1).map_or("", |l| l.trim_start());
        if above.starts_with("//") || above.starts_with("#[") || above.starts_with("#!") {
            if above.contains("paper:") {
                return true;
            }
            i -= 1;
        } else {
            break;
        }
    }
    // Trailing comments on the item's own lines.
    for l in lines
        .iter()
        .skip(line.saturating_sub(1))
        .take(end_line.saturating_sub(line) + 1)
    {
        if let Some(idx) = l.find("//") {
            if l[idx..].contains("paper:") {
                return true;
            }
        }
    }
    false
}

impl super::Pass for PaperConstants {
    fn id(&self) -> &'static str {
        "paper-constants"
    }

    fn description(&self) -> &'static str {
        "model constants live in designated modules and cite the paper"
    }

    fn explain(&self) -> &'static str {
        "Keeps the paper's model constants auditable: non-trivial float\n\
         literals may appear only in the designated constants modules,\n\
         and every constant there must cite its source with a\n\
         `// paper: <section/table/equation>` comment. A magic float\n\
         elsewhere either moves into a constants module or joins the\n\
         trivial list.\n\
         \n\
         Config (`xtask.toml`):\n\
           [constants]\n\
           modules = [\"crates/soc/src/dvfs.rs\"]   # designated modules\n\
           trivial = [0.0, 1.0, 1024.0]           # structural values\n\
         Justification: the `// paper:` citation itself."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in &cx.files {
            let designated = cx.config.constants_modules.contains(&file.rel);
            if file.items.consts.is_empty() {
                continue;
            }
            let index = LineIndex::new(&file.text);
            for item in file.items.consts.iter().filter(|c| !c.in_test) {
                // Numeric literals in the initializer token range. A
                // tuple-index `x.0` lexes as an Int after a `.` and is a
                // projection, not a value.
                let mut floats: Vec<(usize, usize, String, f64)> = Vec::new();
                let mut has_numeric = false;
                for i in item.init.0..item.init.1.min(file.tokens.len()) {
                    let tok = &file.tokens[i];
                    let after_dot = file.tokens[..i]
                        .iter()
                        .rev()
                        .find(|t| !t.kind.is_trivia())
                        .is_some_and(|t| t.kind == TokenKind::Punct && t.text(&file.text) == ".");
                    match tok.kind {
                        TokenKind::Int if !after_dot => has_numeric = true,
                        TokenKind::Float if !after_dot => {
                            has_numeric = true;
                            let text = tok.text(&file.text);
                            if let Some(value) = literal_value(text) {
                                let (line, col) = index.line_col(tok.lo);
                                floats.push((line, col, text.to_string(), value));
                            }
                        }
                        _ => {}
                    }
                }
                if designated {
                    if has_numeric && !has_citation(file, item.line, item.end_line) {
                        out.push(
                            Diagnostic::error(
                                self.id(),
                                Span::line(&file.rel, item.line),
                                format!(
                                    "constant `{}` in a designated constants module lacks \
                                     a `paper:` citation",
                                    item.name
                                ),
                            )
                            .with_help(
                                "add a `// paper: <section/table/equation>` comment \
                                 documenting where the value comes from",
                            ),
                        );
                    }
                } else {
                    for &(line, column, ref text, value) in &floats {
                        if cx.config.is_trivial_float(value) {
                            continue;
                        }
                        out.push(
                            Diagnostic::error(
                                self.id(),
                                Span::at(&file.rel, line, column),
                                format!(
                                    "hard-coded model constant `{text}` in `{}` outside a \
                                     designated constants module",
                                    item.name
                                ),
                            )
                            .with_help(
                                "move it to a module listed under [constants] modules in \
                                 xtask/xtask.toml with a `// paper:` citation, or add the \
                                 value to [constants] trivial if it is structural",
                            ),
                        );
                    }
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
    use crate::Config;

    const DESIGNATED: &str = r#"
/// The table. paper: Table II (MSM8974 OPPs).
pub const TABLE: [(u64, u32); 2] = [
    (300_000, 800),
    (422_400, 810),
];

/// Uncited numeric constant.
pub const K1: f64 = 0.22;

/// No numerics, no citation needed.
pub const NAME: &str = "msm8974";
"#;

    fn config() -> Config {
        Config::from_toml(
            "[constants]\nmodules = [\"crates/soc/src/power.rs\"]\ntrivial = [0.0, 1.0]\n",
        )
        .expect("config")
    }

    #[test]
    fn uncited_constant_in_designated_module_is_flagged() {
        let cx = Context {
            files: vec![SourceFile::new("crates/soc/src/power.rs", DESIGNATED)],
            config: config(),
            ..Context::default()
        };
        let diags = PaperConstants.run(&cx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`K1`"));
        assert_eq!(diags[0].span.line, 9);
    }

    #[test]
    fn const_fn_is_not_an_item() {
        let cx = Context {
            files: vec![SourceFile::new(
                "crates/soc/src/dvfs.rs",
                "pub const fn from_khz(khz: u64) -> u64 {\n    khz * 3\n}\n",
            )],
            config: config(),
            ..Context::default()
        };
        assert!(PaperConstants.run(&cx).is_empty());
    }

    #[test]
    fn magic_float_const_outside_designated_module_is_flagged() {
        let cx = Context {
            files: vec![SourceFile::new(
                "crates/governors/src/lib.rs",
                "const UP_THRESHOLD: f64 = 0.85;\nconst UNITY: f64 = 1.0;\n",
            )],
            config: config(),
            ..Context::default()
        };
        let diags = PaperConstants.run(&cx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("0.85"));
        assert!(diags[0].span.column > 0);
    }

    #[test]
    fn trailing_citation_counts() {
        let cx = Context {
            files: vec![SourceFile::new(
                "crates/soc/src/power.rs",
                "pub const K1: f64 = 0.22; // paper: Eq. 5\n",
            )],
            config: config(),
            ..Context::default()
        };
        assert!(PaperConstants.run(&cx).is_empty());
    }

    #[test]
    fn array_lengths_in_types_are_structure_not_physics() {
        // The `2` in `[(u64, u32); 2]` is in the type annotation, not
        // the initializer: a designated module still needs the citation
        // because of the element values, but an empty-init const with
        // only a typed length is not numeric.
        let cx = Context {
            files: vec![SourceFile::new(
                "crates/governors/src/lib.rs",
                "pub const EMPTY: [f64; 4] = [0.0, 0.0, 0.0, 0.0];\n",
            )],
            config: config(),
            ..Context::default()
        };
        assert!(PaperConstants.run(&cx).is_empty());
    }

    #[test]
    fn floats_in_strings_and_comments_are_invisible() {
        let cx = Context {
            files: vec![SourceFile::new(
                "crates/governors/src/lib.rs",
                "const LABEL: &str = \"k = 0.85\"; // tune 0.9 later\n",
            )],
            config: config(),
            ..Context::default()
        };
        assert!(PaperConstants.run(&cx).is_empty());
    }

    #[test]
    fn inline_floats_in_functions_are_not_audited() {
        let cx = Context {
            files: vec![SourceFile::new(
                "crates/modeling/src/leakage.rs",
                "fn f(x: f64) -> f64 {\n    x.max(1e-12) * 0.3\n}\n",
            )],
            config: config(),
            ..Context::default()
        };
        assert!(PaperConstants.run(&cx).is_empty());
    }
}
