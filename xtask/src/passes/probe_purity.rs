//! `probe-purity` — the probe-off stepping hot path stays free of
//! allocation and formatting.
//!
//! The probe bus's whole contract is that observation costs nothing when
//! nobody listens: events are built inside closures that
//! `ProbeBus::emit_with` never calls while no probe is attached. That
//! contract dies quietly the moment someone writes `format!(..)` or
//! `.to_string()` *outside* such a closure on the per-quantum path — the
//! old string trace ring allocated on every quantum retire exactly this
//! way, probes or not.
//!
//! This pass scans the files listed under `[probe-purity] hot_paths` in
//! `xtask.toml` (on the lexer-derived views: comments, `#[cfg(test)]`
//! items, and all textual literals blanked exactly) for
//! allocation/formatting constructs. A site that is
//! genuinely lazy (inside an `emit_with` closure) or one-time (a
//! constructor) carries an `// alloc:` justification on the same line or
//! in the comment block directly above, mirroring sync-hygiene's
//! `// ordering:` convention.

use crate::diag::{Diagnostic, Span};
use crate::source::blank_strings;
use crate::Context;

/// The pass. See the module docs.
pub struct ProbePurity;

/// Allocation/formatting constructs banned on the probe-off hot path.
const ALLOC_NEEDLES: [&str; 9] = [
    "format!",
    "to_string",
    "to_owned",
    "String::from",
    "vec!",
    "Vec::new",
    "Vec::with_capacity",
    "Box::new",
    "collect",
];

/// Byte offsets of `needle` in `line` at identifier boundaries.
fn token_columns(line: &str, needle: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(idx) = line[from..].find(needle) {
        let at = from + idx;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !b.is_ascii_alphanumeric() && b != b'_'
        };
        let end = at + needle.len();
        let after_ok = end >= line.len() || {
            let b = bytes[end];
            !b.is_ascii_alphanumeric() && b != b'_' && b != b'!'
        };
        if before_ok && after_ok {
            out.push(at);
        }
        from = end;
    }
    out
}

/// Whether raw line `line_idx` (0-based) carries an `// alloc:`
/// justification: on the line itself, or in the contiguous run of
/// comment-only lines directly above it.
fn has_alloc_justification(raw_lines: &[&str], line_idx: usize) -> bool {
    let marker = "// alloc:";
    if raw_lines.get(line_idx).is_some_and(|l| l.contains(marker)) {
        return true;
    }
    let mut i = line_idx;
    while i > 0 {
        i -= 1;
        let trimmed = raw_lines[i].trim_start();
        if !trimmed.starts_with("//") {
            return false;
        }
        if raw_lines[i].contains(marker) {
            return true;
        }
    }
    false
}

impl super::Pass for ProbePurity {
    fn id(&self) -> &'static str {
        "probe-purity"
    }

    fn description(&self) -> &'static str {
        "probe-off hot-path files allocate/format only at `// alloc:`-justified sites"
    }

    fn explain(&self) -> &'static str {
        "Scans the configured probe-off hot-path files for allocation and\n\
         formatting (`String::new`, `to_string`, `format!`, `Vec::new`,\n\
         collectors, …): the measurement loop must not allocate when\n\
         probes are off, or probe overhead leaks into the measured\n\
         energy. Each intentional site says why it is lazy or one-time.\n\
         \n\
         Config (`xtask.toml`):\n\
           [probe-purity]\n\
           hot_paths = [\"crates/soc/src/probe.rs\"]  # path prefixes\n\
         Justification: `// alloc: <reason>` on the flagged line or in\n\
         the comment block directly above it."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in &cx.files {
            if !cx
                .config
                .probe_hot_paths
                .iter()
                .any(|p| file.rel.starts_with(p.as_str()))
            {
                continue;
            }
            let blanked = blank_strings(&file.stripped);
            let raw_lines: Vec<&str> = file.text.lines().collect();
            for (i, line) in blanked.lines().enumerate() {
                for needle in ALLOC_NEEDLES {
                    for col in token_columns(line, needle) {
                        if !has_alloc_justification(&raw_lines, i) {
                            out.push(
                                Diagnostic::error(
                                    self.id(),
                                    Span::at(&file.rel, i + 1, col + 1),
                                    format!(
                                        "`{needle}` on the probe-off hot path without an \
                                         `// alloc:` justification"
                                    ),
                                )
                                .with_help(
                                    "build the value lazily inside a ProbeBus::emit_with \
                                     closure or a reusable buffer; if the site is genuinely \
                                     lazy or one-time, say why in an `// alloc:` comment on \
                                     the same line or directly above",
                                ),
                            );
                        }
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
    use crate::source::SourceFile;
    use crate::Config;

    fn context(rel: &str, text: &str) -> Context {
        Context {
            files: vec![SourceFile::new(rel, text)],
            config: Config::from_toml(
                "[probe-purity]\nhot_paths = [\"crates/soc/src/board.rs\"]\n",
            )
            .expect("config"),
            ..Context::default()
        }
    }

    #[test]
    fn unjustified_allocation_on_a_hot_path_is_flagged() {
        let cx = context(
            "crates/soc/src/board.rs",
            "fn step(&mut self) {\n    self.record(format!(\"dvfs: -> {}\", f));\n}\n",
        );
        let diags = ProbePurity.run(&cx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("format!"));
        assert_eq!(diags[0].span.line, 2);
    }

    #[test]
    fn justified_sites_pass_same_line_and_block_above() {
        let same_line = context(
            "crates/soc/src/board.rs",
            "fn new() -> Vec<u8> {\n    Vec::new() // alloc: one-time construction\n}\n",
        );
        assert!(ProbePurity.run(&same_line).is_empty());

        let block_above = context(
            "crates/soc/src/board.rs",
            "fn assign(&mut self) {\n    // alloc: lazy — only runs while a probe listens.\n    let name = t.name().to_string();\n}\n",
        );
        assert!(ProbePurity.run(&block_above).is_empty());
    }

    #[test]
    fn unrelated_comment_above_does_not_justify() {
        let cx = context(
            "crates/soc/src/board.rs",
            "fn f() {\n    // copies the name\n    let name = t.name().to_string();\n}\n",
        );
        let diags = ProbePurity.run(&cx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("to_string"));
    }

    #[test]
    fn files_off_the_hot_path_are_out_of_scope() {
        let cx = context(
            "crates/campaign/src/runner.rs",
            "fn f() -> String {\n    format!(\"{}+{}\", a, b)\n}\n",
        );
        assert!(ProbePurity.run(&cx).is_empty());
    }

    #[test]
    fn tests_comments_and_strings_do_not_count() {
        let cx = context(
            "crates/soc/src/board.rs",
            "// format! is banned here\nconst X: &str = \"format!\";\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = format!(\"ok\"); }\n}\n",
        );
        assert!(ProbePurity.run(&cx).is_empty());
    }

    #[test]
    fn token_boundaries_are_respected() {
        assert!(token_columns("reformat!(x)", "format!").is_empty());
        assert!(token_columns("a.to_string_lossy()", "to_string").is_empty());
        assert_eq!(
            token_columns("let s = x.to_string();", "to_string"),
            vec![10]
        );
        // `collect` matches both bare calls and turbofish forms.
        assert_eq!(token_columns(".collect::<Vec<_>>()", "collect"), vec![1]);
    }
}
