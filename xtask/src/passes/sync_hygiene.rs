//! `sync-hygiene` — synchronization stays behind the model-checked
//! facade, and memory-ordering choices carry their proof obligation.
//!
//! Three rules, all on the lexer-derived stripped + string-blanked views
//! (comments, `#[cfg(test)]` items, and every textual literal — raw
//! strings and char literals included — blanked exactly):
//!
//! 1. **No direct `std::sync` / `std::thread::spawn` / `std::thread::scope`
//!    in library crates.** The campaign executor's concurrency guarantees
//!    are proved by the `interleave` model checker, which can only see
//!    synchronization routed through a facade (`crates/campaign/src/sync.rs`).
//!    A direct `std` import silently opts out of model checking. Facade
//!    implementations themselves are exempted via `[sync-hygiene]
//!    facade_paths` in `xtask.toml`; `xtask/` is tooling and out of scope.
//! 2. **Every non-`SeqCst` atomic ordering needs an `// ordering:`
//!    justification** on the same line or in the comment block directly
//!    above. Relaxed/Acquire/Release orderings are correctness claims
//!    about what the atomic does *not* protect; the comment records the
//!    argument reviewers and the model checker's docs can hold it to.
//! 3. **No `static mut`, anywhere.** Mutable statics are unsynchronized
//!    shared state by construction and deprecated territory in modern
//!    Rust; use interior mutability behind the facade instead.

use crate::diag::{Diagnostic, Span};
use crate::source::{blank_strings, SourceFile};
use crate::Context;

/// The pass. See the module docs.
pub struct SyncHygiene;

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
            !b.is_ascii_alphanumeric() && b != b'_'
        };
        if before_ok && after_ok {
            out.push(at);
        }
        from = end;
    }
    out
}

/// The non-`SeqCst` orderings that require a written justification.
const JUSTIFIED_ORDERINGS: [&str; 4] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
];

/// Whether raw line `line_idx` (0-based) carries an `// ordering:`
/// justification: on the line itself, or in the contiguous run of
/// comment-only lines directly above it.
fn has_ordering_justification(raw_lines: &[&str], line_idx: usize) -> bool {
    let marker = "// ordering:";
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
        if raw_lines[i].contains(marker) || trimmed.starts_with("// ordering:") {
            return true;
        }
    }
    false
}

/// Whether rule 1 (the facade ban) applies to this file at all:
/// library crates and the root crate, minus the configured facades.
fn facade_ban_applies(file: &SourceFile, facade_paths: &[String]) -> bool {
    let in_scope = file.rel.starts_with("crates/") || file.rel.starts_with("src/");
    in_scope
        && !facade_paths
            .iter()
            .any(|p| file.rel.starts_with(p.as_str()))
}

impl super::Pass for SyncHygiene {
    fn id(&self) -> &'static str {
        "sync-hygiene"
    }

    fn description(&self) -> &'static str {
        "synchronization goes through the model-checked facade; non-SeqCst orderings are justified"
    }

    fn explain(&self) -> &'static str {
        "Two rules for concurrent code: (1) synchronization primitives\n\
         are used only through the model-checked facade — direct\n\
         `std::sync` use outside the facade paths is an error; (2) every\n\
         non-`SeqCst` atomic memory ordering must say why it suffices.\n\
         \n\
         Config (`xtask.toml`):\n\
           [sync-hygiene]\n\
           facade_paths = [\"crates/sim-core/src/sync/\"]  # the facade impl\n\
         Justification: `// ordering: <reason>` on the flagged line or in\n\
         the comment block directly above it (for rule 2; rule 1 has no\n\
         inline escape — go through the facade)."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        let banned_sync = ["std::sync", "std::thread::spawn", "std::thread::scope"];
        let mut out = Vec::new();
        for file in &cx.files {
            let blanked = blank_strings(&file.stripped);
            let raw_lines: Vec<&str> = file.text.lines().collect();
            let ban_here = facade_ban_applies(file, &cx.config.sync_facade_paths);
            for (i, line) in blanked.lines().enumerate() {
                if ban_here {
                    for needle in banned_sync {
                        for col in token_columns(line, needle) {
                            out.push(
                                Diagnostic::error(
                                    self.id(),
                                    Span::at(&file.rel, i + 1, col + 1),
                                    format!(
                                        "direct `{needle}` in library code bypasses the \
                                         model-checked sync facade"
                                    ),
                                )
                                .with_help(
                                    "route synchronization through the crate's sync facade \
                                     (see crates/campaign/src/sync.rs), or list a new facade \
                                     under [sync-hygiene] facade_paths in xtask.toml",
                                ),
                            );
                        }
                    }
                }
                for needle in JUSTIFIED_ORDERINGS {
                    for col in token_columns(line, needle) {
                        if !has_ordering_justification(&raw_lines, i) {
                            out.push(
                                Diagnostic::error(
                                    self.id(),
                                    Span::at(&file.rel, i + 1, col + 1),
                                    format!("`{needle}` without an `// ordering:` justification"),
                                )
                                .with_help(
                                    "state why this ordering suffices in an `// ordering:` \
                                     comment on the same line or directly above, or use SeqCst",
                                ),
                            );
                        }
                    }
                }
                for col in token_columns(line, "static mut") {
                    out.push(
                        Diagnostic::error(
                            self.id(),
                            Span::at(&file.rel, i + 1, col + 1),
                            "`static mut` is unsynchronized shared mutable state".to_string(),
                        )
                        .with_help("use an atomic, a Mutex behind the sync facade, or OnceLock"),
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
    use crate::Config;

    fn context(rel: &str, text: &str) -> Context {
        Context {
            files: vec![SourceFile::new(rel, text)],
            config: Config::from_toml(
                "[sync-hygiene]\nfacade_paths = [\"crates/campaign/src/sync.rs\", \"crates/interleave/\"]\n",
            )
            .expect("config"),
            ..Context::default()
        }
    }

    #[test]
    fn direct_std_sync_is_flagged_outside_the_facade() {
        let cx = context(
            "crates/soc/src/board.rs",
            "use std::sync::Mutex;\nfn go() { std::thread::spawn(|| {}); }\n",
        );
        let diags = SyncHygiene.run(&cx);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].span, Span::at("crates/soc/src/board.rs", 1, 5));
        assert!(diags[0].message.contains("std::sync"));
        assert!(diags[1].message.contains("std::thread::spawn"));
    }

    #[test]
    fn facade_files_and_tooling_are_exempt_from_the_ban() {
        for rel in [
            "crates/campaign/src/sync.rs",
            "crates/interleave/src/sync.rs",
            "xtask/src/lib.rs",
        ] {
            let cx = context(rel, "use std::sync::Mutex;\n");
            assert!(SyncHygiene.run(&cx).is_empty(), "{rel} must be exempt");
        }
    }

    #[test]
    fn tests_comments_and_strings_do_not_trip_the_ban() {
        let cx = context(
            "crates/soc/src/board.rs",
            "// std::sync is banned here\nconst X: &str = \"std::sync\";\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n",
        );
        assert!(SyncHygiene.run(&cx).is_empty());
    }

    #[test]
    fn relaxed_ordering_requires_a_justification() {
        let unjustified = context(
            "crates/campaign/src/executor.rs",
            "fn f(c: &AtomicUsize) -> usize {\n    c.fetch_add(1, Ordering::Relaxed)\n}\n",
        );
        let diags = SyncHygiene.run(&unjustified);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("Ordering::Relaxed"));
        assert_eq!(diags[0].span.line, 2);

        let same_line = context(
            "crates/campaign/src/executor.rs",
            "fn f(c: &AtomicUsize) -> usize {\n    c.fetch_add(1, Ordering::Relaxed) // ordering: pure ticket\n}\n",
        );
        assert!(SyncHygiene.run(&same_line).is_empty());

        let block_above = context(
            "crates/campaign/src/executor.rs",
            "fn f(c: &AtomicUsize) -> usize {\n    // ordering: the counter is a pure claim ticket;\n    // no other memory is published through it.\n    c.fetch_add(1, Ordering::Relaxed)\n}\n",
        );
        assert!(SyncHygiene.run(&block_above).is_empty());
    }

    #[test]
    fn unrelated_comment_above_does_not_justify() {
        let cx = context(
            "crates/campaign/src/executor.rs",
            "fn f(c: &AtomicUsize) -> usize {\n    // claims the next item\n    c.fetch_add(1, Ordering::Acquire)\n}\n",
        );
        let diags = SyncHygiene.run(&cx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("Ordering::Acquire"));
    }

    #[test]
    fn seqcst_needs_no_justification() {
        let cx = context(
            "crates/campaign/src/executor.rs",
            "fn f(c: &AtomicUsize) -> usize {\n    c.fetch_add(1, Ordering::SeqCst)\n}\n",
        );
        assert!(SyncHygiene.run(&cx).is_empty());
    }

    #[test]
    fn static_mut_is_flagged_everywhere() {
        let cx = context("xtask/src/lib.rs", "static mut COUNTER: usize = 0;\n");
        let diags = SyncHygiene.run(&cx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("static mut"));
    }

    #[test]
    fn token_boundaries_are_respected() {
        assert!(token_columns("my_std::sync::x", "std::sync").is_empty());
        assert!(token_columns("xstatic muty", "static mut").is_empty());
        assert_eq!(token_columns("use std::sync::Mutex;", "std::sync"), vec![4]);
    }
}
