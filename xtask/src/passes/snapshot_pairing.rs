//! `snapshot-pairing` — every snapshot bound in a configured function
//! must be consumed on every control-flow path.
//!
//! The fork-at-warmup pattern (DESIGN.md §6) snapshots the board once
//! after warmup and restores it before each sweep leg; a path that
//! exits the function with a live, never-used snapshot silently drops
//! the restore and the legs stop being independent. The `state-coverage`
//! lint checks that `snapshot`/`restore` move every field, but nothing
//! checked that the *call sites* stay paired — that is a path property,
//! so it needs the CFG.
//!
//! The analysis is a forward may-analysis over each configured
//! function's [`crate::cfg`] graph. Its state is the set of locals
//! bound from an open call (`let s = board.snapshot();`) that no later
//! statement on the current path has mentioned. Any mention — a
//! `restore(&s)` call, passing it to a helper, returning it — clears
//! the local: the lint is deliberately about snapshots that are bound
//! and then *dead* on some path, which is always a bug, and never
//! about how a live snapshot is consumed. Joins are unions (a snapshot
//! pending on *any* incoming path is pending), and a local still
//! pending at the synthetic exit block — which `return` and `?` edges
//! feed — is reported at its binding line.
//!
//! Config (`xtask.toml`):
//!
//! ```toml
//! [snapshot-pairing]
//! open = "snapshot"     # optional, the default
//! close = "restore"     # optional, named in the message
//! fns = ["campaign::runner::Runner::sweep_frequencies_with"]
//! ```
//!
//! With no `fns` the pass is inert. Intentional leaks carry a
//! `// snapshot: <reason>` justification at the binding line.

use crate::cfg::{Cfg, Stmt, StmtKind};
use crate::dataflow::{self, Analysis};
use crate::diag::{Diagnostic, Span};
use crate::justify::justified;
use crate::lex::{LineIndex, TokenKind};
use crate::source::SourceFile;
use crate::{Config, Context};
use std::collections::BTreeSet;

/// The pass. See the module docs.
pub struct SnapshotPairing;

/// Marker for inline justifications.
const MARKER: &str = "snapshot:";

/// Default open/close method names when the config leaves them empty.
const DEFAULT_OPEN: &str = "snapshot";
const DEFAULT_CLOSE: &str = "restore";

/// Whether the statement is a simple `let name = … .open(…)` binding,
/// returning the bound name.
fn open_binding(file: &SourceFile, cfg: &Cfg, stmt: &Stmt, open: &str) -> Option<String> {
    let toks = cfg.stmt_tokens(stmt);
    if file.tokens[*toks.first()?].text(&file.text) != "let" {
        return None;
    }
    let name = dataflow::assigned_local(&file.text, &file.tokens, cfg, stmt)?;
    // Look for `. open (` anywhere in the statement.
    for w in toks.windows(3) {
        let [a, b, c] = [w[0], w[1], w[2]];
        if file.tokens[a].text(&file.text) == "."
            && file.tokens[b].kind == TokenKind::Ident
            && file.tokens[b].text(&file.text) == open
            && file.tokens[c].text(&file.text) == "("
        {
            return Some(name);
        }
    }
    None
}

/// Identifiers mentioned by a statement (pattern, condition, or body —
/// any mention of a pending snapshot counts as consuming it).
fn mentions(file: &SourceFile, cfg: &Cfg, stmt: &Stmt, pending: &BTreeSet<String>) -> Vec<String> {
    cfg.stmt_tokens(stmt)
        .iter()
        .filter(|&&t| file.tokens[t].kind == TokenKind::Ident)
        .map(|&t| file.tokens[t].text(&file.text))
        .filter(|w| pending.contains(*w))
        .map(str::to_string)
        .collect()
}

struct PairAnalysis<'a> {
    file: &'a SourceFile,
    open: &'a str,
}

impl Analysis for PairAnalysis<'_> {
    /// Locals bound from an open call and not yet mentioned again.
    type State = BTreeSet<String>;

    fn boundary(&self) -> Self::State {
        BTreeSet::new()
    }

    fn transfer(
        &self,
        state: &mut Self::State,
        cfg: &Cfg,
        _block: usize,
        _idx: usize,
        stmt: &Stmt,
    ) {
        if stmt.kind == StmtKind::Struct {
            return;
        }
        for name in mentions(self.file, cfg, stmt, state) {
            state.remove(&name);
        }
        if stmt.kind == StmtKind::Simple {
            if let Some(name) = open_binding(self.file, cfg, stmt, self.open) {
                state.insert(name);
            }
        }
    }

    fn join(&self, into: &mut Self::State, other: &Self::State) -> bool {
        let before = into.len();
        into.extend(other.iter().cloned());
        into.len() != before
    }
}

/// Byte offset of the binding statement for `name`, for anchoring the
/// diagnostic (first matching open binding in the body).
fn binding_lo(file: &SourceFile, cfg: &Cfg, open: &str, name: &str) -> Option<usize> {
    for block in &cfg.blocks {
        for stmt in &block.stmts {
            if open_binding(file, cfg, stmt, open).as_deref() == Some(name) {
                return cfg.stmt_lo(&file.tokens, stmt);
            }
        }
    }
    None
}

/// Runs the analysis over one file, returning finished diagnostics.
pub fn file_findings(file: &SourceFile, config: &Config) -> Vec<Diagnostic> {
    if config.snapshot_fns.is_empty() {
        return Vec::new();
    }
    let open = if config.snapshot_open.is_empty() {
        DEFAULT_OPEN
    } else {
        &config.snapshot_open
    };
    let close = if config.snapshot_close.is_empty() {
        DEFAULT_CLOSE
    } else {
        &config.snapshot_close
    };
    let mut out = Vec::new();
    let index = LineIndex::new(&file.text);
    for (fi, f) in file.items.fns.iter().enumerate() {
        if f.in_test || !config.snapshot_fns.iter().any(|q| q == &f.qual) {
            continue;
        }
        let Some(cfg) = file.cfgs().get(fi).and_then(|c| c.as_ref()) else {
            continue;
        };
        let analysis = PairAnalysis { file, open };
        let states = dataflow::forward(cfg, &analysis);
        let Some(leaked) = states.entry[cfg.exit].as_ref() else {
            continue;
        };
        for name in leaked {
            let lo = binding_lo(file, cfg, open, name);
            let (line, col) = lo.map_or((f.line, 1), |lo| index.line_col(lo));
            if justified(&file.text, line, MARKER) {
                continue;
            }
            out.push(
                Diagnostic::error(
                    "snapshot-pairing",
                    Span::at(&file.rel, line, col),
                    format!(
                        "`{name}` from `{open}()` reaches the end of `{}` unused on some path",
                        f.qual
                    ),
                )
                .with_help(format!(
                    "every path must consume the snapshot (normally via `{close}()`); \
                     if the leak is intentional, justify with `// {MARKER} <reason>`"
                )),
            );
        }
    }
    out
}

impl super::Pass for SnapshotPairing {
    fn id(&self) -> &'static str {
        "snapshot-pairing"
    }

    fn description(&self) -> &'static str {
        "snapshots bound in configured fns must be consumed on every control-flow path"
    }

    fn explain(&self) -> &'static str {
        "Checks the fork-at-warmup invariant statically: in each configured\n\
         function, every local bound from an open call\n\
         (`let s = board.snapshot();`) must be mentioned again on every\n\
         control-flow path before the function exits. A snapshot that is\n\
         bound and then dead on some path has silently dropped its\n\
         `restore()` — the sweep legs stop being independent.\n\
         \n\
         The analysis is a forward may-analysis over the function's CFG;\n\
         `return` and `?` edges flow to the synthetic exit, so early exits\n\
         are real paths. Any later mention of the local (a `restore(&s)`,\n\
         a helper call, returning it) consumes it.\n\
         \n\
         Config (`xtask.toml`):\n\
           [snapshot-pairing]\n\
           open = \"snapshot\"    # method opening a pair (default)\n\
           close = \"restore\"    # named in messages (default)\n\
           fns = [\"campaign::runner::Runner::sweep_frequencies_with\"]\n\
         With no `fns` the pass is inert.\n\
         Justification: `// snapshot: <reason>` at the binding line or in\n\
         the comment block directly above it."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        cx.files
            .iter()
            .flat_map(|f| file_findings(f, &cx.config))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(fns: &str) -> Config {
        Config::from_toml(&format!("[snapshot-pairing]\nfns = [{fns}]\n")).expect("config parses")
    }

    fn findings(body: &str) -> Vec<Diagnostic> {
        let src = format!("pub fn sweep(board: &mut Board) {{\n{body}\n}}\n");
        let file = SourceFile::new("crates/campaign/src/runner.rs", src);
        file_findings(&file, &config("\"campaign::runner::sweep\""))
    }

    #[test]
    fn inert_without_configured_fns() {
        let file = SourceFile::new(
            "crates/campaign/src/runner.rs",
            "pub fn sweep(b: &mut Board) { let s = b.snapshot(); }\n",
        );
        assert!(file_findings(&file, &Config::default()).is_empty());
    }

    #[test]
    fn paired_snapshot_is_clean() {
        let d = findings("let snap = board.snapshot();\nboard.restore(&snap);");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn never_restored_snapshot_is_flagged() {
        let d = findings("let snap = board.snapshot();\nboard.step();");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`snap`"), "{}", d[0].message);
        assert_eq!(d[0].span.line, 2);
    }

    #[test]
    fn restore_on_one_branch_only_is_flagged() {
        let d = findings(
            "let snap = board.snapshot();\n\
             if hot {\n    board.restore(&snap);\n}\n\
             board.step();",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("on some path"), "{}", d[0].message);
    }

    #[test]
    fn restore_on_every_branch_is_clean() {
        let d = findings(
            "let snap = board.snapshot();\n\
             if hot {\n    board.restore(&snap);\n} else {\n    consume(snap);\n}\n\
             board.step();",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn early_return_before_restore_is_flagged() {
        let d = findings(
            "let snap = board.snapshot();\n\
             if bad {\n    return;\n}\n\
             board.restore(&snap);",
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn restore_inside_loop_body_counts() {
        let d = findings(
            "let snap = board.snapshot();\n\
             for f in freqs {\n    board.restore(&snap);\n    board.run(f);\n}\n\
             finish(snap);",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn justified_leak_is_dropped() {
        let d = findings(
            "// snapshot: kept live for the debugger to inspect\n\
             let snap = board.snapshot();\nboard.step();",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_fns_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    pub fn sweep(b: &mut Board) { let s = b.snapshot(); }\n}\n";
        let file = SourceFile::new("crates/campaign/src/runner.rs", src);
        assert!(file_findings(&file, &config("\"campaign::runner::tests::sweep\"")).is_empty());
    }
}
