//! `probe-balance` — paired probe events must balance on every
//! control-flow path through a configured function.
//!
//! The measurement protocol (DESIGN.md §7) brackets the measured
//! window with an attach/detach pair: a path that exits with the probe
//! still attached measures navigation noise as page energy, and a path
//! that detaches twice underflows the probe stack. Both are path
//! properties, invisible to per-file token counting — a function with
//! one `attach_probe` and one `detach_probe` call can still leak the
//! probe on its early-return path.
//!
//! The analysis runs forward over the function's [`crate::cfg`] graph
//! with the set of *possible* open−close imbalances as its state
//! (`{0}` on entry; a branch that attaches on one arm only yields
//! `{0, 1}` at the join). Each statement shifts every member by its
//! own attach/detach count; magnitudes cap at ±9 — a sentinel for
//! "many", which keeps loop joins finite. Any nonzero member reaching
//! the synthetic exit (fed by `return` and `?` edges) is an error at
//! the function's declaration line.
//!
//! Config (`xtask.toml`): qualified function → `[open, close]` pair:
//!
//! ```toml
//! [probe-balance]
//! "campaign::runner::Runner::run_page_observed" = ["attach_probe", "detach_probe"]
//! ```
//!
//! With no entries the pass is inert. Intentional imbalance carries a
//! `// probe: <reason>` justification at the function's declaration.

use crate::cfg::{Cfg, Stmt};
use crate::dataflow::{self, Analysis};
use crate::diag::{Diagnostic, Span};
use crate::justify::justified;
use crate::lex::TokenKind;
use crate::source::SourceFile;
use crate::{Config, Context};
use std::collections::BTreeSet;

/// The pass. See the module docs.
pub struct ProbeBalance;

/// Marker for inline justifications.
const MARKER: &str = "probe:";

/// Imbalance magnitudes above this collapse to the cap, read as
/// "many": loops that attach without detaching converge instead of
/// counting up forever, and the report stays honest (`9+`).
const CAP: i64 = 9;

/// Net open−close shift of one statement: occurrences of `open(` /
/// `.open(…)` minus occurrences of `close(`.
fn shift(file: &SourceFile, cfg: &Cfg, stmt: &Stmt, open: &str, close: &str) -> i64 {
    let toks = cfg.stmt_tokens(stmt);
    let mut net = 0i64;
    for w in toks.windows(2) {
        let (a, b) = (w[0], w[1]);
        if file.tokens[a].kind != TokenKind::Ident || file.tokens[b].text(&file.text) != "(" {
            continue;
        }
        let word = file.tokens[a].text(&file.text);
        if word == open {
            net += 1;
        } else if word == close {
            net -= 1;
        }
    }
    net
}

struct BalanceAnalysis<'a> {
    file: &'a SourceFile,
    open: &'a str,
    close: &'a str,
}

impl Analysis for BalanceAnalysis<'_> {
    /// The set of possible open−close imbalances at this point.
    type State = BTreeSet<i64>;

    fn boundary(&self) -> Self::State {
        BTreeSet::from([0])
    }

    fn transfer(
        &self,
        state: &mut Self::State,
        cfg: &Cfg,
        _block: usize,
        _idx: usize,
        stmt: &Stmt,
    ) {
        let d = shift(self.file, cfg, stmt, self.open, self.close);
        if d != 0 {
            *state = state.iter().map(|v| (v + d).clamp(-CAP, CAP)).collect();
        }
    }

    fn join(&self, into: &mut Self::State, other: &Self::State) -> bool {
        let before = into.len();
        into.extend(other.iter());
        into.len() != before
    }
}

/// Runs the analysis over one file, returning finished diagnostics.
pub fn file_findings(file: &SourceFile, config: &Config) -> Vec<Diagnostic> {
    if config.probe_balance.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (fi, f) in file.items.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = config.probe_balance.get(&f.qual) else {
            continue;
        };
        let Some(cfg) = file.cfgs().get(fi).and_then(|c| c.as_ref()) else {
            continue;
        };
        let analysis = BalanceAnalysis { file, open, close };
        let states = dataflow::forward(cfg, &analysis);
        let Some(at_exit) = states.entry[cfg.exit].as_ref() else {
            continue;
        };
        let mut bad: Vec<String> = at_exit
            .iter()
            .filter(|&&v| v != 0)
            .map(|&v| {
                if v.abs() >= CAP {
                    format!("{}{CAP}+", if v > 0 { "+" } else { "-" })
                } else {
                    format!("{v:+}")
                }
            })
            .collect();
        if bad.is_empty() || justified(&file.text, f.line, MARKER) {
            continue;
        }
        bad.sort();
        out.push(
            Diagnostic::error(
                "probe-balance",
                Span::at(&file.rel, f.line, 1),
                format!(
                    "`{open}`/`{close}` can exit `{}` unbalanced ({} on some path)",
                    f.qual,
                    bad.join(", ")
                ),
            )
            .with_help(format!(
                "every path through the function must pair each `{open}` with a \
                 `{close}`; if the imbalance is intentional, justify with \
                 `// {MARKER} <reason>`"
            )),
        );
    }
    out
}

impl super::Pass for ProbeBalance {
    fn id(&self) -> &'static str {
        "probe-balance"
    }

    fn description(&self) -> &'static str {
        "configured attach/detach probe pairs must balance on every control-flow path"
    }

    fn explain(&self) -> &'static str {
        "Checks that paired probe events balance on every control-flow path\n\
         through each configured function: the set of possible\n\
         attach−detach imbalances is pushed forward over the function's\n\
         CFG ({0} on entry, branch joins union the possibilities), and any\n\
         nonzero imbalance that can reach the function's exit — `return`\n\
         and `?` paths included — is an error. A function with one attach\n\
         and one detach can still fail: the early-return path leaks the\n\
         probe.\n\
         \n\
         Imbalance magnitudes cap at 9 (reported `9+`), which keeps\n\
         attach-in-a-loop states finite.\n\
         \n\
         Config (`xtask.toml`): qualified function -> [open, close]:\n\
           [probe-balance]\n\
           \"campaign::runner::Runner::run_page_observed\" = [\"attach_probe\", \"detach_probe\"]\n\
         With no entries the pass is inert.\n\
         Justification: `// probe: <reason>` at the function's declaration\n\
         line or in the comment block directly above it."
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

    fn config() -> Config {
        Config::from_toml(
            "[probe-balance]\n\"campaign::runner::run\" = [\"attach_probe\", \"detach_probe\"]\n",
        )
        .expect("config parses")
    }

    fn findings(body: &str) -> Vec<Diagnostic> {
        let src = format!("pub fn run(board: &mut Board) {{\n{body}\n}}\n");
        let file = SourceFile::new("crates/campaign/src/runner.rs", src);
        file_findings(&file, &config())
    }

    #[test]
    fn inert_without_config() {
        let file = SourceFile::new(
            "crates/campaign/src/runner.rs",
            "pub fn run(b: &mut Board) { b.attach_probe(); }\n",
        );
        assert!(file_findings(&file, &Config::default()).is_empty());
    }

    #[test]
    fn balanced_pair_is_clean() {
        let d = findings("let id = board.attach_probe();\nboard.run();\nboard.detach_probe(id);");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn missing_detach_is_flagged() {
        let d = findings("board.attach_probe();\nboard.run();");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("+1"), "{}", d[0].message);
        assert_eq!(d[0].span.line, 1);
    }

    #[test]
    fn early_return_leak_is_flagged() {
        let d = findings(
            "board.attach_probe();\n\
             if bad {\n    return;\n}\n\
             board.detach_probe(id);",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("+1"), "{}", d[0].message);
    }

    #[test]
    fn question_mark_leak_is_flagged() {
        let d =
            findings("board.attach_probe();\nlet page = board.load()?;\nboard.detach_probe(id);");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn detach_before_every_exit_is_clean() {
        let d = findings(
            "board.attach_probe();\n\
             if bad {\n    board.detach_probe(id);\n    return;\n}\n\
             board.detach_probe(id);",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn double_detach_branch_is_flagged() {
        let d = findings(
            "board.attach_probe();\n\
             if odd {\n    board.detach_probe(id);\n}\n\
             board.detach_probe(id);",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("-1"), "{}", d[0].message);
    }

    #[test]
    fn attach_in_loop_caps_at_many() {
        let d = findings("for p in pages {\n    board.attach_probe();\n}");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("9+"), "{}", d[0].message);
    }

    #[test]
    fn justified_imbalance_is_dropped() {
        let d = findings("board.attach_probe();");
        assert_eq!(d.len(), 1);
        let src = "// probe: the probe outlives the call on purpose\n\
                   pub fn run(board: &mut Board) {\nboard.attach_probe();\n}\n";
        let file = SourceFile::new("crates/campaign/src/runner.rs", src);
        assert!(file_findings(&file, &config()).is_empty());
    }
}
