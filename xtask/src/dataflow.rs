//! A small forward abstract-interpretation framework over [`Cfg`]s.
//!
//! An [`Analysis`] supplies a boundary state, a per-statement transfer
//! function, and a join; [`forward`] runs a worklist to a fixpoint and
//! returns the state at every block entry and exit. The framework is
//! agnostic to the domain — `dimensional-flow` brings its own — and
//! ships one ready-made instance, [`ReachingDefs`], which doubles as
//! the framework's own test harness.
//!
//! Termination: the driver caps worklist steps at a generous multiple
//! of the block count. Domains used here are finite lattices joined
//! monotonically, so the cap is a backstop for a buggy domain, not a
//! tuning knob; hitting it leaves later blocks at their last sound
//! over-approximation.
//!
//! State at the synthetic exit block's entry is "state on function
//! exit" — `return` and `?` edges flow there (see [`crate::cfg`]).

use crate::cfg::{Cfg, Stmt};
use crate::lex::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A forward dataflow problem over one function body.
pub trait Analysis {
    /// The abstract state attached to program points.
    type State: Clone + PartialEq;

    /// State on entry to the function.
    fn boundary(&self) -> Self::State;

    /// Applies one statement's effect to `state`. `block`/`idx` locate
    /// the statement for clients that key facts by position.
    fn transfer(&self, state: &mut Self::State, cfg: &Cfg, block: usize, idx: usize, stmt: &Stmt);

    /// Merges `other` into `into` at a control-flow join. Returns
    /// whether `into` changed (drives the worklist).
    fn join(&self, into: &mut Self::State, other: &Self::State) -> bool;
}

/// Fixpoint result: per-block entry and exit states. `None` means the
/// block was never reached from the entry.
pub struct BlockStates<S> {
    /// State on entry to each block.
    pub entry: Vec<Option<S>>,
    /// State after each block's last statement.
    pub exit: Vec<Option<S>>,
}

/// Runs `analysis` forward over `cfg` to a fixpoint.
pub fn forward<A: Analysis>(cfg: &Cfg, analysis: &A) -> BlockStates<A::State> {
    let n = cfg.blocks.len();
    let mut entry: Vec<Option<A::State>> = vec![None; n];
    let mut exit: Vec<Option<A::State>> = vec![None; n];
    entry[cfg.entry] = Some(analysis.boundary());
    let mut work: VecDeque<usize> = VecDeque::from([cfg.entry]);
    let mut queued = vec![false; n];
    queued[cfg.entry] = true;
    let mut steps = 0usize;
    let cap = 64 * n + 256;
    while let Some(block) = work.pop_front() {
        queued[block] = false;
        steps += 1;
        if steps > cap {
            break;
        }
        let Some(mut state) = entry[block].clone() else {
            continue;
        };
        for (idx, stmt) in cfg.blocks[block].stmts.iter().enumerate() {
            analysis.transfer(&mut state, cfg, block, idx, stmt);
        }
        for &succ in &cfg.blocks[block].succs {
            let changed = match &mut entry[succ] {
                Some(existing) => analysis.join(existing, &state),
                slot @ None => {
                    *slot = Some(state.clone());
                    true
                }
            };
            if changed && !queued[succ] {
                queued[succ] = true;
                work.push_back(succ);
            }
        }
        exit[block] = Some(state);
    }
    BlockStates { entry, exit }
}

/// The local name a statement binds or assigns, if it is a simple
/// `let [mut] name …` / `name = …` / `name op= …` statement. Complex
/// patterns (`let (a, b) = …`, `let Some(x) = …`) return `None`.
pub fn assigned_local(src: &str, tokens: &[Token], cfg: &Cfg, stmt: &Stmt) -> Option<String> {
    let toks = cfg.stmt_tokens(stmt);
    let word = |p: usize| toks.get(p).map(|&i| tokens[i].text(src));
    let kind = |p: usize| toks.get(p).map(|&i| tokens[i].kind);
    let mut p = 0;
    if word(p) == Some("let") {
        p += 1;
        if word(p) == Some("mut") {
            p += 1;
        }
        if kind(p) != Some(TokenKind::Ident) {
            return None;
        }
        // A plain binding is `ident :` or `ident =`; anything else
        // (path, tuple/struct pattern) is out of scope.
        return match word(p + 1) {
            Some(":") | Some("=") => word(p).map(str::to_owned),
            _ => None,
        };
    }
    // `name = …` or `name op= …` (first token an identifier, an `=`
    // before any other identifier or call structure).
    if kind(p) == Some(TokenKind::Ident) {
        let is_eq = match word(p + 1) {
            Some("=") => word(p + 2) != Some("="),
            Some("+") | Some("-") | Some("*") | Some("/") | Some("%") => word(p + 2) == Some("="),
            _ => false,
        };
        if is_eq {
            return word(p).map(str::to_owned);
        }
    }
    None
}

/// Reaching definitions: which `(block, stmt)` sites may have produced
/// each local's current value. The classic may-analysis — used by the
/// CFG property tests and available to future passes.
pub struct ReachingDefs<'a> {
    /// Source text backing the token list.
    pub src: &'a str,
    /// The file's token list (the one `Cfg::code` indexes).
    pub tokens: &'a [Token],
}

/// Map from local name to the definition sites that may reach here.
pub type DefSites = BTreeMap<String, BTreeSet<(usize, usize)>>;

impl Analysis for ReachingDefs<'_> {
    type State = DefSites;

    fn boundary(&self) -> DefSites {
        BTreeMap::new()
    }

    fn transfer(&self, state: &mut DefSites, cfg: &Cfg, block: usize, idx: usize, stmt: &Stmt) {
        if let Some(name) = assigned_local(self.src, self.tokens, cfg, stmt) {
            let mut sites = BTreeSet::new();
            sites.insert((block, idx));
            state.insert(name, sites);
        }
    }

    fn join(&self, into: &mut DefSites, other: &DefSites) -> bool {
        let mut changed = false;
        for (name, sites) in other {
            let entry = into.entry(name.clone()).or_default();
            for &site in sites {
                changed |= entry.insert(site);
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn run(body: &str) -> (String, Vec<Token>, Cfg) {
        let src = format!("fn f() {{ {body} }}");
        let tokens = lex(&src);
        let items = crate::items::parse_items("test.rs", &src, &tokens);
        let cfg = Cfg::build(&src, &tokens, items.fns[0].body.expect("body"));
        (src, tokens, cfg)
    }

    #[test]
    fn straight_line_defs_reach_exit() {
        let (src, tokens, cfg) = run("let a = 1; let b = a + 2;");
        let states = forward(
            &cfg,
            &ReachingDefs {
                src: &src,
                tokens: &tokens,
            },
        );
        let at_exit = states.entry[cfg.exit].as_ref().expect("exit reached");
        assert!(at_exit.contains_key("a"));
        assert!(at_exit.contains_key("b"));
        assert_eq!(at_exit["a"].len(), 1);
    }

    #[test]
    fn branches_merge_definition_sites() {
        let (src, tokens, cfg) = run("let mut a = 1; if c { a = 2; } else { a = 3; } let b = a;");
        let states = forward(
            &cfg,
            &ReachingDefs {
                src: &src,
                tokens: &tokens,
            },
        );
        let at_exit = states.entry[cfg.exit].as_ref().expect("exit reached");
        // Both branch assignments (not the initial `let`) reach the end.
        assert_eq!(at_exit["a"].len(), 2, "{at_exit:?}");
    }

    #[test]
    fn loop_reaches_fixpoint_with_both_defs() {
        let (src, tokens, cfg) = run("let mut i = 0; while c { i = i + 1; } let done = i;");
        let states = forward(
            &cfg,
            &ReachingDefs {
                src: &src,
                tokens: &tokens,
            },
        );
        let at_exit = states.entry[cfg.exit].as_ref().expect("exit reached");
        // Initial def and loop-body def both may reach the exit.
        assert_eq!(at_exit["i"].len(), 2, "{at_exit:?}");
    }

    #[test]
    fn assigned_local_recognizes_simple_forms_only() {
        let (src, tokens, cfg) = run("let a = 1; let (x, y) = p; a += 2; s.field = 3;");
        let stmts: Vec<Stmt> = cfg.blocks[cfg.entry].stmts.clone();
        let names: Vec<Option<String>> = stmts
            .iter()
            .map(|s| assigned_local(&src, &tokens, &cfg, s))
            .collect();
        assert_eq!(
            names,
            vec![Some("a".to_owned()), None, Some("a".to_owned()), None]
        );
    }
}
