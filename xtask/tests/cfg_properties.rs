//! CFG construction invariants, checked two ways: once over every
//! function body in the real repository (the graphs the dataflow lints
//! actually analyze), and once over randomized bodies assembled from
//! control-flow fragments. Three properties must hold for every graph:
//!
//!   1. **Partition** — every code token of the body lands in exactly
//!      one statement of exactly one block; nothing is dropped or
//!      duplicated by branch/loop/match splitting.
//!   2. **Live edges** — every successor index targets an existing
//!      block, and the synthetic exit block has no statements and no
//!      successors.
//!   3. **Determinism** — rebuilding the same body yields a
//!      byte-identical `dump`, so golden tests and analysis results
//!      are stable.

// Test code asserts invariants directly; the panic ratchet covers libraries.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use xtask::cfg::Cfg;
use xtask::source::SourceFile;
use xtask::{repo_root, Context};

/// Every code-token position appears in exactly one statement range.
fn check_partition(cfg: &Cfg, what: &str) -> Result<(), String> {
    let mut seen = vec![0usize; cfg.code.len()];
    for b in &cfg.blocks {
        for s in &b.stmts {
            for slot in seen.iter_mut().take(s.hi).skip(s.lo) {
                *slot += 1;
            }
        }
    }
    if let Some(pos) = seen.iter().position(|&c| c != 1) {
        return Err(format!(
            "{what}: code position {pos} covered {} times (counts {seen:?})",
            seen[pos]
        ));
    }
    Ok(())
}

/// Successors index live blocks; the exit block is empty and terminal.
fn check_edges(cfg: &Cfg, what: &str) -> Result<(), String> {
    for (i, b) in cfg.blocks.iter().enumerate() {
        for &t in &b.succs {
            if t >= cfg.blocks.len() {
                return Err(format!(
                    "{what}: block b{i} has dangling edge to b{t} ({} blocks)",
                    cfg.blocks.len()
                ));
            }
        }
    }
    let exit = &cfg.blocks[cfg.exit];
    if !exit.stmts.is_empty() || !exit.succs.is_empty() {
        return Err(format!("{what}: exit block is not empty/terminal"));
    }
    Ok(())
}

fn check_all(file: &SourceFile, what: &str) -> Result<(), String> {
    for (f, cfg) in file.items.fns.iter().zip(file.cfgs()) {
        let (Some(cfg), Some(body)) = (cfg, f.body) else {
            continue;
        };
        let ident = format!("{what}: fn {}", f.qual);
        check_partition(cfg, &ident)?;
        check_edges(cfg, &ident)?;
        let again = Cfg::build(&file.text, &file.tokens, body);
        if again.dump(&file.text, &file.tokens) != cfg.dump(&file.text, &file.tokens) {
            return Err(format!("{ident}: rebuild produced a different graph"));
        }
    }
    Ok(())
}

/// The invariants hold for every function body the lints will ever see
/// in this repository — the strongest grounding the generator can't
/// provide.
#[test]
fn every_repository_cfg_satisfies_the_invariants() {
    let cx = Context::load(&repo_root()).expect("loading the repository");
    let mut bodies = 0usize;
    for file in &cx.files {
        check_all(file, &file.rel).unwrap_or_else(|e| panic!("{e}"));
        bodies += file.cfgs().iter().flatten().count();
    }
    assert!(
        bodies > 500,
        "suspiciously few function bodies analyzed: {bodies}"
    );
}

/// Statement-level fragments the generator splices into bodies. Each is
/// a standalone snippet; concatenation in any order stays lexable, and
/// most combinations exercise branch joins, loop back-edges, early
/// exits, and `?` edges against each other.
const FRAGMENTS: &[&str] = &[
    "let a = 1;",
    "let b = f(a, 2) + g();",
    "touch(&mut b);",
    "if a > 0 { hot(); } else { cold(); }",
    "if a > 0 { hot(); } else if b < 9 { warm(); } else { cold(); }",
    "if short() { return; }",
    "match a { 0 => zero(), 1 => { one(); } _ => rest(), }",
    "match pick() { Some(x) => use_it(x), None => {} }",
    "while a < 10 { a += 1; }",
    "while let Some(x) = it.next() { sink(x); }",
    "for i in 0..4 { if i == 2 { continue; } body(i); }",
    "loop { if done() { break; } spin(); }",
    "'outer: loop { loop { break; } break; }",
    "let v = fallible()?;",
    "fallible()?;",
    "return finish();",
    "{ let inner = 3; scoped(inner); }",
    "let c = if a > b { a } else { b };",
    "let d = match a { 0 => 1, _ => 2 };",
];

/// Parses `body` as the sole function of a synthetic file and returns
/// that file (the CFG is reached through `cfgs()` like production code).
fn file_of(body: &str) -> SourceFile {
    SourceFile::new("tests/gen.rs", format!("pub fn gen_case() {{ {body} }}\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random fragment soups: whatever control flow the splice produces,
    /// the partition/live-edge/determinism invariants must hold.
    #[test]
    fn generated_bodies_satisfy_the_invariants(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 1..10)
    ) {
        let body: Vec<&str> = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let file = file_of(&body.join(" "));
        prop_assert_eq!(file.items.fns.len(), 1, "generator produced a non-function");
        if let Err(e) = check_all(&file, "generated") {
            prop_assert!(false, "{}", e);
        }
    }

    /// Nesting the same fragment inside loop/if wrappers must not break
    /// the partition: wrappers add structural tokens that the builder
    /// has to keep attached to exactly one statement.
    #[test]
    fn wrapped_bodies_keep_the_token_partition(
        pick in 0usize..FRAGMENTS.len(),
        wrap in 0usize..3,
        depth in 1usize..4,
    ) {
        let mut body = FRAGMENTS[pick].to_string();
        for _ in 0..depth {
            body = match wrap {
                0 => format!("if guard() {{ {body} }} else {{ other(); }}"),
                1 => format!("loop {{ {body} break; }}"),
                _ => format!("match sel() {{ true => {{ {body} }} false => {{}} }}"),
            };
        }
        let file = file_of(&body);
        if let Err(e) = check_all(&file, "wrapped") {
            prop_assert!(false, "{}", e);
        }
    }
}
