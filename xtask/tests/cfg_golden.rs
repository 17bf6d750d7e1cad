//! Golden `Cfg::dump` renderings for the four control-flow shapes the
//! dataflow lints lean on hardest: branch joins (`if`/`else`), match
//! arm fan-out, loop back-edges with a `?` inside (`while let`), and
//! straight-line `?` early-exit chains. Pinning the full dump fixes
//! block numbering, statement classification, and edge order at once —
//! any builder change that reshapes these graphs must update the
//! expectations here consciously, because dataflow results depend on
//! this structure.

// Test code asserts invariants directly; the panic ratchet covers libraries.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use xtask::source::SourceFile;

/// Parses `body` as a one-function file and renders its CFG.
fn dump_of(body: &str) -> String {
    let file = SourceFile::new(
        "tests/fixture.rs",
        format!("pub fn fixture() {{ {body} }}\n"),
    );
    let cfgs = file.cfgs();
    assert_eq!(cfgs.len(), 1, "fixture must parse as exactly one fn");
    cfgs[0]
        .as_ref()
        .expect("fixture has a body")
        .dump(&file.text, &file.tokens)
}

/// `if`/`else`: the header ends the entry block, both branches carry
/// their braces as structural statements, and control joins before the
/// trailing statement.
#[test]
fn if_else_branches_split_and_rejoin() {
    let dump = dump_of("let a = probe(); if a > 0 { hot(); } else { cold(); } done(a);");
    assert_eq!(
        dump,
        "\
b0 (entry):
  [stmt] let a = probe ( ) ;
  [if] if a > 0 {
  -> b2, b3
b1 (exit):
  -> (none)
b2:
  [stmt] hot ( ) ;
  [punct] }
  -> b4
b3:
  [punct] else {
  [stmt] cold ( ) ;
  [punct] }
  -> b4
b4:
  [stmt] done ( a ) ;
  -> b1
"
    );
}

/// `match`: the header fans out to one block per arm (patterns kept as
/// `arm` statements, guards included), and every arm rejoins at the
/// closing-brace block.
#[test]
fn match_fans_out_one_block_per_arm() {
    let dump = dump_of("match classify(x) { Kind::A => a(), Kind::B { n } => { b(n); } _ => {} }");
    assert_eq!(
        dump,
        "\
b0 (entry):
  [match] match classify ( x ) {
  -> b3, b4, b5
b1 (exit):
  -> (none)
b2:
  [punct] }
  -> b1
b3:
  [arm] Kind : : A = >
  [stmt] a ( )
  [punct] ,
  -> b2
b4:
  [arm] Kind : : B { n } = >
  [punct] {
  [stmt] b ( n ) ;
  [punct] }
  -> b2
b5:
  [arm] _ = >
  [punct] {
  [punct] }
  -> b2
"
    );
}

/// `while let` with a `?` in the body: the loop head tests into
/// body/after blocks, the body's `?` statement gains an extra edge to
/// the exit, and the closing brace loops back to the head.
#[test]
fn while_let_back_edge_and_inner_question_mark() {
    let dump = dump_of("while let Some(job) = queue.pop() { run(job)?; } drain();");
    assert_eq!(
        dump,
        "\
b0 (entry):
  -> b2
b1 (exit):
  -> (none)
b2:
  [loop] while let Some ( job ) = queue . pop ( ) {
  -> b3, b4
b3:
  [stmt] run ( job ) ? ;
  -> b1, b5
b4:
  [stmt] drain ( ) ;
  -> b1
b5:
  [punct] }
  -> b2
"
    );
}

/// A `?` chain: each fallible statement terminates its block with an
/// early edge to the exit plus a fallthrough, so pairing lints see the
/// leak on every partial path.
#[test]
fn question_mark_chain_threads_exit_edges() {
    let dump = dump_of("let conn = dial(addr)?; conn.send(msg)?; Ok(())");
    assert_eq!(
        dump,
        "\
b0 (entry):
  [stmt] let conn = dial ( addr ) ? ;
  -> b1, b2
b1 (exit):
  -> (none)
b2:
  [stmt] conn . send ( msg ) ? ;
  -> b1, b3
b3:
  [stmt] Ok ( ( ) )
  -> b1
"
    );
}
