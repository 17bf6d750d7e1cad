//! The docs may name only lints that exist: every lint id in README's
//! `lint --only …` / `--explain …` examples must be registered, and
//! DESIGN.md §8's registry table must list exactly the registered
//! passes.

use std::collections::BTreeSet;
use xtask::passes::registry;

const README: &str = include_str!("../../README.md");
const DESIGN: &str = include_str!("../../DESIGN.md");

fn registered() -> BTreeSet<&'static str> {
    registry().iter().map(|p| p.id()).collect()
}

/// The lint ids following `flag` on each line of `text`, split on
/// commas; `<placeholder>` arguments are skipped.
fn flag_args<'a>(text: &'a str, flag: &str) -> Vec<&'a str> {
    text.lines()
        .filter_map(|line| line.split_once(flag).map(|(_, rest)| rest))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(|arg| arg.trim_matches('`'))
        .filter(|arg| !arg.starts_with('<'))
        .flat_map(|arg| arg.split(','))
        .collect()
}

#[test]
fn readme_lint_examples_name_registered_lints() {
    let known = registered();
    for flag in ["--only ", "--explain "] {
        let ids = flag_args(README, flag);
        assert!(!ids.is_empty(), "README has no `lint {flag}…` example");
        for id in ids {
            assert!(
                known.contains(id),
                "README's `lint {flag}{id}` names no registered lint (known: {known:?})"
            );
        }
    }
}

#[test]
fn design_registry_table_lists_exactly_the_registered_passes() {
    let section = DESIGN
        .split("\n## ")
        .find(|s| s.starts_with("8. "))
        .expect("DESIGN.md has a §8");
    let rows: BTreeSet<&str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split_once('`').map(|(id, _)| id))
        .collect();
    assert_eq!(rows, registered(), "DESIGN.md §8 registry table drifted");
}

#[test]
fn flag_args_splits_lists_and_skips_placeholders() {
    let text = "cargo run -p xtask -- lint --only a,b\n`lint --explain <lint-id>` prints\nx --explain c   # note\n";
    assert_eq!(flag_args(text, "--only "), ["a", "b"]);
    assert_eq!(flag_args(text, "--explain "), ["c"]);
}
