//! Snapshot tests pinning the JSON and SARIF output shapes.
//!
//! CI consumers (the SARIF artifact upload, any jq-based tooling) parse
//! these documents; a field rename or reordering is a breaking change and
//! must show up as a reviewed diff here.

use xtask::diag::{Diagnostic, Severity, Span};
use xtask::render;

fn sample() -> Vec<Diagnostic> {
    vec![
        Diagnostic::error(
            "units-escape",
            Span::at("crates/soc/src/thermal.rs", 12, 5),
            "pub fn `settle` takes raw `f64` quantity `dwell_ms` across the typed-units boundary",
        )
        .with_help("take `Seconds` instead of a unit-suffixed f64"),
        // A finding of a lint set to `level = "warn"` in `xtask.toml`.
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(
                "stale-config",
                Span::file("xtask/xtask.toml"),
                "[probe-purity] hot_paths prefix `crates/soc/src/gone.rs` matches no loaded file",
            )
        },
    ]
}

#[test]
fn json_shape_is_stable() {
    let expected = r#"{
  "version": 1,
  "diagnostics": [
    {"lint": "units-escape", "severity": "error", "file": "crates/soc/src/thermal.rs", "line": 12, "column": 5, "message": "pub fn `settle` takes raw `f64` quantity `dwell_ms` across the typed-units boundary", "help": "take `Seconds` instead of a unit-suffixed f64"},
    {"lint": "stale-config", "severity": "warning", "file": "xtask/xtask.toml", "line": 0, "column": 0, "message": "[probe-purity] hot_paths prefix `crates/soc/src/gone.rs` matches no loaded file", "help": null}
  ]
}
"#;
    assert_eq!(render::json(&sample()), expected);
}

#[test]
fn sarif_shape_is_stable() {
    let rules = [
        (
            "units-escape",
            "no raw f64 quantities across the typed-units boundary",
        ),
        (
            "stale-config",
            "every path, package, and lint id named in xtask.toml must resolve against the tree",
        ),
    ];
    let text = render::sarif(&sample(), &rules);

    // Document skeleton.
    assert!(text.starts_with("{\n  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\""));
    assert!(text.contains("\"version\": \"2.1.0\""));
    assert!(text.contains("\"name\": \"xtask-lint\""));

    // The full rules table is present, in registry order.
    let r0 = text.find("\"id\": \"units-escape\"").expect("rule 0");
    let r1 = text.find("\"id\": \"stale-config\"").expect("rule 1");
    assert!(r0 < r1);

    // Results carry ruleId, ruleIndex, level and a span-bearing location.
    assert!(text.contains("\"ruleId\": \"units-escape\""));
    assert!(text.contains("\"ruleIndex\": 0"));
    assert!(text.contains("\"level\": \"error\""));
    assert!(text.contains("\"uri\": \"crates/soc/src/thermal.rs\""));
    assert!(text.contains("\"region\": {\"startLine\": 12, \"startColumn\": 5}"));

    // File-scoped findings omit the region entirely; warnings keep their level.
    assert!(text.contains("\"uri\": \"xtask/xtask.toml\"}\n"));
    assert!(text.contains("\"level\": \"warning\""));
}

#[test]
fn both_formats_are_valid_when_empty() {
    assert_eq!(
        render::json(&[]),
        "{\n  \"version\": 1,\n  \"diagnostics\": [\n  ]\n}\n"
    );
    let text = render::sarif(&[], &[("units-escape", "d")]);
    assert!(text.contains("\"results\": [\n      ]"));
}

/// `lint --explain <id>` output: the one-line header (`id — description`)
/// followed by the pass's long-form explanation. Pinned in full for one
/// pass so the rendering contract can't drift silently.
#[test]
fn explain_output_is_stable() {
    let expected = "probe-purity — probe-off hot-path files allocate/format only at `// alloc:`-justified sites\n\n\
Scans the configured probe-off hot-path files for allocation and\n\
formatting (`String::new`, `to_string`, `format!`, `Vec::new`,\n\
collectors, …): the measurement loop must not allocate when\n\
probes are off, or probe overhead leaks into the measured\n\
energy. Each intentional site says why it is lazy or one-time.\n\
\n\
Config (`xtask.toml`):\n\
[probe-purity]\n\
hot_paths = [\"crates/soc/src/probe.rs\"]  # path prefixes\n\
Justification: `// alloc: <reason>` on the flagged line or in\n\
the comment block directly above it.\n";
    assert_eq!(render::explain("probe-purity").expect("known id"), expected);
}

/// Every registered pass explains itself, and the text names its own
/// lint id's justification marker or config table where one exists —
/// `--explain` must never print an empty or placeholder page.
#[test]
fn every_pass_has_substantive_explain_text() {
    for pass in xtask::passes::registry() {
        let page = render::explain(pass.id()).expect("registered id");
        assert!(
            page.starts_with(&format!("{} — ", pass.id())),
            "header missing for {}: {page:?}",
            pass.id()
        );
        assert!(
            page.trim().lines().count() >= 3,
            "explain page for {} is too thin:\n{page}",
            pass.id()
        );
    }
}

/// Unknown ids produce an error that lists every known id, so a typo'd
/// `--explain` invocation is self-correcting.
#[test]
fn explain_rejects_unknown_ids_listing_known_ones() {
    let err = render::explain("no-such-lint").expect_err("must reject");
    assert!(err.contains("unknown lint id `no-such-lint`"), "{err}");
    for id in ["units-escape", "probe-purity", "stale-config"] {
        assert!(err.contains(id), "known-id list missing {id}: {err}");
    }
}
