//! End-to-end fixture tests: each semantic pass must turn a synthetic
//! violating tree into a non-zero exit (diagnostics surviving
//! `run_passes` policy), and the same tree repaired must come
//! back clean. The units-escape and stale-config fixtures additionally
//! pin the expected span and help text.

use xtask::source::SourceFile;
use xtask::workspace::parse_manifest;
use xtask::{run_passes, Config, Context};

fn exit_code(cx: &Context) -> i32 {
    i32::from(!run_passes(cx).is_empty())
}

/// Whether `lint` reports any error on this context. The clean-side
/// assertions scope to the lint under test: the synthetic fixtures are
/// deliberately minimal, so unrelated whole-tree passes (e.g. api-surface
/// noticing the missing snapshots) may still fire on them.
fn lint_fires(cx: &Context, lint: &str) -> bool {
    run_passes(cx).iter().any(|d| d.lint == lint)
}

#[test]
fn layering_violation_fails_and_repaired_tree_passes() {
    let config = Config::from_toml("[layering]\nlayers = [[\"dora-soc\"], [\"dora-campaign\"]]\n")
        .expect("config");
    let manifests = |soc_deps: &str| {
        vec![
            parse_manifest(
                "crates/soc/Cargo.toml",
                &format!(
                    "[package]\nname = \"dora-soc\"\n[lints]\nworkspace = true\n\
                     [dependencies]\n{soc_deps}"
                ),
            )
            .expect("manifest"),
            parse_manifest(
                "crates/campaign/Cargo.toml",
                "[package]\nname = \"dora-campaign\"\n[lints]\nworkspace = true\n\
                 [dependencies]\ndora-soc = { path = \"../soc\" }\n",
            )
            .expect("manifest"),
        ]
    };

    // An upward edge: the substrate crate depending on the orchestrator.
    let cx = Context {
        manifests: manifests("dora-campaign = { path = \"../campaign\" }\n"),
        config: config.clone(),
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    assert!(
        diags
            .iter()
            .any(|d| d.lint == "crate-layering" && d.message.contains("dora-campaign")),
        "{diags:?}"
    );

    // Same workspace without the upward edge is clean.
    let cx = Context {
        manifests: manifests(""),
        config,
        ..Context::default()
    };
    assert!(!lint_fires(&cx, "crate-layering"));
}

#[test]
fn manifest_without_workspace_lints_fails_and_with_them_passes() {
    let config = Config::from_toml("[layering]\nlayers = [[\"dora-soc\"]]\n").expect("config");
    let manifest = "[package]\nname = \"dora-soc\"\n[dependencies]\n";
    let cx = |text: &str| Context {
        manifests: vec![parse_manifest("crates/soc/Cargo.toml", text).expect("manifest")],
        config: config.clone(),
        ..Context::default()
    };
    let bare = cx(manifest);
    assert_eq!(exit_code(&bare), 1);
    let diags = run_passes(&bare);
    let hit = diags
        .iter()
        .find(|d| d.lint == "crate-layering")
        .expect("crate-layering must fire");
    assert_eq!(hit.span.file, "crates/soc/Cargo.toml");
    assert!(
        hit.message
            .contains("crate `dora-soc` does not inherit the workspace lints"),
        "{hit:?}"
    );

    let inheriting = cx(&format!("{manifest}\n[lints]\nworkspace = true\n"));
    assert!(!lint_fires(&inheriting, "crate-layering"));
}

#[test]
fn uncited_constant_fails_and_cited_passes() {
    let config = Config::from_toml(
        "[constants]\nmodules = [\"crates/soc/src/power.rs\"]\ntrivial = [0.0, 1.0]\n",
    )
    .expect("config");
    let cx = Context {
        files: vec![SourceFile::new(
            "crates/soc/src/power.rs",
            "pub const K1: f64 = 0.22;\n",
        )],
        config: config.clone(),
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);

    let cx = Context {
        files: vec![SourceFile::new(
            "crates/soc/src/power.rs",
            "pub const K1: f64 = 0.22; // paper: Eq. 5\n",
        )],
        config: config.clone(),
        ..Context::default()
    };
    assert!(run_passes(&cx).iter().all(|d| d.lint != "paper-constants"));

    // A magic float const outside any designated module also fails.
    let cx = Context {
        files: vec![SourceFile::new(
            "crates/governors/src/interactive.rs",
            "const UP_THRESHOLD: f64 = 0.85;\n",
        )],
        config,
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
}

#[test]
fn uncited_biglittle_profile_constant_fails_and_cited_passes() {
    // The heterogeneous SoC registry is a designated constants module:
    // new OPP tables and power coefficients must cite their sources.
    let config = Config::from_toml(
        "[constants]\nmodules = [\"crates/soc/src/profile.rs\"]\ntrivial = [0.0, 1.0]\n",
    )
    .expect("config");
    let cx = Context {
        files: vec![SourceFile::new(
            "crates/soc/src/profile.rs",
            "pub const A7_CEFF_CORE_F: f64 = 0.12e-9;\n\
             const A15_KHZ_MV: [(u64, u32); 2] = [(200_000, 900), (2_000_000, 1_250)];\n",
        )],
        config: config.clone(),
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    assert!(
        diags
            .iter()
            .any(|d| d.lint == "paper-constants" && d.message.contains("A7_CEFF_CORE_F")),
        "{diags:?}"
    );

    let cx = Context {
        files: vec![SourceFile::new(
            "crates/soc/src/profile.rs",
            "pub const A7_CEFF_CORE_F: f64 = 0.12e-9; // paper: 1906.08689 Sec. 2.1\n\
             // paper: 1710.03559 Sec. 3 — Exynos 5422 A15 OPP endpoints\n\
             const A15_KHZ_MV: [(u64, u32); 2] = [(200_000, 900), (2_000_000, 1_250)];\n",
        )],
        config,
        ..Context::default()
    };
    assert!(run_passes(&cx).iter().all(|d| d.lint != "paper-constants"));
}

#[test]
fn api_drift_fails_and_blessed_snapshot_passes() {
    let file = SourceFile::new(
        "crates/soc/src/lib.rs",
        "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn frequency() -> u64 {\n    0\n}\n",
    );
    // Snapshot missing the symbol → drift → non-zero.
    let mut cx = Context {
        files: vec![file.clone()],
        ..Context::default()
    };
    cx.api_snapshots.insert("soc".into(), String::new());
    assert_eq!(exit_code(&cx), 1);

    // Blessed snapshot → clean.
    cx.api_snapshots
        .insert("soc".into(), "pub fn frequency() -> u64\n".into());
    assert!(!lint_fires(&cx, "api-surface"));
}

#[test]
fn escaping_f64_fails_and_typed_signature_passes() {
    let config = Config::from_toml(
        "[units-escape]\nboundary_paths = [\"crates/soc/\"]\nunit_types = [\"Seconds\"]\n",
    )
    .expect("config");
    // A unit-suffixed raw f64 crossing a pub signature inside the boundary.
    let cx = Context {
        files: vec![SourceFile::new(
            "crates/soc/src/dvfs.rs",
            "pub fn settle(&self, dwell_ms: f64) -> bool {\n    dwell_ms > 0.0\n}\n",
        )],
        config: config.clone(),
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    let hit = diags
        .iter()
        .find(|d| d.lint == "units-escape")
        .expect("units-escape must fire");
    assert_eq!(hit.span.file, "crates/soc/src/dvfs.rs");
    assert_eq!(hit.span.line, 1, "{hit:?}");
    assert!(
        hit.message
            .contains("takes raw `dwell_ms: f64` across the typed-units boundary"),
        "{hit:?}"
    );
    assert!(
        hit.help
            .as_deref()
            .is_some_and(|h| h.contains("dora_sim_core::units newtype")),
        "{hit:?}"
    );

    // The typed signature passes.
    let cx = Context {
        files: vec![SourceFile::new(
            "crates/soc/src/dvfs.rs",
            "pub fn settle(&self, dwell: Seconds) -> bool {\n    dwell > Seconds::ZERO\n}\n",
        )],
        config,
        ..Context::default()
    };
    assert!(!lint_fires(&cx, "units-escape"));
}

#[test]
fn stale_config_entry_fails_and_resolving_entry_passes() {
    let src = "pub fn step(&mut self) {}\n";
    // The config points paper-constants at a module that no longer exists.
    let cx = Context {
        files: vec![SourceFile::new("crates/soc/src/board.rs", src)],
        config: Config::from_toml("[constants]\nmodules = [\"crates/soc/src/gone.rs\"]\n")
            .expect("config"),
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    let hit = diags
        .iter()
        .find(|d| d.lint == "stale-config")
        .expect("stale-config must fire");
    assert_eq!(hit.span.file, "xtask/xtask.toml");
    assert!(
        hit.message
            .contains("[constants] modules prefix `crates/soc/src/gone.rs` matches no loaded file"),
        "{hit:?}"
    );
    assert!(
        hit.help
            .as_deref()
            .is_some_and(|h| h.contains("update the entry to match the tree")),
        "{hit:?}"
    );

    // The same entry pointed at the live file passes.
    let cx = Context {
        files: vec![SourceFile::new("crates/soc/src/board.rs", src)],
        config: Config::from_toml("[constants]\nmodules = [\"crates/soc/src/board.rs\"]\n")
            .expect("config"),
        ..Context::default()
    };
    assert!(!lint_fires(&cx, "stale-config"));

    // A lint id left behind by a retired pass is caught the same way.
    let cx = Context {
        files: vec![SourceFile::new("crates/soc/src/board.rs", src)],
        config: Config::from_toml("[allow]\nmerge-associativity = [\"crates/soc/\"]\n")
            .expect("config"),
        ..Context::default()
    };
    assert!(lint_fires(&cx, "stale-config"));
    let diags = run_passes(&cx);
    assert!(
        diags.iter().any(|d| d.lint == "stale-config"
            && d.message
                .contains("[allow] names unknown lint `merge-associativity`")),
        "{diags:?}"
    );
}
