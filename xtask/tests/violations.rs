//! End-to-end fixture tests: each semantic pass must turn a synthetic
//! violating tree into a non-zero exit (error-severity diagnostics
//! surviving `run_passes` policy), and the same tree repaired must come
//! back clean. The call-graph passes (panic-reachability, units-escape,
//! determinism-taint) additionally pin the expected span and help text.

use xtask::source::SourceFile;
use xtask::workspace::parse_manifest;
use xtask::{render, run_passes, Config, Context};

fn exit_code(cx: &Context) -> i32 {
    let (errors, _, _) = render::tally(&run_passes(cx));
    i32::from(errors > 0)
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
fn determinism_violation_fails_and_btreemap_passes() {
    let config =
        Config::from_toml("[determinism]\nexport_paths = [\"crates/campaign/src/export.rs\"]\n")
            .expect("config");
    let cx = Context {
        files: vec![SourceFile::new(
            "crates/campaign/src/export.rs",
            "use std::collections::HashMap;\npub fn rows() -> HashMap<String, f64> { todo!() }\n",
        )],
        config: config.clone(),
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    let lines: Vec<usize> = diags
        .iter()
        .filter(|d| d.lint == "determinism-taint")
        .map(|d| d.span.line)
        .collect();
    assert_eq!(lines, [1, 2], "the `use` line and the signature: {diags:?}");

    let cx = Context {
        files: vec![SourceFile::new(
            "crates/campaign/src/export.rs",
            "use std::collections::BTreeMap;\npub fn rows() -> BTreeMap<String, f64> { todo!() }\n",
        )],
        config,
        ..Context::default()
    };
    assert!(
        !lint_fires(&cx, "determinism-taint"),
        "BTreeMap must not trip determinism-taint"
    );
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
fn sync_hygiene_violations_fail_and_facade_code_passes() {
    let config =
        Config::from_toml("[sync-hygiene]\nfacade_paths = [\"crates/campaign/src/sync.rs\"]\n")
            .expect("config");

    // All three rules at once: a direct std::sync import, an unjustified
    // Relaxed ordering, and a static mut.
    let cx = Context {
        files: vec![SourceFile::new(
            "crates/soc/src/board.rs",
            "use std::sync::atomic::{AtomicUsize, Ordering};\n\
             static mut HITS: usize = 0;\n\
             pub fn bump(c: &AtomicUsize) -> usize {\n\
                 c.fetch_add(1, Ordering::Relaxed)\n\
             }\n",
        )],
        config: config.clone(),
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    for needle in ["std::sync", "static mut", "Ordering::Relaxed"] {
        assert!(
            diags
                .iter()
                .any(|d| d.lint == "sync-hygiene" && d.message.contains(needle)),
            "sync-hygiene must flag {needle}: {diags:?}"
        );
    }

    // The facade file itself, plus justified orderings, are clean.
    let cx = Context {
        files: vec![
            SourceFile::new(
                "crates/campaign/src/sync.rs",
                "pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};\n",
            ),
            SourceFile::new(
                "crates/campaign/src/executor.rs",
                "pub fn bump(c: &AtomicUsize) -> usize {\n\
                     // ordering: pure claim ticket; nothing is published through it.\n\
                     c.fetch_add(1, Ordering::Relaxed)\n\
                 }\n",
            ),
        ],
        config,
        ..Context::default()
    };
    assert!(!lint_fires(&cx, "sync-hygiene"));
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
fn reachable_panic_fails_with_call_path_and_allow_entry_passes() {
    // A pub entry point reaching a helper's `.unwrap()` two hops down.
    let src = "pub fn summarize(path: &str) -> usize {\n    parse(path)\n}\n\nfn parse(path: &str) -> usize {\n    read(path).len()\n}\n\nfn read(path: &str) -> String {\n    std::fs::read_to_string(path).unwrap()\n}\n";
    let cx = Context {
        files: vec![SourceFile::new("crates/soc/src/io.rs", src)],
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    let hit = diags
        .iter()
        .find(|d| d.lint == "panic-reachability")
        .expect("panic-reachability must fire");
    assert_eq!(hit.span.file, "crates/soc/src/io.rs");
    assert_eq!(hit.span.line, 10, "{hit:?}");
    assert!(
        hit.message
            .contains("soc::io::summarize -> soc::io::parse -> soc::io::read"),
        "finding must show the pub call path: {hit:?}"
    );
    assert!(
        hit.help
            .as_deref()
            .is_some_and(|h| h.contains("add `\"soc::io::read\"` to [panic-reachability] allow")),
        "{hit:?}"
    );

    // Sanctioning exactly that function repairs the tree.
    let cx = Context {
        files: vec![SourceFile::new("crates/soc/src/io.rs", src)],
        config: Config::from_toml("[panic-reachability]\nallow = [\"soc::io::read\"]\n")
            .expect("config"),
        ..Context::default()
    };
    assert!(!lint_fires(&cx, "panic-reachability"));
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
fn hash_map_taint_reaching_export_fails_and_btreemap_passes() {
    let config =
        Config::from_toml("[determinism]\nexport_paths = [\"crates/campaign/src/export.rs\"]\n")
            .expect("config");
    let export = "use crate::rows::collect_rows;\n\npub fn write_csv() -> String {\n    collect_rows().join(\"\\n\")\n}\n";
    // The helper lives OUTSIDE the export path, so only the call-graph
    // taint pass can see it from the sink.
    let tainted = "use std::collections::HashMap;\n\npub fn collect_rows() -> Vec<String> {\n    let m: HashMap<String, f64> = HashMap::new();\n    m.keys().cloned().collect()\n}\n";
    let cx = Context {
        files: vec![
            SourceFile::new("crates/campaign/src/export.rs", export),
            SourceFile::new("crates/campaign/src/rows.rs", tainted),
        ],
        config: config.clone(),
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    let hit = diags
        .iter()
        .find(|d| d.lint == "determinism-taint")
        .expect("determinism-taint must fire");
    assert_eq!(hit.span.file, "crates/campaign/src/rows.rs");
    assert_eq!(hit.span.line, 4, "{hit:?}");
    assert!(
        hit.message.contains("`HashMap` iteration order")
            && hit.message.contains("campaign::export::write_csv"),
        "finding must name the source and the sink chain: {hit:?}"
    );
    assert!(
        hit.help
            .as_deref()
            .is_some_and(|h| h.contains("BTreeMap/BTreeSet")),
        "{hit:?}"
    );

    let repaired = tainted.replace("HashMap", "BTreeMap");
    let cx = Context {
        files: vec![
            SourceFile::new("crates/campaign/src/export.rs", export),
            SourceFile::new("crates/campaign/src/rows.rs", repaired),
        ],
        config,
        ..Context::default()
    };
    assert!(!lint_fires(&cx, "determinism-taint"));
}

#[test]
fn uncovered_snapshot_field_fails_and_skip_marker_passes() {
    let config = Config::from_toml(
        "[state-coverage]\n\"soc::snap::Snap\" = [\"soc::snap::Board::restore\"]\n",
    )
    .expect("config");
    // `restore` transfers `seed` but forgets `energy`.
    let src = "pub struct Snap {\n    pub seed: u64,\n    pub energy: f64,\n}\npub struct Board;\nimpl Board {\n    pub fn restore(&mut self, s: &Snap) {\n        let _ = s.seed;\n    }\n}\n";
    let cx = Context {
        files: vec![SourceFile::new("crates/soc/src/snap.rs", src)],
        config: config.clone(),
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    let hit = diags
        .iter()
        .find(|d| d.lint == "state-coverage")
        .expect("state-coverage must fire");
    assert_eq!(hit.span.file, "crates/soc/src/snap.rs");
    assert_eq!(hit.span.line, 7, "{hit:?}");
    assert!(
        hit.message.contains(
            "`soc::snap::Board::restore` does not access field `energy` of `soc::snap::Snap`"
        ),
        "{hit:?}"
    );
    assert!(
        hit.help.as_deref().is_some_and(|h| {
            h.contains("transfer the field, or add `// state: skip(<reason>)`")
                && h.contains("crates/soc/src/snap.rs:3")
        }),
        "{hit:?}"
    );

    // A justified skip on the field's declaration repairs the tree.
    let repaired = src.replace(
        "    pub energy: f64,",
        "    // state: skip(recomputed from seed on restore)\n    pub energy: f64,",
    );
    let cx = Context {
        files: vec![SourceFile::new("crates/soc/src/snap.rs", repaired)],
        config,
        ..Context::default()
    };
    assert!(!lint_fires(&cx, "state-coverage"));
}

#[test]
fn raw_f64_fold_under_merge_sink_fails_and_sketch_type_passes() {
    let config = Config::from_toml(
        "[merge-associativity]\nsink_fns = [\"soc::agg::Report::merge\"]\nmergeable_types = [\"Hist\"]\n",
    )
    .expect("config");
    // The sink reaches a helper whose `.sum()` reassociates under resharding.
    let src = "pub struct Report {\n    pub total: f64,\n}\nimpl Report {\n    pub fn merge(&mut self, other: &Report) {\n        self.total = combine(self.total, other.total);\n    }\n}\nfn combine(a: f64, b: f64) -> f64 {\n    [a, b].iter().sum()\n}\n";
    let cx = Context {
        files: vec![SourceFile::new("crates/soc/src/agg.rs", src)],
        config: config.clone(),
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    let hit = diags
        .iter()
        .find(|d| d.lint == "merge-associativity")
        .expect("merge-associativity must fire");
    assert_eq!(hit.span.file, "crates/soc/src/agg.rs");
    assert_eq!(hit.span.line, 10, "{hit:?}");
    assert!(
        hit.message.contains(
            "raw f64 accumulation `.sum()` in `soc::agg::combine` \
             (merge-reachable via `soc::agg::Report::merge -> soc::agg::combine`)"
        ),
        "{hit:?}"
    );
    assert!(
        hit.help.as_deref().is_some_and(|h| {
            h.contains("accumulate through a mergeable sketch type")
                && h.contains("// merge: <reason>")
        }),
        "{hit:?}"
    );

    // Folding through a declared-mergeable sketch type passes.
    let repaired = "pub struct Report {\n    pub total: Hist,\n}\npub struct Hist;\nimpl Hist {\n    pub fn merge(&mut self, _other: &Hist) {}\n}\nimpl Report {\n    pub fn merge(&mut self, other: &Report) {\n        self.total.merge(&other.total);\n    }\n}\n";
    let cx = Context {
        files: vec![SourceFile::new("crates/soc/src/agg.rs", repaired)],
        config,
        ..Context::default()
    };
    assert!(!lint_fires(&cx, "merge-associativity"));
}

#[test]
fn stale_config_entry_fails_and_resolving_entry_passes() {
    let src = "pub struct Snap {\n    pub seed: u64,\n}\npub struct Board;\nimpl Board {\n    pub fn restore(&mut self, s: &Snap) {\n        let _ = s.seed;\n    }\n}\n";
    // The config points state-coverage at a struct that no longer exists.
    let cx = Context {
        files: vec![SourceFile::new("crates/soc/src/snap.rs", src)],
        config: Config::from_toml(
            "[state-coverage]\n\"soc::snap::Gone\" = [\"soc::snap::Board::restore\"]\n",
        )
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
            .contains("[state-coverage] key `soc::snap::Gone` resolves to no struct"),
        "{hit:?}"
    );
    assert!(
        hit.help
            .as_deref()
            .is_some_and(|h| h.contains("update the entry to match the tree")),
        "{hit:?}"
    );

    // The same entry pointed at the live struct passes.
    let cx = Context {
        files: vec![SourceFile::new("crates/soc/src/snap.rs", src)],
        config: Config::from_toml(
            "[state-coverage]\n\"soc::snap::Snap\" = [\"soc::snap::Board::restore\"]\n",
        )
        .expect("config"),
        ..Context::default()
    };
    assert!(!lint_fires(&cx, "stale-config"));

    // A dangling path prefix is caught the same way.
    let cx = Context {
        files: vec![SourceFile::new("crates/soc/src/snap.rs", src)],
        config: Config::from_toml("[allow]\n\"partial-cmp\" = [\"crates/gone/src/\"]\n")
            .expect("config"),
        ..Context::default()
    };
    assert!(lint_fires(&cx, "stale-config"));
    let diags = run_passes(&cx);
    assert!(
        diags.iter().any(|d| d.lint == "stale-config"
            && d.message
                .contains("prefix `crates/gone/src/` matches no loaded file")),
        "{diags:?}"
    );
}

#[test]
fn leaked_snapshot_fails_and_all_paths_restored_passes() {
    let config = Config::from_toml("[snapshot-pairing]\nfns = [\"campaign::runner::sweep\"]\n")
        .expect("config");
    // The early return leaks `snap`: nothing consumed it on that path.
    let src = "pub fn sweep(board: &mut Board) {\n    let snap = board.snapshot();\n    if bail() {\n        return;\n    }\n    board.restore(snap);\n}\n";
    let cx = Context {
        files: vec![SourceFile::new("crates/campaign/src/runner.rs", src)],
        config: config.clone(),
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    let hit = diags
        .iter()
        .find(|d| d.lint == "snapshot-pairing")
        .expect("snapshot-pairing must fire");
    assert_eq!(hit.span.file, "crates/campaign/src/runner.rs");
    assert_eq!(hit.span.line, 2, "anchored at the binding: {hit:?}");
    assert!(
        hit.message.contains(
            "`snap` from `snapshot()` reaches the end of `campaign::runner::sweep` \
             unused on some path"
        ),
        "{hit:?}"
    );
    assert!(
        hit.help.as_deref().is_some_and(|h| {
            h.contains("every path must consume the snapshot (normally via `restore()`)")
                && h.contains("// snapshot: <reason>")
        }),
        "{hit:?}"
    );

    // Restoring before the early return repairs the tree.
    let repaired = src.replace(
        "    if bail() {\n        return;\n    }\n",
        "    if bail() {\n        board.restore(snap);\n        return;\n    }\n",
    );
    let cx = Context {
        files: vec![SourceFile::new("crates/campaign/src/runner.rs", repaired)],
        config,
        ..Context::default()
    };
    assert!(!lint_fires(&cx, "snapshot-pairing"));
}

#[test]
fn unbalanced_probe_fails_and_detach_on_every_path_passes() {
    let config = Config::from_toml(
        "[probe-balance]\n\"campaign::runner::observe\" = [\"attach_probe\", \"detach_probe\"]\n",
    )
    .expect("config");
    // The `?` exit escapes with the probe still attached.
    let src = "pub fn observe(board: &mut Board) -> Result<f64, Error> {\n    let id = board.attach_probe(probe());\n    let sample = board.measure()?;\n    board.detach_probe(id);\n    Ok(sample)\n}\n";
    let cx = Context {
        files: vec![SourceFile::new("crates/campaign/src/runner.rs", src)],
        config: config.clone(),
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    let hit = diags
        .iter()
        .find(|d| d.lint == "probe-balance")
        .expect("probe-balance must fire");
    assert_eq!(hit.span.file, "crates/campaign/src/runner.rs");
    assert_eq!(hit.span.line, 1, "anchored at the function: {hit:?}");
    assert!(
        hit.message.contains(
            "`attach_probe`/`detach_probe` can exit `campaign::runner::observe` \
             unbalanced (+1 on some path)"
        ),
        "{hit:?}"
    );
    assert!(
        hit.help.as_deref().is_some_and(|h| {
            h.contains("must pair each `attach_probe` with a `detach_probe`")
                && h.contains("// probe: <reason>")
        }),
        "{hit:?}"
    );

    // Detaching before the fallible call repairs the tree.
    let repaired = "pub fn observe(board: &mut Board) -> Result<f64, Error> {\n    let id = board.attach_probe(probe());\n    let sample = board.measure();\n    board.detach_probe(id);\n    let sample = sample?;\n    Ok(sample)\n}\n";
    let cx = Context {
        files: vec![SourceFile::new("crates/campaign/src/runner.rs", repaired)],
        config,
        ..Context::default()
    };
    assert!(!lint_fires(&cx, "probe-balance"));
}

#[test]
fn raw_dimension_mix_fails_and_typed_arithmetic_passes() {
    // No config: the dimension vocabulary is fixed at compile time.
    let src = "use dora_sim_core::units::*;\npub fn energy(t: Seconds, p: Watts) -> f64 {\n    t.value() * p.value()\n}\n";
    let cx = Context {
        files: vec![SourceFile::new("crates/modeling/src/power.rs", src)],
        ..Context::default()
    };
    assert_eq!(exit_code(&cx), 1);
    let diags = run_passes(&cx);
    let hit = diags
        .iter()
        .find(|d| d.lint == "dimensional-flow")
        .expect("dimensional-flow must fire");
    assert_eq!(hit.span.file, "crates/modeling/src/power.rs");
    assert_eq!(hit.span.line, 3, "{hit:?}");
    assert!(
        hit.message
            .contains("raw W·s product is not rebuilt as Joules"),
        "{hit:?}"
    );
    assert!(
        hit.help.as_deref().is_some_and(|h| {
            h.contains("`Watts * Seconds` is `Joules`") && h.contains("// dim: <reason>")
        }),
        "{hit:?}"
    );

    // Building the product through the typed impl repairs the tree.
    let repaired = src.replace("t.value() * p.value()", "(p * t).value()");
    let cx = Context {
        files: vec![SourceFile::new("crates/modeling/src/power.rs", repaired)],
        ..Context::default()
    };
    assert!(!lint_fires(&cx, "dimensional-flow"));
}
