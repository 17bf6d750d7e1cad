//! End-to-end tests of the `dora` binary via `std::process::Command`.

#![expect(clippy::expect_used, reason = "test code asserts invariants directly")]

use std::process::{Command, Output};

fn dora(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dora"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = dora(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let out = dora(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("dora train"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = dora(&["transmogrify"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn pages_and_kernels_list_the_catalog() {
    let pages = dora(&["pages"]);
    assert!(pages.status.success());
    let text = stdout(&pages);
    assert!(text.contains("Reddit"));
    assert!(text.contains("Aliexpress"));
    assert_eq!(text.lines().count(), 19); // header + 18 pages

    let kernels = dora(&["kernels"]);
    assert!(kernels.status.success());
    let text = stdout(&kernels);
    assert!(text.contains("backprop"));
    assert_eq!(text.lines().count(), 10); // header + 9 kernels
}

#[test]
fn profile_extracts_features_from_html() {
    let dir = std::env::temp_dir().join("dora_cli_test_profile");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("page.html");
    std::fs::write(
        &path,
        r#"<html><body><div class="a"><a href="/x">x</a></div></body></html>"#,
    )
    .expect("writable");
    let out = dora(&["profile", path.to_str().expect("utf8 path")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("X1 DOM tree nodes:    4"), "{text}");
    assert!(text.contains("X4 <a> tags:          1"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_rejects_tagless_input() {
    let dir = std::env::temp_dir().join("dora_cli_test_tagless");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("plain.html");
    std::fs::write(&path, "no markup here at all").expect("writable");
    let out = dora(&["profile", path.to_str().expect("utf8 path")]);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_requires_a_page_source() {
    let out = dora(&["predict", "/nonexistent/models.txt"]);
    assert!(!out.status.success());
}

#[test]
fn inspect_rejects_garbage_bundles() {
    let dir = std::env::temp_dir().join("dora_cli_test_garbage");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad.txt");
    std::fs::write(&path, "not a model bundle").expect("writable");
    let out = dora(&["inspect", path.to_str().expect("utf8 path")]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("parse error"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn jobs_flag_is_validated() {
    // `--jobs 0` means auto (round-tripped at the unit level in
    // args.rs); only non-integers are rejected.
    let out = dora(&["csv", "--page", "Amazon", "--jobs", "some"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--jobs expects a non-negative integer"));
}

#[test]
fn bad_numeric_flags_exit_1_naming_the_flag() {
    // Flags are validated before any file is read or any load is
    // simulated, so a missing models file cannot mask the error.
    let models = "no-such-models.txt";
    let subcommands: [&[&str]; 4] = [
        &["predict", models, "--page", "MSN"],
        &["govern", models, "--page", "MSN"],
        &["fleet", "--quick"],
        &["session"],
    ];
    let mut cases = Vec::new();
    for base in subcommands {
        for bad in ["0", "-1", "nan", "inf"] {
            cases.push((base, "--deadline", bad));
        }
    }
    for (flag, bad) in [
        ("--util", "7"),
        ("--util", "-0.5"),
        ("--mpki", "nan"),
        ("--mpki", "-1"),
    ] {
        cases.push((subcommands[0], flag, bad));
    }
    for (base, flag, bad) in cases {
        let mut argv = base.to_vec();
        argv.extend([flag, bad]);
        let out = dora(&argv);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(flag), "{argv:?}: {}", stderr(&out));
    }
}

#[test]
fn unknown_and_foreign_flags_exit_1_naming_the_flag() {
    // Flags are checked before any file is read or any load is
    // simulated, so the missing models file cannot mask the error.
    let models = "no-such-models.txt";
    let subcommands: [(&[&str], &str); 10] = [
        (&["train", "--out", "m.txt"], "--page"),
        (&["inspect", models], "--page"),
        (&["profile", "page.html"], "--jobs"),
        (&["predict", models, "--page", "MSN"], "--kernel"),
        (&["govern", models, "--page", "MSN"], "--mpki"),
        (&["csv", "--page", "Amazon"], "--deadline"),
        (&["fleet", "--quick"], "--page"),
        (&["session"], "--sessions"),
        (&["pages"], "--soc"),
        (&["kernels"], "--seed"),
    ];
    for (base, foreign) in subcommands {
        for flag in ["--deadlne", foreign] {
            let mut argv = base.to_vec();
            argv.extend([flag, "1"]);
            let out = dora(&argv);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(1), "{argv:?}: {err}");
            assert!(
                err.contains(&format!("unknown flag {flag}")),
                "{argv:?}: {err}"
            );
        }
    }
    // The message lists what the command does accept.
    let err = stderr(&dora(&[
        "govern",
        models,
        "--page",
        "MSN",
        "--deadlne",
        "0.1",
    ]));
    assert!(
        err.contains("accepted: --page") && err.contains("--deadline"),
        "{err}"
    );
}

#[test]
fn csv_with_jobs_1_matches_parallel_output() {
    // --jobs 1 is the classic sequential loop; any other width must
    // produce byte-identical CSV (the executor's determinism guarantee).
    let sequential = dora(&["csv", "--page", "Amazon", "--jobs", "1"]);
    assert!(sequential.status.success(), "{}", stderr(&sequential));
    let parallel = dora(&["csv", "--page", "Amazon", "--jobs", "4"]);
    assert!(parallel.status.success(), "{}", stderr(&parallel));
    let seq_text = stdout(&sequential);
    assert_eq!(seq_text, stdout(&parallel));
    assert!(seq_text.starts_with("workload_id,"));
    assert_eq!(seq_text.lines().count(), 4); // header + 3 intensities
}

#[test]
fn session_without_models_uses_stock_governor() {
    let out = dora(&[
        "session",
        "--pages",
        "Amazon,Reddit",
        "--governor",
        "interactive",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2-page session under interactive"), "{text}");
    assert!(text.contains("battery estimate"), "{text}");
}

#[test]
fn session_rejects_unknown_page() {
    let out = dora(&["session", "--pages", "NotARealSite"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown page"));
}

#[test]
fn full_flow_train_inspect_predict_govern() {
    let dir = std::env::temp_dir().join("dora_cli_test_flow");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let models = dir.join("models.txt");
    let models_str = models.to_str().expect("utf8 path");

    let out = dora(&["train", "--quick", "--out", models_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(models.exists());

    let out = dora(&["inspect", models_str]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("DVFS table: 14 settings"));

    let out = dora(&["predict", models_str, "--page", "Reddit", "--mpki", "8"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("fopt = "));

    // With real models too, a bad deadline is an error, not a panic.
    for cmd in ["predict", "govern"] {
        let out = dora(&[cmd, models_str, "--page", "MSN", "--deadline", "nan"]);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {}", stderr(&out));
    }

    let out = dora(&[
        "govern", models_str, "--page", "MSN", "--kernel", "backprop",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("MSN+backprop"), "{text}");
    assert!(text.contains("load time:"), "{text}");

    // The DORA session path: one governor across a whole itinerary, the
    // homogeneous search on msm8974 and the (cluster, F) search with
    // migration on biglittle-a15a7.
    for soc in ["msm8974", "biglittle-a15a7"] {
        let out = dora(&[
            "session",
            models_str,
            "--governor",
            "dora",
            "--soc",
            soc,
            "--pages",
            "Reddit,Amazon",
        ]);
        assert!(out.status.success(), "{soc}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("2-page session under DORA"), "{soc}: {text}");
        assert!(text.contains("battery estimate"), "{soc}: {text}");
    }

    let out = dora(&["csv", "--page", "Amazon", "--governor", "performance"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("workload_id,"));
    assert_eq!(text.lines().count(), 4); // header + 3 intensities

    std::fs::remove_dir_all(&dir).ok();
}
