//! The repository's static-analysis framework, behind
//! `cargo run -p xtask -- lint`.
//!
//! Architecture (DESIGN.md §8, §12):
//!
//! * [`diag`] — the [`Diagnostic`] model: lint id, file/line/column
//!   [`Span`], message, help.
//! * [`lex`] / [`items`] — the dependency-free syntax layer: a full
//!   Rust lexer with byte-exact spans, and an item tree (functions,
//!   consts, structs) extracted from the token stream.
//! * [`source`] / [`workspace`] — source loading (each file carries its
//!   tokens, items and a column-preserving stripped view) and the crate
//!   dependency graph.
//! * [`config`] — `xtask.toml`: per-lint allowlists, the crate layer
//!   order, constants modules, units-boundary paths. Panic sanctions,
//!   the raw-unit accessor ban and the hash-collection and clock bans
//!   are clippy's (`#[expect(…, reason)]`, `clippy.toml`).
//! * [`passes`] — the [`Pass`] trait and registry. Each lint is a plugin
//!   over a shared read-only [`Context`].
//! * [`render`] — the human report, `--explain` pages and the
//!   `BENCH_lint.json` record.
//!
//! Every pass is pure over the [`Context`], so fixtures test them without
//! touching the filesystem; only [`Context::load`] and the `bless-api`
//! command do I/O. [`run_passes_timed`] is the one driver: every pass
//! over the whole tree, the passes spread over scoped worker threads.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod diag;
pub mod items;
pub mod lex;
pub mod passes;
pub mod render;
pub mod source;
pub mod toml;
pub mod workspace;

pub use config::Config;
pub use diag::{Diagnostic, Span};
pub use passes::Pass;
pub use source::SourceFile;
pub use workspace::Manifest;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Everything the passes see: loaded library sources, workspace
/// manifests, API snapshots, and the parsed `xtask.toml`.
///
/// Fields are public so tests can assemble synthetic contexts.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// Library source files (each crate's `src/`, the root `src/`, and
    /// `xtask/src/`), sorted by path.
    pub files: Vec<SourceFile>,
    /// Workspace package manifests (root, `crates/*`, `xtask`).
    pub manifests: Vec<Manifest>,
    /// Public-API snapshots: crate key → `xtask/api/<key>.txt` contents.
    pub api_snapshots: BTreeMap<String, String>,
    /// Parsed `xtask.toml`.
    pub config: Config,
}

/// The repository root, derived from this crate's manifest directory.
pub fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
        .replace('\\', "/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

impl Context {
    /// Loads the real repository at `root`.
    ///
    /// # Errors
    ///
    /// On unreadable files or an invalid `xtask.toml`.
    pub fn load(root: &Path) -> Result<Self, String> {
        let config = Config::from_toml(&read(&root.join("xtask").join("xtask.toml"))?)?;

        // Library sources: each crate's `src/`, the workspace root `src/`,
        // and xtask's own `src/`. Tests, benches and examples live outside
        // these directories and are intentionally not scanned.
        let mut paths = Vec::new();
        let crates = root.join("crates");
        let entries =
            std::fs::read_dir(&crates).map_err(|e| format!("reading {}: {e}", crates.display()))?;
        let mut crate_dirs: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("reading {}: {e}", crates.display()))?;
            crate_dirs.push(entry.path());
        }
        crate_dirs.sort();
        for dir in &crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut paths)?;
            }
        }
        collect_rs_files(&root.join("src"), &mut paths)?;
        collect_rs_files(&root.join("xtask").join("src"), &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for path in &paths {
            files.push(SourceFile::new(rel(root, path), read(path)?));
        }

        // Manifests: the root package, every crate, and xtask.
        let mut manifests = Vec::new();
        let mut manifest_paths = vec![root.join("Cargo.toml"), root.join("xtask/Cargo.toml")];
        for dir in &crate_dirs {
            manifest_paths.push(dir.join("Cargo.toml"));
        }
        for path in &manifest_paths {
            if !path.is_file() {
                continue;
            }
            if let Some(m) = workspace::parse_manifest(&rel(root, path), &read(path)?) {
                manifests.push(m);
            }
        }

        // API snapshots (absent files surface as missing-snapshot
        // findings, not load errors).
        let mut api_snapshots = BTreeMap::new();
        let api_dir = root.join("xtask").join("api");
        if api_dir.is_dir() {
            let entries = std::fs::read_dir(&api_dir)
                .map_err(|e| format!("reading {}: {e}", api_dir.display()))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("reading {}: {e}", api_dir.display()))?;
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "txt") {
                    let key = path
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    api_snapshots.insert(key, read(&path)?);
                }
            }
        }

        Ok(Context {
            files,
            manifests,
            api_snapshots,
            config,
        })
    }
}

/// Runs every registered pass over the context and applies `xtask.toml`
/// policy: per-lint/per-file allowlists drop findings.
///
/// The returned list is sorted by span then lint id, so output is
/// deterministic regardless of pass order.
pub fn run_passes(cx: &Context) -> Vec<Diagnostic> {
    run_passes_timed(cx).0
}

/// One pass's cost and yield, as reported by `lint --timing`.
#[derive(Debug, Clone)]
pub struct PassTiming {
    /// The pass's stable lint id.
    pub id: &'static str,
    /// How long its `run` took over the whole tree.
    pub elapsed: std::time::Duration,
    /// How many findings it raised before `xtask.toml` policy.
    pub findings: usize,
}

/// [`run_passes`], also returning per-pass timings in registry order.
/// Backs `lint --timing` and the CI `--budget-ms` runtime-regression
/// gate. Passes run concurrently on scoped worker threads; findings are
/// reassembled in registry order and sorted, so the output does not
/// depend on scheduling.
pub fn run_passes_timed(cx: &Context) -> (Vec<Diagnostic>, Vec<PassTiming>) {
    let passes = passes::registry();
    let results = parallel_map(passes.len(), |i| {
        #[expect(
            clippy::disallowed_types,
            reason = "timing the driver: durations are reported, never fed into results"
        )]
        let start = std::time::Instant::now();
        let raw = passes[i].run(cx);
        (raw, start.elapsed())
    });
    let mut out = Vec::new();
    let mut timings = Vec::new();
    for (pass, (raw, elapsed)) in passes.iter().zip(results) {
        timings.push(PassTiming {
            id: pass.id(),
            elapsed,
            findings: raw.len(),
        });
        out.extend(apply_policy(&cx.config, raw));
    }
    sort_diags(&mut out);
    (out, timings)
}

/// Runs `work` over `0..n` on a fixed pool of scoped worker threads
/// (at most one per CPU, capped at 8) and returns the results in index
/// order. A panicking worker's panic is resumed on the caller.
fn parallel_map<R, F>(n: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .clamp(1, 8)
        .min(n.max(1));
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::SeqCst);
                        if i >= n {
                            break local;
                        }
                        local.push((i, work(i)));
                    }
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            match h.join() {
                Ok(v) => all.extend(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Applies `xtask.toml` policy to one pass's raw findings: per-lint/
/// per-file allowlists drop findings.
pub fn apply_policy(config: &Config, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    raw.into_iter()
        .filter(|d| !config.is_allowed(d.lint, &d.span.file))
        .collect()
}

/// The canonical diagnostic order: span, then lint id. The driver sorts
/// with this so output is identical regardless of pass or worker order.
pub fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (&a.span, a.lint).cmp(&(&b.span, b.lint)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let out = parallel_map(100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn parallel_map_resumes_worker_panics() {
        parallel_map(4, |i| {
            assert!(i != 2, "boom");
            i
        });
    }
}
