//! `cargo run -p xtask -- <command>` — the repository's static-analysis
//! gate.
//!
//! Commands:
//!
//! * `lint [--format human|json|sarif] [--only <id,id>] [--timing]
//!   [--budget-ms <n>] [--explain <id>]` — run every registered pass
//!   over the tree (`xtask::run_passes_timed`); exit 1 when any
//!   error-severity finding survives `xtask.toml` policy, 2 on tool
//!   failure. `--timing` prints a per-pass runtime + finding-count
//!   report to stderr and writes `BENCH_lint.json` at the repo root;
//!   `--budget-ms` additionally fails the run when wall-clock exceeds
//!   the budget or any single pass exceeds its per-pass share of it (the
//!   CI runtime-regression gate). `--explain <id>` prints one pass's
//!   reference text (what it checks, config keys, justification syntax)
//!   and exits without linting.
//! * `bless-api` — regenerate the `xtask/api/<crate>.txt` public-API
//!   snapshots after an intentional surface change.
//! * `passes` — list registered lint ids and descriptions.
//!
//! Configuration lives in `xtask/xtask.toml`; see DESIGN.md §8.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::Path;
use xtask::passes::{api_surface, registry};
use xtask::{render, repo_root, run_passes_timed, Context};

const USAGE: &str = "\
usage: cargo run -p xtask -- <command>

commands:
  lint [--format human|json|sarif] [--only <id,id>] [--timing] [--budget-ms <n>]
       [--explain <id>]
        run the static-analysis passes; non-zero exit on findings
        --timing prints a per-pass runtime + finding-count report and
        writes BENCH_lint.json; --budget-ms fails the run when
        wall-clock exceeds the budget or any pass exceeds its per-pass
        share; --explain <id> prints one pass's reference text and exits
  bless-api
        regenerate xtask/api/<crate>.txt public-API snapshots
  passes
        list registered passes
";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

/// Parsed `lint` subcommand options.
struct LintArgs {
    format: Format,
    only: Option<Vec<String>>,
    timing: bool,
    budget_ms: Option<u64>,
    explain: Option<String>,
}

fn parse_lint_args(args: &[String]) -> Result<LintArgs, String> {
    let mut parsed = LintArgs {
        format: Format::Human,
        only: None,
        timing: false,
        budget_ms: None,
        explain: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                let value = args.get(i + 1).ok_or("--format needs a value")?;
                parsed.format = match value.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
                i += 2;
            }
            "--only" => {
                let value = args.get(i + 1).ok_or("--only needs a value")?;
                parsed.only = Some(value.split(',').map(str::to_string).collect::<Vec<_>>());
                i += 2;
            }
            "--timing" => {
                parsed.timing = true;
                i += 1;
            }
            "--explain" => {
                let value = args.get(i + 1).ok_or("--explain needs a lint id")?;
                parsed.explain = Some(value.clone());
                i += 2;
            }
            "--budget-ms" => {
                let value = args.get(i + 1).ok_or("--budget-ms needs a value")?;
                parsed.budget_ms = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--budget-ms: `{value}` is not a number"))?,
                );
                i += 2;
            }
            other => return Err(format!("unknown lint option `{other}`")),
        }
    }
    Ok(parsed)
}

/// Renders the `--timing` report: one line per pass (runtime and raw
/// finding count) and the wall-clock total, with the budget verdict
/// when `--budget-ms` is set. Two gates share the budget: total
/// wall-clock must stay under it, and each single pass must stay under
/// its per-pass share (budget ÷ passes run) — a pass that eats the whole
/// budget alone is a regression even while the total still fits.
fn timing_report(
    timings: &[xtask::PassTiming],
    wall: std::time::Duration,
    budget_ms: Option<u64>,
) -> (String, bool) {
    let mut out = String::from("pass timings:\n");
    for t in timings {
        out.push_str(&format!(
            "  {:<20} {:>9.3} ms {:>5} finding(s)\n",
            t.id,
            t.elapsed.as_secs_f64() * 1e3,
            t.findings
        ));
    }
    out.push_str(&format!(
        "  {:<20} {:>9.3} ms\n",
        "total (wall)",
        wall.as_secs_f64() * 1e3
    ));
    let mut over = false;
    if let Some(budget) = budget_ms {
        let wall_ms = wall.as_secs_f64() * 1e3;
        over = wall_ms > budget as f64;
        let share = budget as f64 / timings.len().max(1) as f64;
        for t in timings {
            let ms = t.elapsed.as_secs_f64() * 1e3;
            if ms > share {
                over = true;
                out.push_str(&format!(
                    "  pass {} over its per-pass share: {ms:.3} ms > {share:.1} ms\n",
                    t.id
                ));
            }
        }
        out.push_str(&format!(
            "  budget {budget} ms: {}\n",
            if over { "EXCEEDED" } else { "ok" }
        ));
    }
    (out, over)
}

#[allow(clippy::disallowed_methods)] // timing the driver: reported, never fed into results
fn lint(root: &Path, args: &[String]) -> Result<i32, String> {
    let opts = parse_lint_args(args)?;
    let LintArgs {
        format,
        only,
        timing,
        budget_ms,
        explain,
    } = opts;
    if let Some(id) = &explain {
        print!("{}", render::explain(id)?);
        return Ok(0);
    }
    if let Some(ids) = &only {
        let known: Vec<&str> = registry().iter().map(|p| p.id()).collect();
        for id in ids {
            if !known.contains(&id.as_str()) {
                return Err(format!("unknown lint id `{id}` (see `xtask passes`)"));
            }
        }
    }
    let cx = Context::load(root)?;
    let start = std::time::Instant::now();
    let (mut diags, timings) = run_passes_timed(&cx);
    let wall = start.elapsed();
    if let Some(ids) = &only {
        diags.retain(|d| ids.iter().any(|id| id == d.lint));
    }
    let mut budget_exceeded = false;
    if timing || budget_ms.is_some() {
        let (report, over) = timing_report(&timings, wall, budget_ms);
        eprint!("{report}");
        budget_exceeded = over;
    }
    if timing {
        let bench = root.join("BENCH_lint.json");
        let json = render::bench_json(cx.files.len(), wall.as_secs_f64() * 1e3, &timings);
        std::fs::write(&bench, json).map_err(|e| format!("writing {}: {e}", bench.display()))?;
        eprintln!("wrote {}", bench.display());
    }
    let (errors, warnings, notes) = render::tally(&diags);
    match format {
        Format::Human => {
            print!("{}", render::human(&diags));
            if errors == 0 {
                println!("xtask lint: clean ({warnings} warning(s), {notes} note(s))");
            } else {
                eprintln!("xtask lint: {errors} error(s), {warnings} warning(s), {notes} note(s)");
            }
        }
        Format::Json => print!("{}", render::json(&diags)),
        Format::Sarif => {
            let passes = registry();
            let rules: Vec<(&str, &str)> =
                passes.iter().map(|p| (p.id(), p.description())).collect();
            print!("{}", render::sarif(&diags, &rules));
        }
    }
    if budget_exceeded {
        eprintln!("xtask lint: pass runtime exceeded --budget-ms; see timing report above");
        return Ok(1);
    }
    Ok(i32::from(errors > 0))
}

fn bless_api(root: &Path) -> Result<i32, String> {
    let cx = Context::load(root)?;
    let api_dir = root.join("xtask").join("api");
    std::fs::create_dir_all(&api_dir)
        .map_err(|e| format!("creating {}: {e}", api_dir.display()))?;
    let surface = api_surface::extract_surface(&cx.files);
    for (crate_key, items) in &surface {
        let path = api_dir.join(format!("{crate_key}.txt"));
        let text = api_surface::render_snapshot(items);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("blessed {} ({} symbols)", path.display(), items.len());
    }
    // Remove snapshots for crates that no longer exist.
    for stale in cx.api_snapshots.keys() {
        if !surface.contains_key(stale) {
            let path = api_dir.join(format!("{stale}.txt"));
            std::fs::remove_file(&path).map_err(|e| format!("removing {}: {e}", path.display()))?;
            println!("removed stale {}", path.display());
        }
    }
    Ok(0)
}

fn passes_list() -> i32 {
    let passes = registry();
    let width = passes.iter().map(|p| p.id().len()).max().unwrap_or(0);
    for pass in &passes {
        println!("{:<width$} {}", pass.id(), pass.description());
    }
    0
}

fn dispatch() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = repo_root();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&root, &args[1..]),
        Some("bless-api") => bless_api(&root),
        Some("passes") => Ok(passes_list()),
        _ => {
            eprint!("{USAGE}");
            Ok(2)
        }
    }
}

fn main() {
    match dispatch() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("xtask: {e}");
            std::process::exit(2);
        }
    }
}
