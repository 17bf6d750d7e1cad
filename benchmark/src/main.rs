//! `dora-benchmark` — run one workload (or all of them), or compare two
//! sets of recorded runs.
//!
//! ```text
//! dora-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!                [--smoke] [--out DIR]
//! dora-benchmark compare <parent-dir> <change-dir>
//! ```
//!
//! The run length is `run_seconds` of `BENCHMARK.json`. `--seconds` is
//! accepted so callers can state it, and refused unless it equals that.
//!
//! A run prints its detail, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; it appends the same
//! record (plus the details and deterministic checks) to `DIR/runs.jsonl`
//! and, when traced, writes `DIR/<workload>.trace.json`. Exit status: 0
//! when every output was correct, 1 when a check failed (the result is
//! still printed), 2 when the run could not be made.

use dora_benchmark::harness::{Options, Outcome};
use dora_benchmark::{compare, json, probe, run_workload, spec, WORKLOADS};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: dora-benchmark --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out DIR]\n       dora-benchmark compare <parent-dir> <change-dir>";

/// Parsed command line of a run.
struct RunArgs {
    workload: String,
    opts: Options,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let spec = spec()?;
    let mut workload = None;
    let mut opts = Options {
        seed: 42,
        trace: false,
        smoke: false,
    };
    let mut out = PathBuf::from("target/benchmark");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s != spec.run_seconds {
                    return Err(format!(
                        "--seconds {s}: the run length is fixed at run_seconds = {} \
                         of BENCHMARK.json",
                        spec.run_seconds
                    ));
                }
            }
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => opts.smoke = true,
            "--out" => out = PathBuf::from(value("--out")?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunArgs {
        workload,
        opts,
        out,
    })
}

/// Appends the run record and writes the trace file.
fn record(dir: &Path, workload: &str, opts: &Options, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"inputs\": {}, \"metrics\": {}, \"details\": {}, \
         \"checks\": {}}}\n",
        json::quote(workload),
        opts.seed,
        u8::from(opts.trace),
        opts.smoke,
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        json::quote(&format!("{:016x}", outcome.inputs)),
        outcome.metrics_json(),
        outcome.details_json(),
        outcome.checks_json()
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))?
        .write_all(line.as_bytes())?;
    if let Some(trace) = &outcome.trace {
        std::fs::write(dir.join(format!("{workload}.trace.json")), trace)?;
    }
    Ok(())
}

/// Re-executes this binary once per workload, so each workload's load
/// and peak memory come from its own process.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for workload in WORKLOADS {
        let mut child_args: Vec<String> = Vec::with_capacity(args.len());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            child_args.push(a.clone());
            if a == "--workload" {
                it.next();
                child_args.push(workload.to_string());
            }
        }
        let code = match Command::new(&exe).args(&child_args).status() {
            Ok(status) => status.code().map_or(2, |c| u8::try_from(c).unwrap_or(2)),
            Err(e) => {
                eprintln!("{workload}: cannot start: {e}");
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

fn run(args: &[String]) -> ExitCode {
    let parsed = match parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if parsed.workload == "all" {
        return run_all(args);
    }
    // The workload and its host-speed probe share one CPU; unpinned, the
    // probe would time another CPU than the one the workload runs on.
    let pinned = probe::pin_to_current_cpu();
    let result = run_workload(&parsed.workload, &parsed.opts);
    probe::stop();
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", parsed.workload);
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {}{}{}: {} ops attempted, {} failed, inputs {:016x}, {}",
        parsed.workload,
        parsed.opts.seed,
        if parsed.opts.trace { " traced" } else { "" },
        if parsed.opts.smoke { " smoke" } else { "" },
        outcome.attempted,
        outcome.failed,
        outcome.inputs,
        match pinned {
            Ok(cpu) => format!("pinned to CPU {cpu}"),
            Err(e) => format!("not pinned ({e})"),
        }
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, value) in &outcome.checks {
        println!("  check {name} = {value}");
    }
    for d in &outcome.details {
        let m = &d.metric;
        println!("  detail {} = {} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.metrics {
        println!("  metric {} = {} {}", m.name, m.value, m.unit);
    }
    if let Err(e) = record(&parsed.out, &parsed.workload, &parsed.opts, &outcome) {
        eprintln!("cannot record the run under {}: {e}", parsed.out.display());
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}\nworkloads: {}", WORKLOADS.join(", "));
            ExitCode::SUCCESS
        }
        _ => run(&args),
    }
}
