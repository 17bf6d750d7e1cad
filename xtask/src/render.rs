//! Output renderers: human text, `lint --explain` pages, and the
//! `lint --timing` perf record (`BENCH_lint.json`).
//!
//! All are hand-rolled (the workspace carries no serialization
//! dependency) and deterministic: diagnostics arrive pre-sorted from
//! [`crate::run_passes`] and field order is fixed.

use crate::diag::Diagnostic;
use crate::PassTiming;

/// Renders `lint --explain <id>`: the pass's one-line description as a
/// header, then its multi-line reference text.
///
/// # Errors
///
/// When `id` names no registered pass (the message lists valid ids).
pub fn explain(id: &str) -> Result<String, String> {
    let passes = crate::passes::registry();
    let Some(pass) = passes.iter().find(|p| p.id() == id) else {
        let known: Vec<&str> = passes.iter().map(|p| p.id()).collect();
        return Err(format!(
            "unknown lint id `{id}` (known: {})",
            known.join(", ")
        ));
    };
    Ok(format!(
        "{id} — {}\n\n{}\n",
        pass.description(),
        pass.explain()
    ))
}

/// Renders diagnostics as human-readable text, one block per finding.
pub fn human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "error[{}]: {}\n  --> {}\n",
            d.lint, d.message, d.span
        ));
        if let Some(help) = &d.help {
            out.push_str(&format!("  = help: {help}\n"));
        }
    }
    out
}

/// Renders the `BENCH_lint.json` perf-trajectory record of one run:
/// file count, caller-measured wall-clock total, and each pass's runtime
/// and raw (pre-policy) finding count in registry order.
pub fn bench_json(files: usize, total_ms: f64, timings: &[PassTiming]) -> String {
    let passes: Vec<String> = timings
        .iter()
        .map(|t| {
            format!(
                "{{\"id\": \"{}\", \"ms\": {:.3}, \"findings\": {}}}",
                t.id,
                t.elapsed.as_secs_f64() * 1e3,
                t.findings
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": \"xtask-lint\",\n  \"files\": {files},\n  \"total_ms\": \
         {total_ms:.3},\n  \"passes\": [{}]\n}}\n",
        passes.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Span;

    #[test]
    fn human_blocks_carry_span_and_help() {
        let text = human(&[
            Diagnostic::error(
                "partial-cmp",
                Span::at("crates/campaign/src/evaluate.rs", 81, 14),
                "float ordering via `partial_cmp`",
            )
            .with_help("use f64::total_cmp"),
            Diagnostic::error("stale-config", Span::file("xtask/xtask.toml"), "stale"),
        ]);
        assert!(text.contains("error[partial-cmp]"));
        assert!(text.contains("--> crates/campaign/src/evaluate.rs:81:14"));
        assert!(text.contains("= help: use f64::total_cmp"));
        assert!(text.contains("error[stale-config]: stale\n  --> xtask/xtask.toml\n"));
    }

    #[test]
    fn bench_record_carries_pass_shape() {
        let timings = [PassTiming {
            id: "partial-cmp",
            elapsed: std::time::Duration::from_micros(1500),
            findings: 3,
        }];
        assert_eq!(
            bench_json(2, 12.5, &timings),
            "{\n  \"workload\": \"xtask-lint\",\n  \"files\": 2,\n  \"total_ms\": 12.500,\n  \
             \"passes\": [{\"id\": \"partial-cmp\", \"ms\": 1.500, \"findings\": 3}]\n}\n"
        );
    }
}
