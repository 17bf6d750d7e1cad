//! Output renderers: human text, `--format json`, `--format sarif`, and
//! the `lint --timing` perf record (`BENCH_lint.json`).
//!
//! All three are hand-rolled (the workspace carries no serialization
//! dependency) and deterministic: diagnostics arrive pre-sorted from
//! [`crate::run_passes`] and field order is fixed, so CI can diff output
//! byte-for-byte.

use crate::diag::{Diagnostic, Severity};
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

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as human-readable text, one block per finding.
pub fn human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}[{}]: {}\n  --> {}\n",
            d.severity, d.lint, d.message, d.span
        ));
        if let Some(help) = &d.help {
            out.push_str(&format!("  = help: {help}\n"));
        }
    }
    out
}

/// Renders diagnostics as a stable JSON document.
///
/// Shape: `{"version": 1, "diagnostics": [{"lint", "severity", "file",
/// "line", "column", "message", "help"}]}` with `line`/`column` 0 for
/// file/line-scoped findings and `help` null when absent.
pub fn json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let help = d
            .help
            .as_ref()
            .map_or_else(|| "null".to_string(), |h| format!("\"{}\"", json_escape(h)));
        out.push_str(&format!(
            "\n    {{\"lint\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"column\": {}, \"message\": \"{}\", \"help\": {}}}",
            json_escape(d.lint),
            d.severity,
            json_escape(&d.span.file),
            d.span.line,
            d.span.column,
            json_escape(&d.message),
            help,
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders diagnostics as a SARIF 2.1.0 log with one run.
///
/// `rules` is the full pass registry (`(id, description)` pairs) so the
/// SARIF `tool.driver.rules` table is complete even for lints with no
/// findings — CI code-scanning UIs key on it.
pub fn sarif(diags: &[Diagnostic], rules: &[(&str, &str)]) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \
         \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \
         \"name\": \"xtask-lint\",\n          \"informationUri\": \
         \"https://example.invalid/dora-repro\",\n          \"rules\": [",
    );
    for (i, (id, desc)) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            json_escape(id),
            json_escape(desc)
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rule_index = rules
            .iter()
            .position(|(id, _)| *id == d.lint)
            .map_or(-1i64, |p| p as i64);
        let mut region = String::new();
        if d.span.line > 0 {
            region.push_str(&format!(
                ",\n              \"region\": {{\"startLine\": {}",
                d.span.line
            ));
            if d.span.column > 0 {
                region.push_str(&format!(", \"startColumn\": {}", d.span.column));
            }
            region.push('}');
        }
        out.push_str(&format!(
            "\n        {{\n          \"ruleId\": \"{}\",\n          \"ruleIndex\": {},\n          \
             \"level\": \"{}\",\n          \"message\": {{\"text\": \"{}\"}},\n          \
             \"locations\": [{{\n            \"physicalLocation\": {{\n              \
             \"artifactLocation\": {{\"uri\": \"{}\"}}{}\n            }}\n          }}]\n        }}",
            json_escape(d.lint),
            rule_index,
            d.severity.as_str(),
            json_escape(&d.message),
            json_escape(&d.span.file),
            region,
        ));
    }
    out.push_str("\n      ]\n    }\n  ]\n}\n");
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

/// Counts of each severity, for the summary line and the exit code.
pub fn tally(diags: &[Diagnostic]) -> (usize, usize) {
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    (errors, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Span;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::error(
                "partial-cmp",
                Span::at("crates/campaign/src/evaluate.rs", 81, 14),
                "float ordering via `partial_cmp`",
            )
            .with_help("use f64::total_cmp"),
            Diagnostic {
                severity: Severity::Warning,
                ..Diagnostic::error("stale-config", Span::file("xtask/xtask.toml"), "stale")
            },
        ]
    }

    #[test]
    fn human_blocks_carry_span_and_help() {
        let text = human(&sample());
        assert!(text.contains("error[partial-cmp]"));
        assert!(text.contains("--> crates/campaign/src/evaluate.rs:81:14"));
        assert!(text.contains("= help: use f64::total_cmp"));
        assert!(text.contains("warning[stale-config]"));
    }

    #[test]
    fn json_escaping_and_nulls() {
        let d = vec![Diagnostic::error(
            "x",
            Span::file("a.rs"),
            "quote \" backslash \\ newline \n",
        )];
        let text = json(&d);
        assert!(text.contains("quote \\\" backslash \\\\ newline \\n"));
        assert!(text.contains("\"help\": null"));
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

    #[test]
    fn tally_counts() {
        assert_eq!(tally(&sample()), (1, 1));
    }
}
