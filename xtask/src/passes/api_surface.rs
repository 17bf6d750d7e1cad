//! `api-surface` — each crate's `pub` surface is snapshotted in
//! `xtask/api/<crate>.txt`; undeclared additions or removals fail the
//! gate.
//!
//! The extraction is textual: every `pub` declaration (functions, types,
//! traits, consts, modules, re-exports, struct fields) is normalized to a
//! single line — signature up to the body/initializer — and the sorted
//! set per crate is compared against the committed snapshot. Refactors
//! that change a public surface must re-bless with
//! `cargo run -p xtask -- bless-api`, which makes the change visible in
//! review instead of silent.

use crate::diag::{Diagnostic, Span};
use crate::source::SourceFile;
use crate::Context;
use std::collections::BTreeMap;

/// The pass. See the module docs.
pub struct ApiSurface;

/// Where a crate's snapshot lives.
pub fn snapshot_path(crate_key: &str) -> String {
    format!("xtask/api/{crate_key}.txt")
}

/// One extracted public declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiItem {
    /// The normalized one-line signature.
    pub signature: String,
    /// File the declaration lives in.
    pub file: String,
    /// 1-based declaration line.
    pub line: usize,
}

/// Extracts the public declarations of one file's stripped source.
pub fn extract_file(file: &SourceFile) -> Vec<ApiItem> {
    let lines: Vec<&str> = file.stripped.lines().collect();
    let mut items = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim_start();
        // Attributes stack up in front of the item they decorate; a
        // wrapped attribute spans lines until its brackets balance.
        if trimmed.starts_with("#[") {
            let mut depth: i64 = 0;
            loop {
                let line = lines.get(i).copied().unwrap_or("");
                depth += line
                    .chars()
                    .map(|c| match c {
                        '[' => 1,
                        ']' => -1,
                        _ => 0,
                    })
                    .sum::<i64>();
                i += 1;
                if depth <= 0 || i >= lines.len() {
                    break;
                }
            }
            continue;
        }
        // `pub(crate)`/`pub(super)` are not public API.
        if !trimmed.starts_with("pub ") {
            i += 1;
            continue;
        }
        let start = i;
        let mut sig = String::new();
        loop {
            let line = lines.get(i).copied().unwrap_or("").trim();
            if !sig.is_empty() {
                sig.push(' ');
            }
            sig.push_str(line);
            i += 1;
            // The declaration ends at its body/initializer (`{` or `=`), at
            // a top-level `;`, or — for struct fields — at a `,` outside
            // any bracket (wrapped fn params also end lines with `,`, but
            // inside still-open parens).
            if let Some(cut) = sig.find(['{', '=']) {
                sig = sig[..cut].trim_end().to_string();
                break;
            }
            let head = sig.trim_end();
            let depth: i64 = head
                .chars()
                .map(|c| match c {
                    '(' | '[' => 1,
                    ')' | ']' => -1,
                    _ => 0,
                })
                .sum();
            if head.ends_with(';') || (depth <= 0 && head.ends_with(',')) {
                sig = head.trim_end_matches([';', ',']).trim_end().to_string();
                break;
            }
            if i >= lines.len() || i - start >= 12 {
                sig = head.to_string();
                break;
            }
        }
        let signature = sig.split_whitespace().collect::<Vec<_>>().join(" ");
        if signature != "pub" && !signature.is_empty() {
            items.push(ApiItem {
                signature,
                file: file.rel.clone(),
                line: start + 1,
            });
        }
    }
    items
}

/// The sorted public surface of a set of files, grouped by crate key.
pub fn extract_surface(files: &[SourceFile]) -> BTreeMap<String, Vec<ApiItem>> {
    let mut by_crate: BTreeMap<String, Vec<ApiItem>> = BTreeMap::new();
    for file in files {
        by_crate
            .entry(file.crate_key().to_string())
            .or_default()
            .extend(extract_file(file));
    }
    for items in by_crate.values_mut() {
        items.sort_by(|a, b| (&a.signature, &a.file, a.line).cmp(&(&b.signature, &b.file, b.line)));
    }
    by_crate
}

/// Renders one crate's surface as snapshot text (sorted, one per line).
pub fn render_snapshot(items: &[ApiItem]) -> String {
    let mut out = String::new();
    for item in items {
        out.push_str(&item.signature);
        out.push('\n');
    }
    out
}

impl super::Pass for ApiSurface {
    fn id(&self) -> &'static str {
        "api-surface"
    }

    fn description(&self) -> &'static str {
        "public API changes must be blessed into xtask/api/ snapshots"
    }

    fn explain(&self) -> &'static str {
        "Renders each crate's public API surface (pub fns, types, consts,\n\
         re-exports) from the item tree and diffs it against the blessed\n\
         snapshot in `xtask/api/<crate>.txt`. Any drift — additions,\n\
         removals, signature changes, or a missing snapshot — is an\n\
         error, so API changes are explicit, reviewed artifacts.\n\
         \n\
         Config: none; bless intentional changes with\n\
         `cargo run -p xtask -- bless-api` and commit the snapshot diff."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let bless = "review the change, then run `cargo run -p xtask -- bless-api`";
        for (crate_key, items) in extract_surface(&cx.files) {
            let snap_file = snapshot_path(&crate_key);
            let Some(snapshot) = cx.api_snapshots.get(&crate_key) else {
                out.push(
                    Diagnostic::error(
                        self.id(),
                        Span::file(&snap_file),
                        format!("no API snapshot for crate `{crate_key}`"),
                    )
                    .with_help(bless),
                );
                continue;
            };
            // Multiset diff against the snapshot lines.
            let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
            for item in &items {
                *counts.entry(item.signature.as_str()).or_default() += 1;
            }
            for line in snapshot.lines().filter(|l| !l.is_empty()) {
                *counts.entry(line).or_default() -= 1;
            }
            for (sig, n) in counts {
                if n > 0 {
                    let at = items
                        .iter()
                        .find(|i| i.signature == sig)
                        .map_or_else(|| Span::file(&snap_file), |i| Span::line(&i.file, i.line));
                    out.push(
                        Diagnostic::error(
                            self.id(),
                            at,
                            format!("undeclared public API addition in `{crate_key}`: `{sig}`"),
                        )
                        .with_help(bless),
                    );
                } else if n < 0 {
                    let at = snapshot
                        .lines()
                        .position(|l| l == sig)
                        .map_or_else(|| Span::file(&snap_file), |i| Span::line(&snap_file, i + 1));
                    out.push(
                        Diagnostic::error(
                            self.id(),
                            at,
                            format!("undeclared public API removal in `{crate_key}`: `{sig}`"),
                        )
                        .with_help(bless),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::Pass;
    use super::*;

    const FIXTURE: &str = r#"
/// Docs.
pub struct Row {
    /// A field.
    pub load_time: Seconds,
    private: u8,
}

/// A long signature that rustfmt wrapped.
pub fn evaluate(
    set: &WorkloadSet,
    policies: &[Policy],
) -> Result<Evaluation, EvaluateError> {
    todo!()
}

pub const GOVERNORS: [&str; 2] = ["a", "b"];
pub use crate::policy::Policy;

#[allow(
    clippy::too_many_arguments // a reason long enough that rustfmt wrapped it
)]
#[must_use]
pub fn helper() -> u8 {
    0
}

pub(crate) fn internal() {}

#[cfg(test)]
mod tests {
    pub fn not_api() {}
}
"#;

    fn file() -> SourceFile {
        SourceFile::new("crates/campaign/src/evaluate.rs", FIXTURE)
    }

    #[test]
    fn extraction_normalizes_and_filters() {
        let sigs: Vec<String> = extract_file(&file())
            .into_iter()
            .map(|i| i.signature)
            .collect();
        assert_eq!(
            sigs,
            vec![
                "pub struct Row",
                "pub load_time: Seconds",
                "pub fn evaluate( set: &WorkloadSet, policies: &[Policy], ) -> \
                 Result<Evaluation, EvaluateError>",
                "pub const GOVERNORS: [&str; 2]",
                "pub use crate::policy::Policy",
                "pub fn helper() -> u8",
            ]
        );
    }

    #[test]
    fn matching_snapshot_is_clean_and_drift_is_flagged() {
        let files = vec![file()];
        let surface = extract_surface(&files);
        let snapshot = render_snapshot(&surface["campaign"]);
        let mut cx = Context {
            files,
            ..Context::default()
        };
        cx.api_snapshots.insert("campaign".into(), snapshot.clone());
        assert!(ApiSurface.run(&cx).is_empty());

        // Remove a declared symbol from the snapshot → addition finding.
        let pruned: String = snapshot
            .lines()
            .filter(|l| !l.contains("GOVERNORS"))
            .map(|l| format!("{l}\n"))
            .collect();
        cx.api_snapshots.insert("campaign".into(), pruned);
        let diags = ApiSurface.run(&cx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("addition"), "{diags:?}");
        assert_eq!(diags[0].span.file, "crates/campaign/src/evaluate.rs");

        // Extra snapshot line → removal finding pointing at the snapshot.
        let padded = format!("{snapshot}pub fn gone()\n");
        cx.api_snapshots.insert("campaign".into(), padded);
        let diags = ApiSurface.run(&cx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("removal"), "{diags:?}");
        assert_eq!(diags[0].span.file, "xtask/api/campaign.txt");
    }

    #[test]
    fn missing_snapshot_is_a_finding() {
        let cx = Context {
            files: vec![file()],
            ..Context::default()
        };
        let diags = ApiSurface.run(&cx);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("no API snapshot"));
    }
}
