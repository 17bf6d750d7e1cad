//! `units-escape` — raw `f64`s must not carry dimensioned quantities
//! through public APIs; typed quantities from `dora_sim_core::units`
//! carry the unit instead.
//!
//! Three rules over the item tree and call graph:
//!
//! 1. **Fields** (every file): a `pub foo_mhz: f64`-style struct field
//!    leaks a raw unit-suffixed scalar. Crates still mid-burn-down are
//!    allowlisted under `[allow] units-escape` in `xtask.toml`; they
//!    lie outside the boundary below, so the allowlist cannot loosen
//!    rules 2 and 3.
//! 2. **Signatures** (`[units-escape] boundary_paths`, the `soc` /
//!    `governors` / `modeling` / `sim-core` sources): a `pub fn` taking
//!    an `f64` parameter whose name carries a raw unit suffix
//!    (`freq_mhz`, `dt_s`, …), or returning `f64` while itself being
//!    unit-suffix-named, is leaking a dimensioned quantity untyped.
//! 3. **Dataflow** (same boundary): a function projecting a raw value
//!    out of a unit newtype (`.value()` / `.0` / `as_mhz()`-style
//!    accessors) and returning `f64` is a *leak*; any `pub fn` returning
//!    `f64` that reaches a leak through the call graph is flagged, with
//!    the chain.
//!
//! `_per_` compound names (e.g. `resistance_k_per_w`) describe a ratio
//! whose unit is the name and are exempt everywhere. The unit newtypes
//! themselves (declared in `[units-escape] unit_types`, since the types
//! are macro-generated and invisible to item extraction) are the
//! sanctioned escape hatch for rules 2 and 3: their impls are exempt,
//! and a `// units:` justification comment on the declaration (or the
//! line above) exempts an individual function — e.g. an FFI-ish
//! boundary that genuinely must speak scalar.

use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, Span};
use crate::items::Vis;
use crate::lex::TokenKind;
use crate::source::SourceFile;
use crate::Context;

/// The pass. See the module docs.
pub struct UnitsEscape;

/// Raw unit suffixes that name a dimensioned quantity; `_per_`
/// compound names are ratios and exempt.
pub const BANNED_SUFFIXES: [&str; 14] = [
    "_mhz", "_ghz", "_khz", "_hz", "_ms", "_ns", "_us", "_s", "_mw", "_w", "_j", "_c", "_k",
    "_mpki",
];

/// Whether `name` carries a banned raw unit suffix.
pub fn has_unit_suffix(name: &str) -> bool {
    !name.contains("_per_") && BANNED_SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// Public `f64` struct fields whose names end in a raw unit suffix, as
/// `(1-based line, field name)`.
pub fn suffixed_fields(file: &SourceFile) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for s in file.items.structs.iter().filter(|s| !s.in_test) {
        for field in &s.fields {
            if field.vis == Vis::Pub && field.ty == "f64" && has_unit_suffix(&field.name) {
                found.push((field.line, field.name.clone()));
            }
        }
    }
    found
}

fn is_f64(ty: &str) -> bool {
    matches!(ty.trim_start_matches('&'), "f64" | "mut f64")
}

/// Whether the declaration at `line` (1-based) carries a `// units:`
/// justification — trailing on the line or in the comment block above.
fn justified(text: &str, line: usize) -> bool {
    let lines: Vec<&str> = text.lines().collect();
    let mut i = line.saturating_sub(1);
    if lines
        .get(i)
        .and_then(|l| l.find("//").map(|idx| &l[idx..]))
        .is_some_and(|c| c.contains("units:"))
    {
        return true;
    }
    while i > 0 {
        let above = lines.get(i - 1).map_or("", |l| l.trim_start());
        if above.starts_with("//") || above.starts_with("#[") {
            if above.contains("units:") {
                return true;
            }
            i -= 1;
        } else {
            break;
        }
    }
    false
}

impl super::Pass for UnitsEscape {
    fn id(&self) -> &'static str {
        "units-escape"
    }

    fn description(&self) -> &'static str {
        "public f64 fields and physics-crate signatures must not carry raw unit-suffixed scalars"
    }

    fn explain(&self) -> &'static str {
        "Flags public `f64` struct fields whose names carry a raw unit\n\
         suffix (`_s`, `_ms`, `_mhz`, …) in every crate: the unit belongs\n\
         in the type, not the name. Then audits declarations in the\n\
         typed-units boundary crates: public\n\
         functions there must not take or return raw `f64` where a\n\
         `dora_sim_core::units` newtype exists, and unit-newtype methods\n\
         must not hand the raw scalar back out except through the\n\
         sanctioned accessors.\n\
         \n\
         Config (`xtask.toml`):\n\
           [units-escape]\n\
           boundary_paths = [\"crates/soc/\"]       # path prefixes audited\n\
           unit_types = [\"Seconds\", \"Watts\", …]  # the newtype vocabulary\n\
         Justification (signatures): `// units: <reason>` on the\n\
         declaration line or in the comment block directly above it. Use\n\
         the `[allow] units-escape` path-prefix allowlist for crates\n\
         outside the boundary (CLI args, exports) whose fields must speak\n\
         raw scalars."
    }

    fn run(&self, cx: &Context) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in &cx.files {
            for (line, name) in suffixed_fields(file) {
                out.push(
                    Diagnostic::error(
                        self.id(),
                        Span::line(&file.rel, line),
                        format!("public field `{name}: f64` carries a raw unit suffix"),
                    )
                    .with_help("use a typed quantity from dora_sim_core::units instead"),
                );
            }
        }
        let boundary = |rel: &str| {
            cx.config
                .units_boundary_paths
                .iter()
                .any(|p| rel.starts_with(p.as_str()))
        };
        if cx.config.units_boundary_paths.is_empty() {
            return out;
        }
        let graph = CallGraph::build(cx);
        let is_unit_ty = |ty: &Option<String>| {
            ty.as_deref()
                .is_some_and(|t| cx.config.unit_types.iter().any(|u| u == t))
        };

        // Leak set: functions whose bodies project a raw scalar out of a
        // unit type and return f64.
        let leak_methods: Vec<String> = std::iter::once("value".to_string())
            .chain(BANNED_SUFFIXES.iter().map(|s| format!("as{s}")))
            .collect();
        let mut leaks: Vec<usize> = Vec::new();
        for (idx, node) in graph.nodes.iter().enumerate() {
            if node.item.in_test || !is_f64(&node.item.ret) || is_unit_ty(&node.item.self_ty) {
                continue;
            }
            let Some((body_lo, body_hi)) = node.item.body else {
                continue;
            };
            let file = &cx.files[node.file];
            let src = file.text.as_str();
            let code: Vec<usize> = (body_lo..body_hi.min(file.tokens.len()))
                .filter(|&i| !file.tokens[i].kind.is_trivia())
                .collect();
            let projects = code.iter().enumerate().any(|(pos, &i)| {
                let tok = &file.tokens[i];
                let prev_dot = pos > 0
                    && code.get(pos - 1).is_some_and(|&j| {
                        file.tokens[j].kind == TokenKind::Punct && file.tokens[j].text(src) == "."
                    });
                if !prev_dot {
                    return false;
                }
                match tok.kind {
                    // `.0` tuple projection.
                    TokenKind::Int => tok.text(src) == "0",
                    TokenKind::Ident => leak_methods.iter().any(|m| m == tok.text(src)),
                    _ => false,
                }
            });
            if projects {
                leaks.push(idx);
            }
        }
        let leak_reach = graph.backward(&leaks);

        for (idx, node) in graph.nodes.iter().enumerate() {
            if node.item.in_test
                || node.item.vis != Vis::Pub
                || !boundary(&node.rel)
                || is_unit_ty(&node.item.self_ty)
            {
                continue;
            }
            let file = &cx.files[node.file];
            if justified(&file.text, node.item.line) {
                continue;
            }
            let qual = node.item.qual.as_str();
            // Rule 2a: unit-suffixed f64 parameters.
            for (pname, pty) in &node.item.params {
                if is_f64(pty) && has_unit_suffix(pname) {
                    out.push(
                        Diagnostic::error(
                            self.id(),
                            Span::line(&node.rel, node.item.line),
                            format!(
                                "`{qual}` takes raw `{pname}: f64` across the typed-units \
                                 boundary"
                            ),
                        )
                        .with_help(
                            "take a dora_sim_core::units newtype instead, or justify with \
                             a `// units:` comment",
                        ),
                    );
                }
            }
            // Rule 2b: unit-suffixed fn returning raw f64.
            if is_f64(&node.item.ret) && has_unit_suffix(&node.item.name) {
                out.push(
                    Diagnostic::error(
                        self.id(),
                        Span::line(&node.rel, node.item.line),
                        format!("`{qual}` returns a raw unit-suffixed `f64`"),
                    )
                    .with_help(
                        "return a dora_sim_core::units newtype instead, or justify with a \
                         `// units:` comment",
                    ),
                );
                continue;
            }
            // Rule 3: pub f64-returning fn reaching a projection leak.
            if is_f64(&node.item.ret) && leak_reach.contains(idx) {
                let chain = leak_reach
                    .path_to(idx)
                    .map(|mut p| {
                        p.reverse();
                        graph.render_path(&p)
                    })
                    .unwrap_or_else(|| qual.to_string());
                out.push(
                    Diagnostic::error(
                        self.id(),
                        Span::line(&node.rel, node.item.line),
                        format!(
                            "`{qual}` returns `f64` unwrapped from a unit newtype \
                             (projection chain: `{chain}`)"
                        ),
                    )
                    .with_help(
                        "return the unit newtype itself, or justify the scalar boundary \
                         with a `// units:` comment",
                    ),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::Pass;
    use super::*;
    use crate::source::SourceFile;
    use crate::Config;

    fn config() -> Config {
        Config::from_toml(
            "[units-escape]\nboundary_paths = [\"crates/soc/\"]\nunit_types = [\"Seconds\", \"Frequency\"]\n",
        )
        .expect("config")
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        let cx = Context {
            files: vec![SourceFile::new("crates/soc/src/power.rs", src)],
            config: config(),
            ..Context::default()
        };
        UnitsEscape.run(&cx)
    }

    const FIELD_FIXTURE: &str = r#"
/// A result row.
pub struct Row {
    /// Core clock in megahertz.
    pub freq_mhz: f64,
    /// A ratio, exempt.
    pub joules_per_s: f64,
    /// Typed, fine.
    pub load_time: Seconds,
}
"#;

    #[test]
    fn public_mhz_field_is_flagged() {
        let found = suffixed_fields(&SourceFile::new("crates/x/src/lib.rs", FIELD_FIXTURE));
        assert_eq!(found, vec![(5, "freq_mhz".to_string())]);
    }

    #[test]
    fn suffixed_non_f64_and_private_fields_pass() {
        let src = "pub struct S {\n    pub t: Seconds,\n    load_s: f64,\n    pub f_hz: u64,\n}\n";
        assert!(suffixed_fields(&SourceFile::new("crates/x/src/lib.rs", src)).is_empty());
    }

    #[test]
    fn field_rule_runs_outside_the_boundary_with_a_spanned_diagnostic() {
        let cx = Context {
            files: vec![SourceFile::new("crates/x/src/lib.rs", FIELD_FIXTURE)],
            config: config(),
            ..Context::default()
        };
        let diags = UnitsEscape.run(&cx);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].span, Span::line("crates/x/src/lib.rs", 5));
        assert!(diags[0].message.contains("freq_mhz"));
        // No boundary configured at all: the field rule still runs.
        let cx = Context {
            files: vec![SourceFile::new("crates/x/src/lib.rs", FIELD_FIXTURE)],
            ..Context::default()
        };
        assert_eq!(UnitsEscape.run(&cx).len(), 1);
    }

    #[test]
    fn suffixed_f64_param_is_flagged() {
        let diags = run("pub fn dynamic(freq_mhz: f64) -> Watts {\n    Watts::new(freq_mhz)\n}\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("freq_mhz"), "{diags:?}");
    }

    #[test]
    fn suffixed_f64_return_is_flagged() {
        let diags = run("pub fn latency_ms(&self) -> f64 {\n    3.0\n}\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("latency_ms"), "{diags:?}");
    }

    #[test]
    fn projection_leak_propagates_through_the_call_graph() {
        let src = "pub fn report(dt: Seconds) -> f64 {\n    raw(dt)\n}\nfn raw(dt: Seconds) -> f64 {\n    dt.value()\n}\n";
        let diags = run(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("soc::power::report"), "{diags:?}");
        assert!(
            diags[0]
                .message
                .contains("soc::power::report -> soc::power::raw"),
            "{diags:?}"
        );
    }

    #[test]
    fn unit_type_impls_and_justified_fns_are_exempt() {
        let src = "impl Frequency {\n    pub fn as_mhz(&self) -> f64 {\n        self.0\n    }\n}\n\n/// For CSV export. units: scalar column by design.\npub fn column(dt: Seconds) -> f64 {\n    dt.value()\n}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn ratio_names_and_dimensionless_returns_pass() {
        let src = "pub fn joules_per_s(e: Joules, t: Seconds) -> f64 {\n    ratio(e, t)\n}\nfn ratio(e: Joules, t: Seconds) -> f64 {\n    2.0\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn outside_boundary_paths_is_out_of_scope() {
        let cx = Context {
            files: vec![SourceFile::new(
                "crates/cli/src/render.rs",
                "pub fn width_ms(t: Seconds) -> f64 {\n    t.value()\n}\n",
            )],
            config: config(),
            ..Context::default()
        };
        assert!(UnitsEscape.run(&cx).is_empty());
    }
}
