//! `units-escape` — raw `f64`s must not carry dimensioned quantities
//! through public APIs; typed quantities from `dora_sim_core::units`
//! carry the unit instead.
//!
//! Two name rules over the item tree:
//!
//! 1. **Fields** (every file): a `pub foo_mhz: f64`-style struct field
//!    leaks a raw unit-suffixed scalar. Crates still mid-burn-down are
//!    allowlisted under `[allow] units-escape` in `xtask.toml`; they
//!    lie outside the boundary below, so the allowlist cannot loosen
//!    rule 2.
//! 2. **Signatures** (`[units-escape] boundary_paths`, the `soc` /
//!    `governors` / `modeling` / `sim-core` sources): a `pub fn` taking
//!    an `f64` parameter whose name carries a raw unit suffix
//!    (`freq_mhz`, `dt_s`, …), or returning `f64` while itself being
//!    unit-suffix-named, is leaking a dimensioned quantity untyped.
//!
//! `_per_` compound names (e.g. `resistance_k_per_w`) describe a ratio
//! whose unit is the name and are exempt everywhere. The unit newtypes
//! themselves (declared in `[units-escape] unit_types`, since the types
//! are macro-generated and invisible to item extraction) may speak
//! scalar: their impls are exempt from rule 2. Raw values leave a unit
//! type only through `value()` and the `Frequency` accessors, which
//! clippy bans outside `#[expect(clippy::disallowed_methods, reason)]`
//! scopes (`clippy.toml`); the newtype fields are private, so a `.0`
//! projection cannot happen outside the type's own module.

use crate::diag::{Diagnostic, Span};
use crate::items::Vis;
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
         in the type, not the name. Inside the typed-units boundary\n\
         crates, public functions must not take a unit-suffixed `f64`\n\
         parameter or return `f64` under a unit-suffixed name; impls on\n\
         the unit newtypes themselves are exempt.\n\
         \n\
         Config (`xtask.toml`):\n\
           [units-escape]\n\
           boundary_paths = [\"crates/soc/\"]       # path prefixes audited\n\
           unit_types = [\"Seconds\", \"Watts\", …]  # the newtype vocabulary\n\
         Escape: the `[allow] units-escape` path-prefix allowlist, for\n\
         crates outside the boundary (CLI args, exports) whose fields\n\
         must speak raw scalars. Raw projections out of a unit type\n\
         (`value()`, `Frequency::as_ghz()`, …) are clippy's\n\
         `disallowed_methods`, not this pass's."
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
        let is_unit_ty = |ty: &Option<String>| {
            ty.as_deref()
                .is_some_and(|t| cx.config.unit_types.iter().any(|u| u == t))
        };
        let in_boundary = |file: &&SourceFile| {
            cx.config
                .units_boundary_paths
                .iter()
                .any(|p| file.rel.starts_with(p.as_str()))
        };
        for file in cx.files.iter().filter(in_boundary) {
            for item in &file.items.fns {
                if item.in_test || item.vis != Vis::Pub || is_unit_ty(&item.self_ty) {
                    continue;
                }
                let span = || Span::line(&file.rel, item.line);
                let qual = item.qual.as_str();
                // Rule 2a: unit-suffixed f64 parameters.
                for (pname, pty) in &item.params {
                    if is_f64(pty) && has_unit_suffix(pname) {
                        out.push(
                            Diagnostic::error(
                                self.id(),
                                span(),
                                format!(
                                    "`{qual}` takes raw `{pname}: f64` across the typed-units \
                                     boundary"
                                ),
                            )
                            .with_help("take a dora_sim_core::units newtype instead"),
                        );
                    }
                }
                // Rule 2b: unit-suffixed fn returning raw f64.
                if is_f64(&item.ret) && has_unit_suffix(&item.name) {
                    out.push(
                        Diagnostic::error(
                            self.id(),
                            span(),
                            format!("`{qual}` returns a raw unit-suffixed `f64`"),
                        )
                        .with_help("return a dora_sim_core::units newtype instead"),
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
    fn projections_are_left_to_clippy() {
        // `value()` out of a unit type is clippy's `disallowed_methods`;
        // the pass reads names only.
        let src = "pub fn report(dt: Seconds) -> f64 {\n    dt.value()\n}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn unit_type_impls_are_exempt_and_comments_are_not() {
        let src = "impl Frequency {\n    pub fn as_mhz(&self) -> f64 {\n        self.0\n    }\n}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
        let src =
            "// units: scalar column by design.\npub fn width_ms(&self) -> f64 {\n    3.0\n}\n";
        assert_eq!(run(src).len(), 1);
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
