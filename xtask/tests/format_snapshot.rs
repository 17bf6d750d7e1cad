//! Snapshot tests pinning the `lint --explain` page layout.

use xtask::render;

/// `lint --explain <id>` output: the one-line header (`id — description`)
/// followed by the pass's long-form explanation. Pinned in full for one
/// pass so the rendering contract can't drift silently.
#[test]
fn explain_output_is_stable() {
    let expected = "partial-cmp — float ordering must use f64::total_cmp, not partial_cmp\n\n\
Flags `partial_cmp` on floats in library code: a NaN anywhere in\n\
the data turns `partial_cmp(..).unwrap()` into a panic and\n\
sort-by-partial_cmp into an inconsistent order. Use\n\
`f64::total_cmp`, which is a total order over every bit pattern\n\
and keeps campaign reductions deterministic.\n\
\n\
Config: none of its own; the generic `[allow]` policy applies.\n";
    assert_eq!(render::explain("partial-cmp").expect("known id"), expected);
}

/// Every registered pass explains itself, and the text names its own
/// lint id's justification marker or config table where one exists —
/// `--explain` must never print an empty or placeholder page.
#[test]
fn every_pass_has_substantive_explain_text() {
    for pass in xtask::passes::registry() {
        let page = render::explain(pass.id()).expect("registered id");
        assert!(
            page.starts_with(&format!("{} — ", pass.id())),
            "header missing for {}: {page:?}",
            pass.id()
        );
        assert!(
            page.trim().lines().count() >= 3,
            "explain page for {} is too thin:\n{page}",
            pass.id()
        );
    }
}

/// Unknown ids produce an error that lists every known id, so a typo'd
/// `--explain` invocation is self-correcting.
#[test]
fn explain_rejects_unknown_ids_listing_known_ones() {
    let err = render::explain("no-such-lint").expect_err("must reject");
    assert!(err.contains("unknown lint id `no-such-lint`"), "{err}");
    for id in ["units-escape", "partial-cmp", "stale-config"] {
        assert!(err.contains(id), "known-id list missing {id}: {err}");
    }
}
