//! The pass registry: every lint is a plugin implementing [`Pass`].
//!
//! Adding a lint (DESIGN.md §8): create a module here, implement [`Pass`]
//! over the read-only [`Context`], register it in [`registry`], and give
//! it a kebab-case id. Ids are stable — they key `[levels]` / `[allow]`
//! entries in `xtask.toml` and become SARIF rule ids in CI.

use crate::diag::Diagnostic;
use crate::Context;

pub mod api_surface;
pub mod constants;
pub mod determinism_taint;
pub mod dimensional_flow;
pub mod layering;
pub mod merge_associativity;
pub mod panic_reachability;
pub mod partial_cmp;
pub mod probe_balance;
pub mod probe_purity;
pub mod snapshot_pairing;
pub mod stale_config;
pub mod state_coverage;
pub mod sync_hygiene;
pub mod units_escape;

/// One static-analysis pass. Passes are stateless (`Send + Sync`) so
/// the driver ([`crate::run_passes_timed`]) may run them from worker
/// threads.
pub trait Pass: Send + Sync {
    /// Stable kebab-case lint id (`xtask.toml` key, SARIF rule id).
    fn id(&self) -> &'static str;
    /// One-line description, shown by `xtask passes` and in SARIF rules.
    fn description(&self) -> &'static str;
    /// Multi-line reference shown by `lint --explain <id>`: what the
    /// pass checks, its `xtask.toml` config keys, and the
    /// justification-comment syntax it honors. Required — the
    /// `stale-config` pass fails the run if any registered pass ships
    /// an empty explainer.
    fn explain(&self) -> &'static str;
    /// Runs the pass. Diagnostics are emitted at their natural severity;
    /// the driver applies `xtask.toml` levels and allowlists afterwards.
    fn run(&self, cx: &Context) -> Vec<Diagnostic>;
}

/// Every registered pass, in documentation order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(panic_reachability::PanicReachability),
        Box::new(units_escape::UnitsEscape),
        Box::new(dimensional_flow::DimensionalFlow),
        Box::new(partial_cmp::PartialCmp),
        Box::new(layering::CrateLayering),
        Box::new(determinism_taint::DeterminismTaint),
        Box::new(state_coverage::StateCoverage),
        Box::new(merge_associativity::MergeAssociativity),
        Box::new(snapshot_pairing::SnapshotPairing),
        Box::new(probe_balance::ProbeBalance),
        Box::new(stale_config::StaleConfig),
        Box::new(sync_hygiene::SyncHygiene),
        Box::new(probe_purity::ProbePurity),
        Box::new(constants::PaperConstants),
        Box::new(api_surface::ApiSurface),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn pass_ids_are_unique_kebab_case() {
        let ids: Vec<&str> = registry().iter().map(|p| p.id()).collect();
        let set: BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(ids.len(), set.len(), "duplicate pass ids: {ids:?}");
        for id in ids {
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "id `{id}` is not kebab-case"
            );
        }
    }

    #[test]
    fn every_pass_has_explain_text_mentioning_its_id() {
        for pass in registry() {
            let text = pass.explain();
            assert!(
                !text.trim().is_empty(),
                "pass `{}` has no --explain text",
                pass.id()
            );
        }
    }
}
