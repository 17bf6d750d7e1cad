//! The lint driver's contract: running the passes concurrently must not
//! change a byte of the output. On the real repository,
//! `run_passes_timed` must report exactly what a sequential fold over
//! `registry()` reports, and time every pass in registry order.

use xtask::passes::registry;
use xtask::{apply_policy, repo_root, run_passes_timed, sort_diags, Context};

#[test]
fn parallel_driver_matches_a_sequential_registry_fold_on_the_real_repo() {
    let cx = Context::load(&repo_root()).expect("loading the repository");
    let mut sequential = Vec::new();
    let mut raw_counts = Vec::new();
    for pass in registry() {
        let raw = pass.run(&cx);
        raw_counts.push((pass.id(), raw.len()));
        sequential.extend(apply_policy(&cx.config, raw));
    }
    sort_diags(&mut sequential);

    let (diags, timings) = run_passes_timed(&cx);
    assert_eq!(diags, sequential, "parallel driver diverged");
    let counts: Vec<(&str, usize)> = timings.iter().map(|t| (t.id, t.findings)).collect();
    assert_eq!(counts, raw_counts, "per-pass ids or raw finding counts");
}
