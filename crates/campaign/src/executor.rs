//! Deterministic fan-out of independent scenario runs.
//!
//! Campaign work — the 54×|policies| evaluation grid, the per-workload
//! oracle sweeps, the 588-run training campaign — is embarrassingly
//! parallel: every scenario builds its own [`Board`](dora_soc::board::Board)
//! from `(config, seed)` and shares no mutable state with any other run.
//! [`Executor::map`] exploits that with a scoped thread pool while
//! keeping the output *bit-identical* to the sequential loop:
//!
//! * each input item is tagged with its index before being handed to a
//!   worker, and outputs are reassembled in index order, so callers see
//!   exactly the `Vec` a `for` loop would have produced;
//! * the closure runs once per item no matter how work is interleaved,
//!   and the simulation itself is seeded, so thread scheduling cannot
//!   leak into results.
//!
//! With `jobs == 1` the executor does not spawn at all — it *is* the
//! sequential loop, byte for byte and allocation for allocation.
//!
//! Fallible work returns `Result`s through [`Executor::map`] and the
//! caller collects them, so the first error in input order is the one
//! reported. DESIGN.md §9 gives the concurrency argument.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// How many worker threads a campaign may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker: the classic in-order loop (what `--jobs 1` selects).
    Sequential,
    /// One worker per available core (what `--jobs` defaults to; also
    /// what `--jobs 0` requests).
    #[default]
    Auto,
    /// Exactly this many workers (`--jobs N`).
    Fixed(usize),
}

impl Parallelism {
    /// Resolves to a concrete worker count on this machine.
    pub fn jobs(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Parallelism::Fixed(n) => n.max(1),
        }
    }
}

/// A fixed-width scenario fan-out engine.
///
/// Cheap to copy and pass by reference through campaign entry points;
/// construct once (typically from a `--jobs` flag) and reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::auto()
    }
}

impl Executor {
    /// An executor with the given parallelism.
    pub fn new(parallelism: Parallelism) -> Self {
        Executor {
            jobs: parallelism.jobs(),
        }
    }

    /// The single-threaded executor: reproduces the sequential loop
    /// exactly.
    pub fn sequential() -> Self {
        Executor::new(Parallelism::Sequential)
    }

    /// One worker per available core.
    pub fn auto() -> Self {
        Executor::new(Parallelism::Auto)
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item and returns the results **in input
    /// order**, regardless of which worker ran which item.
    ///
    /// Work is distributed through a shared atomic cursor, so uneven item
    /// costs (a 60 s timeout next to a 1 s load) still balance. Workers
    /// accumulate `(index, result)` pairs locally and the pairs are
    /// merged after the join, so the steady state takes no lock at all.
    /// A panic in `f` propagates to the caller once all workers have
    /// stopped.
    #[expect(
        clippy::expect_used,
        reason = "the cursor hands out each index exactly once"
    )]
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }

        let cursor = AtomicUsize::new(0);
        let batches: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            // ordering: the cursor is a pure claim ticket —
                            // the fetch_add's atomicity alone guarantees each
                            // index is handed out once; no other memory is
                            // published through it.
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            if idx >= items.len() {
                                break;
                            }
                            local.push((idx, f(&items[idx])));
                        }
                        local
                    })
                })
                .collect();
            let mut batches = Vec::with_capacity(workers);
            for handle in handles {
                match handle.join() {
                    Ok(local) => batches.push(local),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            batches
        });

        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        for (idx, result) in batches.into_iter().flatten() {
            slots[idx] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every index was claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parallelism_resolves_to_positive_jobs() {
        assert_eq!(Parallelism::Sequential.jobs(), 1);
        assert_eq!(Parallelism::Fixed(3).jobs(), 3);
        assert_eq!(Parallelism::Fixed(0).jobs(), 1);
        assert!(Parallelism::Auto.jobs() >= 1);
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let parallel = Executor::new(Parallelism::Fixed(8)).map(&items, |&x| x * x);
        let sequential: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn map_matches_sequential_under_uneven_costs() {
        let items: Vec<u64> = (0..64).collect();
        let work = |&x: &u64| {
            // Uneven busywork so completion order scrambles.
            let spins = (x % 7) * 1000;
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        };
        let parallel = Executor::new(Parallelism::Fixed(6)).map(&items, work);
        let sequential = Executor::sequential().map(&items, work);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn empty_and_single_inputs_short_circuit() {
        let exec = Executor::new(Parallelism::Fixed(4));
        assert_eq!(exec.map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(exec.map(&[9u64], |&x| x + 1), vec![10]);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<u64> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            Executor::new(Parallelism::Fixed(4)).map(&items, |&x| {
                assert!(x != 11, "boom");
                x
            })
        });
        assert!(caught.is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `map` is bit-identical to the sequential loop for arbitrary
        /// item and worker counts, including the degenerate ones, and
        /// calls `f` exactly once per item: a doubly claimed index
        /// would leave the output of a pure `f` unchanged, so only the
        /// per-item call counts can see it.
        #[test]
        fn map_matches_sequential_for_arbitrary_shapes(
            items in prop::collection::vec(0u64..1_000_000, 0..40),
            workers in 1usize..9,
        ) {
            let tagged: Vec<(usize, u64)> = items.iter().copied().enumerate().collect();
            let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            let parallel = Executor::new(Parallelism::Fixed(workers)).map(&tagged, |&(i, x)| {
                calls[i].fetch_add(1, Ordering::SeqCst);
                x * 3 + 1
            });
            let sequential: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            prop_assert_eq!(parallel, sequential);
            for count in &calls {
                prop_assert_eq!(count.load(Ordering::SeqCst), 1);
            }
        }
    }
}
