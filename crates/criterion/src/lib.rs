//! # criterion (in-tree subset)
//!
//! A dependency-free, offline-compatible implementation of the slice of
//! the [Criterion](https://docs.rs/criterion) benchmarking API this
//! workspace uses: `Criterion::bench_function`, benchmark groups, the
//! `criterion_group!`/`criterion_main!` macros, and the builder knobs
//! (`sample_size`, `measurement_time`, `warm_up_time`).
//!
//! Measurement model: each benchmark warms up for `warm_up_time`, sizes
//! an iteration batch so one sample costs roughly
//! `measurement_time / sample_size`, then reports the min/median/max of
//! the per-iteration times across samples:
//!
//! ```text
//! algorithm1_select_frequency
//!                         time:   [2.1040 µs 2.1103 µs 2.1287 µs]
//! ```
//!
//! Running with `--test` (as `cargo test --benches` does) executes every
//! benchmark body exactly once, asserting it still runs, without timing.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::time::Duration;

pub use std::hint::black_box;

/// The benchmark driver: configuration plus a name filter from argv.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    filter: Option<String>,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
            filter: None,
            test_mode: false,
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, samples: usize) -> Self {
        assert!(samples >= 2, "need at least two samples");
        self.sample_size = samples;
        self
    }

    /// Sets the time budget for one benchmark's timed region.
    #[must_use]
    pub fn measurement_time(mut self, budget: Duration) -> Self {
        self.measurement_time = budget;
        self
    }

    /// Sets the warm-up duration before timing starts.
    #[must_use]
    pub fn warm_up_time(mut self, budget: Duration) -> Self {
        self.warm_up_time = budget;
        self
    }

    /// Applies the command line: `--test` switches to run-once mode and
    /// the first free argument becomes a substring filter, matching what
    /// `cargo bench <filter>` passes.
    fn configure_from_args(&mut self) {
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--test" => self.test_mode = true,
                // `--bench` is a cargo marker to swallow.
                "--bench" => {}
                // `--profile-time` takes a value we ignore.
                "--profile-time" => {
                    let _ = args.next();
                }
                other if !other.starts_with('-') => {
                    self.filter = Some(other.to_string());
                }
                _ => {}
            }
        }
    }

    fn admits(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut body: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if self.admits(id) {
            let mut bencher = Bencher {
                sample_size: self.sample_size,
                measurement_time: self.measurement_time,
                warm_up_time: self.warm_up_time,
                test_mode: self.test_mode,
                report: None,
            };
            body(&mut bencher);
            bencher.print(id);
        }
        self
    }

    /// Starts a named group of benchmarks sharing configuration tweaks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            sample_size: None,
            measurement_time: None,
        }
    }
}

/// A group of related benchmarks (`criterion.benchmark_group(..)`).
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    measurement_time: Option<Duration>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count within this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        assert!(samples >= 2, "need at least two samples");
        self.sample_size = Some(samples);
        self
    }

    /// Overrides the measurement budget within this group.
    pub fn measurement_time(&mut self, budget: Duration) -> &mut Self {
        self.measurement_time = Some(budget);
        self
    }

    /// Runs one benchmark under the group's name prefix.
    pub fn bench_function<F>(&mut self, id: &str, mut body: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{id}", self.name);
        if self.parent.admits(&full) {
            let mut bencher = Bencher {
                sample_size: self.sample_size.unwrap_or(self.parent.sample_size),
                measurement_time: self
                    .measurement_time
                    .unwrap_or(self.parent.measurement_time),
                warm_up_time: self.parent.warm_up_time,
                test_mode: self.parent.test_mode,
                report: None,
            };
            body(&mut bencher);
            bencher.print(&full);
        }
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Timing statistics of one benchmark, nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
struct Report {
    min_ns: f64,
    median_ns: f64,
    max_ns: f64,
}

/// The per-benchmark measurement handle passed to the closure.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    test_mode: bool,
    report: Option<Report>,
}

impl Bencher {
    /// Times `routine`, storing per-iteration statistics.
    #[expect(
        clippy::disallowed_types,
        reason = "a benchmark harness measures host time; its timings never feed simulation results"
    )]
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        if self.test_mode {
            black_box(routine());
            return;
        }

        // Warm-up: also estimates the cost of one iteration.
        let warmup_start = std::time::Instant::now();
        let mut warmup_iters: u64 = 0;
        while warmup_start.elapsed() < self.warm_up_time {
            black_box(routine());
            warmup_iters += 1;
        }
        let per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;

        // Batch size so one sample costs ~ measurement_time / sample_size.
        let sample_budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let batch = ((sample_budget / per_iter.max(1e-9)).round() as u64).max(1);

        let mut samples_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = std::time::Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
        samples_ns.sort_by(f64::total_cmp);
        self.report = Some(Report {
            min_ns: samples_ns[0],
            median_ns: samples_ns[samples_ns.len() / 2],
            max_ns: samples_ns[samples_ns.len() - 1],
        });
    }

    fn print(&self, id: &str) {
        match self.report {
            Some(r) => println!(
                "{id}\n                        time:   [{} {} {}]",
                fmt_ns(r.min_ns),
                fmt_ns(r.median_ns),
                fmt_ns(r.max_ns)
            ),
            None if self.test_mode => println!("{id}: test passed"),
            None => {}
        }
    }
}

/// Formats nanoseconds with criterion-style units.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.4} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.4} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.4} ms", ns / 1_000_000.0)
    } else {
        format!("{:.4} s", ns / 1_000_000_000.0)
    }
}

/// Declares a group of benchmark functions.
///
/// Both upstream forms are supported:
///
/// ```ignore
/// criterion_group!(benches, bench_a, bench_b);
/// criterion_group! {
///     name = benches;
///     config = Criterion::default().sample_size(10);
///     targets = bench_a, bench_b
/// }
/// ```
#[macro_export]
macro_rules! criterion_group {
    (
        name = $name:ident;
        config = $config:expr;
        targets = $($target:path),+ $(,)?
    ) => {
        /// Runs every benchmark target of this group.
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $crate::Criterion::configure_from_args_pub(&mut criterion);
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

impl Criterion {
    /// Public shim for the `criterion_group!` macro expansion.
    #[doc(hidden)]
    pub fn configure_from_args_pub(criterion: &mut Criterion) {
        criterion.configure_from_args();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(15));
        let mut runs = 0u64;
        c.bench_function("tiny", |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            })
        });
        assert!(runs > 0);
    }

    #[test]
    fn groups_apply_overrides_and_filter() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(15));
        c.filter = Some("wanted".to_string());
        let mut wanted = 0u64;
        let mut skipped = 0u64;
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(2);
            group.bench_function("wanted", |b| b.iter(|| wanted += 1));
            group.bench_function("other", |b| b.iter(|| skipped += 1));
            group.finish();
        }
        assert!(wanted > 0);
        assert_eq!(skipped, 0);
    }

    #[test]
    fn test_mode_runs_once() {
        let mut c = Criterion {
            test_mode: true,
            ..Criterion::default()
        };
        let mut runs = 0u64;
        c.bench_function("once", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 1);
    }

    #[test]
    fn formats_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("µs"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(12_000_000_000.0).ends_with(" s"));
    }
}
