//! Host-speed probe: corrects host timings for how fast the shared machine
//! ran while they were taken.
//!
//! On a small VM of a shared host the same code runs up to twice as fast
//! or as slow from one moment to the next, as the host's other tenants come
//! and go. The swings last from tens of milliseconds to minutes, so a
//! longer run does not average them away. A probe thread therefore shares
//! the workload's CPU: every [`INTERVAL`] it wakes and times a fixed
//! reference [`Kernel`], the two kernels in turn. The kernels are the
//! benchmark's own code, so no change to the library can speed them up.
//!
//! A timed window's *nominal* seconds are its host seconds, less the
//! probe's own runs inside it, divided by the host's slowdown over the
//! window: the mean time of a kernel's runs there over that kernel's time
//! on an unloaded host. Every reported time is nominal.
//!
//! Code of different kinds slows down by different amounts on a busy host,
//! so each window is read against the kernel that tracked its code best
//! (see [`Kernel`]). On a 2-vCPU VM whose host speed swung by 2x, reading
//! fleet and training stretches of a few seconds against the board-like
//! kernel cut their interquartile spread from about 15 % to about 2-3 %,
//! and reading decision replay passes against the model-like kernel cut
//! it from about 40 % to about 5-9 %. The other pairings did little
//! better, or worse, than no correction.
//!
//! The probe only sees the CPU it runs on, so [`pin_to_current_cpu`] keeps
//! the process, the probe thread included, on one CPU.

use crate::clock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sleep between two probe wakes. A wake runs one kernel once or twice,
/// up to about 0.5 ms on an unloaded host, so the probe takes about 4 % of
/// the CPU; the kernels take turns.
pub const INTERVAL: Duration = Duration::from_millis(10);

/// Runs of a kernel a window at least averages over; a shorter window
/// takes the runs nearest to it.
const MIN_RUNS: usize = 8;

/// Longest wait for the probe to run after a window ends.
const SETTLE: Duration = Duration::from_millis(200);

/// A reference kernel. Each one is timed the way that tracked its
/// workloads best on a busy host, which was found by measurement: the
/// board kernel after an untimed run that refills the caches and branch
/// predictors the workload took over while the probe slept (timed cold,
/// it overstated the fleets' slowdown), the models kernel cold (timed
/// warm, it no longer followed decision replay at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Like the models' predictions: builds, standardises and expands a
    /// 9-input vector into its 55 quadratic terms in fresh heap vectors and
    /// takes a dot product. Decision replay is read against it.
    Models,
    /// Like the board's quantum step: dynamic dispatch over a few task
    /// objects picked by unpredictable branches, a reused scratch vector,
    /// and an exponential decay with divisions. Fleets, training and every
    /// set-up are read against it.
    Board,
}

/// How one workload's time follows a kernel: it scales as the kernel's
/// slowdown raised to `exponent`. The exponent is measured, as the one that
/// left ten runs of the workload the smallest spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The kernel.
    pub kernel: Kernel,
    /// 1 when the workload slows down exactly as much as the kernel.
    pub exponent: f64,
}

/// Something a [`Kernel::Board`] step dispatches to.
trait Task {
    fn rate(&self, x: f64) -> f64;
}

struct Linear(f64);
struct Root(f64);

impl Task for Linear {
    fn rate(&self, x: f64) -> f64 {
        x * self.0 + 1.0
    }
}

impl Task for Root {
    fn rate(&self, x: f64) -> f64 {
        (x + self.0).sqrt()
    }
}

impl Kernel {
    /// Both kernels, in the order the probe runs them.
    pub const ALL: [Kernel; 2] = [Kernel::Models, Kernel::Board];

    fn index(self) -> usize {
        match self {
            Kernel::Models => 0,
            Kernel::Board => 1,
        }
    }

    /// Whether a wake runs the kernel once untimed before the timed run.
    fn warmed(self) -> bool {
        self == Kernel::Board
    }

    /// Iterations of one run, about 0.3 ms on an unloaded host.
    fn iters(self) -> usize {
        match self {
            Kernel::Models => 4_000,
            Kernel::Board => 3_000,
        }
    }

    /// Seconds one run of the probe thread takes on an unloaded host: the
    /// fastest runs seen on a 2-vCPU Intel Xeon VM at 2.1 GHz.
    pub fn nominal_s(self) -> f64 {
        match self {
            Kernel::Models => 0.000_42,
            Kernel::Board => 0.000_20,
        }
    }

    /// Its name in the detail lines.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Models => "models",
            Kernel::Board => "board",
        }
    }

    /// One run; the result only keeps the work from being optimised away.
    pub fn run(self) -> f64 {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut acc = 0.0;
        match self {
            Kernel::Models => {
                for _ in 0..self.iters() {
                    let x: Vec<f64> = (0..9)
                        .map(|_| (next() >> 11) as f64 / (1_u64 << 53) as f64)
                        .collect();
                    let z: Vec<f64> = x.iter().map(|v| (v - 0.5) / 0.3).collect();
                    let mut terms = Vec::with_capacity(55);
                    terms.push(1.0);
                    terms.extend_from_slice(&z);
                    for (i, zi) in z.iter().enumerate() {
                        terms.extend(z[i..].iter().map(|zj| zi * zj));
                    }
                    acc += terms
                        .iter()
                        .enumerate()
                        .map(|(k, t)| t * k as f64 * 0.01)
                        .sum::<f64>();
                }
            }
            Kernel::Board => {
                let tasks: Vec<Box<dyn Task>> = (0..8)
                    .map(|i| -> Box<dyn Task> {
                        if i % 3 == 0 {
                            Box::new(Linear(0.5 + f64::from(i)))
                        } else {
                            Box::new(Root(f64::from(i)))
                        }
                    })
                    .collect();
                let mut scratch: Vec<f64> = Vec::with_capacity(tasks.len());
                for _ in 0..self.iters() {
                    let bits = next();
                    scratch.clear();
                    for (k, task) in tasks.iter().enumerate() {
                        if (bits >> k) & 1 == 1 {
                            scratch.push(task.rate(acc.abs() % 10.0));
                        }
                    }
                    let mean = scratch.iter().sum::<f64>() / (scratch.len() as f64 + 1.0);
                    acc = acc * 0.9 + (-mean / 7.0).exp() + mean.ln_1p();
                }
            }
        }
        std::hint::black_box(acc)
    }
}

/// One wake of the probe: when it started running and when its timed run
/// ended (seconds since the probe's epoch), and how long the timed run
/// took.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: f64,
    end: f64,
    seconds: f64,
}

/// A stretch of host time, in seconds since the probe's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// When it began.
    pub start: f64,
    /// When it ended.
    pub end: f64,
}

impl Window {
    /// Its length in host seconds.
    pub fn host_s(&self) -> f64 {
        self.end - self.start
    }
}

/// Each kernel's runs, in start order.
type Runs = [Vec<Run>; Kernel::ALL.len()];

/// The probe thread and what it measured.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    runs: Arc<Mutex<Runs>>,
    stop: Arc<AtomicBool>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Probe {
    fn start() -> Probe {
        let epoch = clock::now();
        let runs: Arc<Mutex<Runs>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (runs, stop) = (Arc::clone(&runs), Arc::clone(&stop));
            std::thread::spawn(move || {
                for kernel in Kernel::ALL.into_iter().cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(INTERVAL);
                    let start = epoch.elapsed().as_secs_f64();
                    if kernel.warmed() {
                        kernel.run();
                    }
                    let (_, seconds) = clock::timed(|| kernel.run());
                    let end = epoch.elapsed().as_secs_f64();
                    runs.lock().unwrap_or_else(PoisonError::into_inner)[kernel.index()].push(Run {
                        start,
                        end,
                        seconds,
                    });
                }
            })
        };
        Probe {
            epoch,
            runs,
            stop,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Seconds since the probe's epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` and returns its result with the window it took.
    pub fn timed<R>(&self, f: impl FnOnce() -> R) -> (R, Window) {
        let start = self.now();
        let result = f();
        let end = self.now();
        (result, Window { start, end })
    }

    /// Waits (at most [`SETTLE`]) until `kernel` has run after `t`, so a
    /// window that just ended has runs on both sides.
    fn settle(&self, kernel: Kernel, t: f64) {
        let deadline = clock::now() + SETTLE;
        while clock::now() < deadline && !self.thread_done() {
            let last = self.runs.lock().unwrap_or_else(PoisonError::into_inner)[kernel.index()]
                .last()
                .map_or(f64::NEG_INFINITY, |r| r.start);
            if last > t {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn thread_done(&self) -> bool {
        self.thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .is_none_or(JoinHandle::is_finished)
    }

    /// The host's slowdown over `w` as `kernel` sees it (1 on an unloaded
    /// host, 2 when the kernel took twice its nominal time) and the
    /// seconds the probe itself ran inside `w`. Without any run it is 1.
    pub fn slowdown(&self, w: Window, kernel: Kernel) -> (f64, f64) {
        self.settle(kernel, w.end);
        let all = self.runs.lock().unwrap_or_else(PoisonError::into_inner);
        let busy: f64 = all
            .iter()
            .flatten()
            .map(|r| (w.end.min(r.end) - w.start.max(r.start)).max(0.0))
            .sum();
        let runs = &all[kernel.index()];
        let first = runs.partition_point(|r| r.start < w.start);
        let last = runs.partition_point(|r| r.start <= w.end);
        let (from, to) = if last - first >= MIN_RUNS {
            (first, last)
        } else {
            let mid = runs.partition_point(|r| r.start < (w.start + w.end) / 2.0);
            let from = mid.saturating_sub(MIN_RUNS / 2);
            (from, (from + MIN_RUNS).min(runs.len()))
        };
        let sample = &runs[from..to];
        if sample.is_empty() {
            return (1.0, busy);
        }
        let mean = sample.iter().map(|r| r.seconds).sum::<f64>() / sample.len() as f64;
        (mean / kernel.nominal_s(), busy)
    }

    /// Every run's seconds of `kernel` so far, in order.
    pub fn run_seconds(&self, kernel: Kernel) -> Vec<f64> {
        self.runs.lock().unwrap_or_else(PoisonError::into_inner)[kernel.index()]
            .iter()
            .map(|r| r.seconds)
            .collect()
    }

    /// Stops the probe thread and waits for it to end.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let thread = self
            .thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(thread) = thread {
            // A panic in the probe leaves no runs to lose; nothing to report.
            let _ = thread.join();
        }
    }
}

static PROBE: OnceLock<Probe> = OnceLock::new();

/// The process's probe, started on first use.
pub fn global() -> &'static Probe {
    PROBE.get_or_init(Probe::start)
}

/// Stops the process's probe if it was started.
pub fn stop() {
    if let Some(probe) = PROBE.get() {
        probe.stop();
    }
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the CPU it is running on, and returns that CPU.
///
/// # Errors
///
/// When the CPU cannot be read or the affinity cannot be set.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)] // two glibc calls; std has no CPU-affinity API
pub fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: takes no arguments and only reads the calling thread's CPU.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    // A glibc `cpu_set_t`: 1024 bits.
    let mut mask = [0_u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond a cpu_set_t"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!("sched_setaffinity to CPU {cpu} failed"))
    }
}

/// Affinity is Linux-only; elsewhere the process is left unpinned.
///
/// # Errors
///
/// Always: pinning is unsupported here.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Result<usize, String> {
    Err("CPU pinning is only implemented on Linux".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_without_runs_borrows_its_neighbours() {
        let probe = Probe::start();
        let (_, w) = probe.timed(|| ());
        for kernel in Kernel::ALL {
            let (slowdown, busy) = probe.slowdown(w, kernel);
            assert!(slowdown > 0.0 && slowdown.is_finite(), "{slowdown}");
            assert!(busy >= 0.0 && busy <= w.host_s());
        }
        probe.stop();
        assert!(probe.thread_done());
    }

    #[test]
    fn the_kernels_are_deterministic() {
        for kernel in Kernel::ALL {
            assert_eq!(kernel.run().to_bits(), kernel.run().to_bits());
        }
    }
}
