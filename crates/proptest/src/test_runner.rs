//! The case runner: configuration, deterministic RNG, and failure type.

use std::fmt;

/// Configuration of a property test.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a single case failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// An assertion failed; the payload is the rendered message.
    Fail(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }

    /// Attaches the generated inputs of the failing case to the message.
    #[must_use]
    pub fn with_inputs(self, inputs: &str) -> Self {
        let TestCaseError::Fail(message) = self;
        if inputs.is_empty() {
            TestCaseError::Fail(message)
        } else {
            TestCaseError::Fail(format!("{message}\n  inputs: {inputs}"))
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let TestCaseError::Fail(message) = self;
        f.write_str(message)
    }
}

impl std::error::Error for TestCaseError {}

/// A small, fast, deterministic generator (splitmix64) for case inputs.
///
/// Each case is seeded from the test name and case index, so a failing
/// case replays identically on the next `cargo test` run.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// The RNG for one `(test name, case index)` pair.
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the name, mixed with the case index.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = TestRng {
            state: hash ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        };
        // One warm-up step decorrelates adjacent case indices.
        rng.next_u64();
        rng
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }
}

/// Runs every case of one property test.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
}

impl TestRunner {
    /// A runner with the given configuration.
    pub fn new(config: ProptestConfig) -> Self {
        TestRunner { config }
    }

    /// Runs `case` once per configured case with a per-case RNG.
    ///
    /// # Panics
    ///
    /// Panics on the first failing case, reporting the case index and the
    /// failure message (which includes the generated inputs).
    #[expect(
        clippy::panic,
        reason = "a panic is the shim's test-failure reporting path"
    )]
    pub fn run<F>(&mut self, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        for index in 0..self.config.cases {
            let mut rng = TestRng::for_case(name, index);
            if let Err(error) = case(&mut rng) {
                panic!(
                    "proptest case {index}/{total} of `{name}` failed: {error}",
                    total = self.config.cases,
                );
            }
        }
    }
}
