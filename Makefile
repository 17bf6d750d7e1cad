# Developer entry points. `make verify` is the full pre-merge gate:
# formatting, lints as errors, the repository's own static-analysis
# gate (xtask), rustdoc with warnings as errors, the tier-1 build + test
# pass (ROADMAP.md: `cargo build --release && cargo test -q`), and the
# experiments transcript.

.PHONY: verify fmt lint xtask-lint doc bless-api lint-fix build test \
        transcript bench miri

verify: fmt lint xtask-lint doc build test transcript

fmt:
	cargo fmt --check

lint:
	cargo clippy --workspace --all-targets -- -D warnings

# The six-pass diagnostics framework (DESIGN.md §8, §12–§13),
# configured by xtask/xtask.toml: units-escape (unit-suffixed pub
# fields and typed-units boundary signatures), the partial_cmp ban,
# crate layering (plus workspace lint inheritance), stale-config
# validation, paper-constant provenance, API-surface snapshots. The
# crate headers are rustc's job (`[workspace.lints.rust]` in
# Cargo.toml); panic sanctions, the HashMap/HashSet and wall-clock bans
# and unit dimensions are clippy's (the panic-family lints with
# `#[expect(…, reason)]`, `disallowed-types`, and the `value()` and
# `Frequency` raw-accessor disallowed methods, see clippy.toml); the
# DVFS tables check themselves at compile time, snapshot/restore/merge
# completeness is exhaustive destructuring, dependency cycles are
# cargo's, and the probe-off zero-allocation contract is a
# counting-allocator test (crates/campaign/tests/probe_off_no_alloc.rs).
# `cargo run -p xtask -- lint --explain <lint-id>` prints any pass's
# long-form rationale. `--timing --budget-ms` is the runtime-regression
# gate CI applies to the suite itself (total wall-clock AND a per-pass
# share ceiling).
xtask-lint:
	cargo run -q -p xtask -- lint --timing --budget-ms 10000

# Regenerate xtask/api/<crate>.txt after an intentional API change.
bless-api:
	cargo run -q -p xtask -- bless-api

lint-fix:
	cargo clippy --workspace --all-targets --fix --allow-dirty --allow-staged
	cargo fmt

# Broken or private intra-doc links and doc filename collisions fail.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

build:
	cargo build --release

test:
	cargo test -q

# Every exhibit, rendered as `--bin all` renders it, must reproduce
# experiments_output.txt byte for byte. The banner's clock lines go to
# stderr, so stdout is deterministic.
transcript:
	cargo build -q --release -p dora-experiments --bin all
	./target/release/all | cmp - experiments_output.txt

bench:
	cargo bench -p dora-bench --bench parallel
	cargo bench -p dora-bench --bench forksweep

# Undefined-behavior sweep of the campaign executor (nightly-only).
miri:
	cargo +nightly miri test -p dora-campaign --lib executor
