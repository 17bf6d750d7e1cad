# Developer entry points. `make verify` is the full pre-merge gate:
# formatting, lints as errors, the repository's own static-analysis
# gate (xtask), then the tier-1 build + test pass
# (ROADMAP.md: `cargo build --release && cargo test -q`).

.PHONY: verify fmt lint xtask-lint sarif bless-api lint-fix build test \
        bench check-interleave miri

verify: fmt lint xtask-lint build test

fmt:
	cargo fmt --check

lint:
	cargo clippy --workspace --all-targets -- -D warnings

# The fifteen-pass diagnostics framework (DESIGN.md §8, §12–§14),
# configured by xtask/xtask.toml: panic reachability, units-escape
# (unit-suffixed pub fields and typed-units boundary signatures),
# dimensional flow, the partial_cmp ban, crate layering (plus workspace
# lint inheritance), export determinism (export-file hash collections
# and call-graph taint), state coverage, merge associativity, snapshot
# pairing, probe balance, stale-config validation, sync hygiene, probe
# purity, paper-constant provenance, API-surface snapshots. The crate
# headers are rustc's job (`[workspace.lints.rust]` in Cargo.toml) and
# the DVFS tables check themselves at compile time.
# `cargo run -p xtask -- lint --explain <lint-id>` prints any pass's
# long-form rationale. `--timing --budget-ms` is the runtime-regression
# gate CI applies to the suite itself (total wall-clock AND a per-pass
# share ceiling).
xtask-lint:
	cargo run -q -p xtask -- lint --timing --budget-ms 10000

# Machine-readable reports (also uploaded as a CI artifact).
sarif:
	cargo run -q -p xtask -- lint --format sarif > xtask-lint.sarif

# Regenerate xtask/api/<crate>.txt after an intentional API change.
bless-api:
	cargo run -q -p xtask -- bless-api

lint-fix:
	cargo clippy --workspace --all-targets --fix --allow-dirty --allow-staged
	cargo fmt

build:
	cargo build --release

test:
	cargo test -q

bench:
	cargo bench -p dora-bench --bench parallel
	cargo bench -p dora-bench --bench forksweep

# Model-check the campaign executor under every bounded interleaving
# (DESIGN.md §9): the interleave crate's own suite, then the executor
# suite with the sync facade swapped to the model primitives.
check-interleave:
	cargo test -p interleave
	RUSTFLAGS="--cfg interleave" cargo test -p dora-campaign

# Undefined-behavior sweep of the concurrency layer (nightly-only).
miri:
	cargo +nightly miri test -p interleave --lib
	cargo +nightly miri test -p dora-campaign --lib executor
