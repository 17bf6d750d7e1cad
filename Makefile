# Developer entry points. `make verify` is the full pre-merge gate:
# formatting, lints as errors, the repository's own static-analysis
# gate (xtask), then the tier-1 build + test pass
# (ROADMAP.md: `cargo build --release && cargo test -q`).

.PHONY: verify fmt lint xtask-lint sarif bless-api lint-fix build test \
        bench miri

verify: fmt lint xtask-lint build test

fmt:
	cargo fmt --check

lint:
	cargo clippy --workspace --all-targets -- -D warnings

# The seven-pass diagnostics framework (DESIGN.md §8, §12–§13),
# configured by xtask/xtask.toml: units-escape (unit-suffixed pub
# fields and typed-units boundary signatures), the partial_cmp ban,
# crate layering (plus workspace lint inheritance), stale-config
# validation, probe purity, paper-constant provenance, API-surface
# snapshots. The crate headers are rustc's job
# (`[workspace.lints.rust]` in Cargo.toml); panic sanctions, the
# HashMap/HashSet and wall-clock bans and unit dimensions are clippy's
# (the panic-family lints with `#[expect(…, reason)]`,
# `disallowed-types`, and the `value()` and `Frequency` raw-accessor
# disallowed methods, see clippy.toml); the DVFS tables check
# themselves at compile time, and snapshot/restore/merge completeness
# is exhaustive destructuring.
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

# Undefined-behavior sweep of the campaign executor (nightly-only).
miri:
	cargo +nightly miri test -p dora-campaign --lib executor
