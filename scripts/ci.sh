#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before merging.
#
# The whole pipeline is hermetic — `--offline` everywhere, and the
# workspace has no registry dependencies (see DESIGN.md, "Hermetic
# builds"). Run from anywhere inside the repository.
#
#   scripts/ci.sh            # full gate
#   TRNG_PROP_CASES=512 scripts/ci.sh   # heavier property sweep

set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel 2>/dev/null || dirname "$0")/."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test --offline"
cargo test -q --offline

# perfbench is its own package outside the workspace; its self-tests
# call the APIs the benchmark drives (pool admission, sources, serve),
# so a change to one of them fails here rather than in a benchmark run.
echo "==> perfbench self-test"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
    cargo fmt --check --manifest-path perfbench/Cargo.toml
else
    echo "==> cargo fmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy --offline --all-targets -- -D warnings
    cargo clippy --offline --all-targets --manifest-path perfbench/Cargo.toml -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint"
fi

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --quiet

# Timed regression gates: quick run of the hotpath bench, the only
# bench CI runs. Tests prove behaviour; this bench measures, and every
# gate in it is a constant ratio measured in the same process, so it
# holds on any host: raw bits of the scalar oracle (named explicitly)
# within a fixed multiple of a reference kernel, raw bits of the default
# batched engine at least 9x scalar, the word-level
# 90B gate at least 4x the per-bit one, per-shard and composed Toeplitz
# pools at most 2x the design-XOR pool per output bit, and the OS-backed
# pool faster than the simulated carry chain.
echo "==> hotpath bench (quick, every same-process ratio gate)"
TRNG_HOTPATH_BENCH_BYTES=${TRNG_HOTPATH_BENCH_BYTES:-8192} \
TRNG_BENCH_OUT_DIR=$(mktemp -d) \
    cargo bench -q --offline -p trng-bench --bench hotpath

echo "==> tier-1 gate passed"
