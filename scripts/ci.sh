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
else
    echo "==> cargo fmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy --offline --all-targets -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint"
fi

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --quiet

# Extraction regression gate: quick run of the extract bench, writing
# BENCH_extract.json (design-XOR baseline vs per-shard Toeplitz vs the
# composed stage) and failing if a Toeplitz row costs more than 2x the
# design-XOR ns/bit (ratio 5 consumes fewer raw bits than np = 7, so
# parity or better is expected; the 2x gate absorbs slow CI hosts).
echo "==> extract bench (quick, Toeplitz vs design-XOR ns/bit gate at 2x)"
TRNG_EXTRACT_BENCH_BYTES=${TRNG_EXTRACT_BENCH_BYTES:-8192} \
TRNG_EXTRACT_GATE_RATIO=${TRNG_EXTRACT_GATE_RATIO:-2.0} \
TRNG_BENCH_OUT_DIR=$(mktemp -d) \
    cargo bench -q --offline -p trng-bench --bench pool_extract

# Heterogeneous-backend throughput: quick run of the sources bench,
# writing BENCH_sources.json (ns/bit and Mb/s per backend plus the
# mixed 4-source pool) and asserting the OS-backed pool outpaces the
# event-driven carry-chain simulator on the host.
echo "==> sources bench (quick, per-backend + mixed throughput)"
TRNG_SOURCES_BENCH_BYTES=${TRNG_SOURCES_BENCH_BYTES:-4096} \
TRNG_BENCH_OUT_DIR=$(mktemp -d) \
    cargo bench -q --offline -p trng-bench --bench pool_sources

# Detection-latency table: quick run of the adversarial bench, which
# asserts internally that no detection precedes its attack onset and
# writes BENCH_adversarial.json (thermal ramp/runaway, locking,
# flicker; the sub-threshold shared supply tone stays undetected by
# the per-shard gates alone, and the +coherence row shows the
# cross-shard detector closing that gap).
echo "==> adversarial bench (quick, detection-latency table)"
TRNG_ADVERSARIAL_BENCH_BYTES=${TRNG_ADVERSARIAL_BENCH_BYTES:-6144} \
TRNG_BENCH_OUT_DIR=$(mktemp -d) \
    cargo bench -q --offline -p trng-bench --bench pool_adversarial

# Coherence detection-latency gate: quick run of the coherence bench,
# writing BENCH_coherence.json (2-of-2 and 2-of-3 quorum rows plus a
# 1-of-3 control) and failing if a quorum row misses the tone, takes
# longer than the gate (measured ~15.2k bits; 24k absorbs host
# scheduling skew in observation cadence), or the control row alarms.
echo "==> coherence bench (quick, quorum latency gate + single-shard control)"
TRNG_COHERENCE_BENCH_BYTES=${TRNG_COHERENCE_BENCH_BYTES:-8192} \
TRNG_COHERENCE_GATE_BITS=${TRNG_COHERENCE_GATE_BITS:-24576} \
TRNG_BENCH_OUT_DIR=$(mktemp -d) \
    cargo bench -q --offline -p trng-bench --bench pool_coherence

# Hot-path regression gate: quick run of the per-bit bench. Every
# gate is a ratio measured in the same process, so it holds on any
# host. The scalar raw-bit cost must stay within a fixed multiple of a
# reference kernel that shares no code with the sampler (the bound is
# in the bench; a 2x scalar slowdown fails it). The batched raw row
# must be at least 9x the scalar one (the batched rows keep the best
# of three fills; the speedup column prints this same ratio). The
# word-level `OnlineHealth::push_word` the shards run must stay at
# least 4x the per-bit `push` oracle over the same buffer.
echo "==> hotpath bench (quick, scalar gate vs reference kernel, batched gate at 9x scalar, word 90B gate at 4x per-bit)"
TRNG_HOTPATH_BENCH_BYTES=${TRNG_HOTPATH_BENCH_BYTES:-8192} \
TRNG_HOTPATH_BATCHED_MIN_SPEEDUP=${TRNG_HOTPATH_BATCHED_MIN_SPEEDUP:-9} \
TRNG_HOTPATH_GATE_MIN_SPEEDUP=${TRNG_HOTPATH_GATE_MIN_SPEEDUP:-4} \
TRNG_BENCH_OUT_DIR=$(mktemp -d) \
    cargo bench -q --offline -p trng-bench --bench hotpath

echo "==> tier-1 gate passed"
