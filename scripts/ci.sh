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

# Entropy-pool smoke: bring up a 2-shard pool, stream 1 MB of raw
# bytes through the threaded service path, and fail on any health
# alarm, retired shard, or degenerate output. Exercises the worker
# threads, SPSC rings, and continuous-test gating end to end.
echo "==> pool smoke (2 shards, 1 MB)"
TRNG_POOL_SMOKE_BYTES=${TRNG_POOL_SMOKE_BYTES:-1000000} \
TRNG_POOL_SMOKE_SHARDS=${TRNG_POOL_SMOKE_SHARDS:-2} \
    cargo run -q --release --offline -p trng-pool --bin pool_smoke

# Serving-layer smoke: daemon on an ephemeral loopback port, ~1 MB
# fetched by four concurrent clients (one deliberately over quota and
# throttled, not errored), metrics scrape, graceful drain with every
# worker joined. Exercises the frame protocol, token buckets, and the
# shared pool handle end to end.
echo "==> serve smoke (4 clients, ~1 MB, quota + metrics + drain)"
TRNG_SERVE_SMOKE_BYTES=${TRNG_SERVE_SMOKE_BYTES:-327680} \
TRNG_SERVE_SMOKE_SHARDS=${TRNG_SERVE_SMOKE_SHARDS:-2} \
    cargo run -q --release --offline -p trng-serve --bin serve_smoke

# Self-healing smoke: 3-shard deterministic pool with a scripted
# persistent fault on shard 1 and a respawn budget of one. Fails
# unless exactly one respawn heals the pool, the delivered stream
# re-passes a fresh continuous-test gate (zero unhealthy bytes), and
# the incident journal matches the scripted story event-for-event.
echo "==> elastic smoke (3 shards, persistent fault on shard 1, 1 respawn)"
TRNG_ELASTIC_SMOKE_BYTES=${TRNG_ELASTIC_SMOKE_BYTES:-32768} \
    cargo run -q --release --offline -p trng-pool --bin elastic_smoke

# Adversarial-detection smoke: 2-shard monitored pool hit by two
# scripted campaigns — injection locking on shard 0 (invisible to the
# SP 800-90B gate; only the jitter monitor's differential sigma probe
# catches it) and a severe thermal runaway on shard 1 (monitor drift
# first, 90B alarm second, shard retired). Fails unless both detections
# land in the incident journal in that order and the delivered stream
# re-passes a fresh continuous-test gate.
echo "==> adversarial smoke (locking + thermal runaway, monitor-first detection)"
TRNG_ADVERSARIAL_SMOKE_BYTES=${TRNG_ADVERSARIAL_SMOKE_BYTES:-4096} \
    cargo run -q --release --offline -p trng-pool --bin adversarial_smoke

# Coherence smoke: 3-shard monitored pool hit by the sub-threshold
# shared supply tone (0.4 % @ 5 MHz) on shards 0+1 — invisible to
# every per-shard gate. Fails unless the cross-shard coherence
# detector journals the expected CommonModeCoherence quorum event
# (coherence probe code, aliased line, mask 0b011) while the per-shard
# gates stay silent, the run replays byte-identically, and a
# single-shard control tone does NOT trip the quorum.
echo "==> coherence smoke (2-of-3 shared tone quorum, per-shard gates silent)"
TRNG_COHERENCE_SMOKE_BYTES=${TRNG_COHERENCE_SMOKE_BYTES:-12288} \
    cargo run -q --release --offline -p trng-pool --bin coherence_smoke

# Per-backend smoke: each of the four entropy backends (carry-chain,
# dual-oscillator, trace replay, OS entropy) runs alone behind a
# deterministic pool — admitted by the AIS-31 startup test, serving
# bytes, and surviving an injected Stuck fault's quarantine/readmit
# round trip — then all four run mixed behind one 4-shard pool.
echo "==> sources smoke (4 backends + mixed pool, Stuck drill on every shard)"
TRNG_SOURCES_SMOKE_BYTES=${TRNG_SOURCES_SMOKE_BYTES:-8192} \
    cargo run -q --release --offline -p trng-pool --bin sources_smoke

# Extraction smoke: 2-shard composed deterministic pool (raw shards
# feeding the pool-level cross-shard Toeplitz stage at the leftover-
# hash-sized ratio) streams ~1 MB. Fails on any health alarm, a shard
# leaving the online state, a ratio wider than the design's np = 7,
# claimed > measured min-entropy, or a replay divergence.
echo "==> extract smoke (2-shard composed Toeplitz pool, claimed <= measured)"
TRNG_EXTRACT_SMOKE_BYTES=${TRNG_EXTRACT_SMOKE_BYTES:-1000000} \
TRNG_EXTRACT_SMOKE_SHARDS=${TRNG_EXTRACT_SMOKE_SHARDS:-2} \
    cargo run -q --release --offline -p trng-pool --bin extract_smoke

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

# Hot-path regression gate: quick run of the per-bit bench, failing
# if the raw-bit cost regresses to more than 2x the checked-in
# baseline (BENCH_hotpath.json: after_ns_per_bit ~ 1615 ns/bit on the
# reference host; the 2x headroom absorbs slower CI machines). The
# batched gate is host-speed independent — it compares the batched and
# scalar raw rows measured in the same process and fails below 9x
# (the batched rows keep the best of three fills; 12 quick runs on a
# busy 2-vCPU host measured 9.1-23.6x, median ~14x). The 90B
# gate check is a same-process ratio too: the word-level
# `OnlineHealth::push_word` the shards run must stay at least 4x the
# per-bit `push` oracle over the same buffer.
echo "==> hotpath bench (quick, scalar gate at 2x baseline, batched gate at 9x scalar, word 90B gate at 4x per-bit)"
TRNG_HOTPATH_BENCH_BYTES=${TRNG_HOTPATH_BENCH_BYTES:-8192} \
TRNG_HOTPATH_GATE_NS=${TRNG_HOTPATH_GATE_NS:-3230} \
TRNG_HOTPATH_BATCHED_MIN_SPEEDUP=${TRNG_HOTPATH_BATCHED_MIN_SPEEDUP:-9} \
TRNG_HOTPATH_GATE_MIN_SPEEDUP=${TRNG_HOTPATH_GATE_MIN_SPEEDUP:-4} \
TRNG_BENCH_OUT_DIR=$(mktemp -d) \
    cargo bench -q --offline -p trng-bench --bench hotpath

echo "==> tier-1 gate passed"
