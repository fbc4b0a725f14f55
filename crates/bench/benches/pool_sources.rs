//! Heterogeneous-backend bench: per-source and mixed-pool entropy
//! throughput, written to `BENCH_sources.json`.
//!
//! Each backend runs alone behind a single-shard pool (same admission
//! gate, same conditioning) so the numbers isolate the source itself;
//! the final row is a 4-shard pool mixing all four backends — the
//! heterogeneous configuration the serve layer exposes. As in
//! `pool_throughput`, wall-clock figures measure *this simulator* on
//! the host, while `sim_mbps` is throughput in each source's own
//! simulated clock domain (the OS backend ticks a nominal 1 bit/ns).
//!
//! Run with `cargo bench --bench pool_sources`; set
//! `TRNG_SOURCES_BENCH_BYTES` to change the per-configuration volume
//! and `TRNG_BENCH_OUT_DIR` to redirect the JSON report.

use std::sync::Arc;
use std::time::{Duration, Instant};

use trng_core::trng::TrngConfig;
use trng_pool::{Conditioning, DualOscConfig, EntropyPool, PoolConfig, RecordedTrace, SourceSpec};
use trng_testkit::bench::{env, write_report};
use trng_testkit::json::Json;

const SEED: u64 = 0x5EED5;
/// Raw bytes captured for the trace backend; replay wraps as needed.
const TRACE_BYTES: usize = 32 * 1024;

struct Run {
    name: &'static str,
    shards: usize,
    bytes: usize,
    wall: Duration,
    ns_per_bit: f64,
    wall_mbps: f64,
    sim_mbps: f64,
}

fn record_trace() -> Arc<RecordedTrace> {
    Arc::new(
        RecordedTrace::record(&TrngConfig::paper_k1(), SEED, TRACE_BYTES).expect("trace capture"),
    )
}

fn run_one(name: &'static str, specs: Vec<SourceSpec>, bytes: usize) -> Run {
    let shards = specs.len();
    let config = PoolConfig::new(TrngConfig::paper_k1(), shards)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(SEED)
        .with_sources(specs)
        .deterministic(true);
    let mut pool = EntropyPool::new(config).expect("pool build");
    pool.wait_online(Duration::from_secs(600))
        .expect("admission");
    let mut sink = vec![0u8; bytes];
    let t0 = Instant::now();
    pool.fill_bytes(&mut sink).expect("fill");
    let wall = t0.elapsed();
    let stats = pool.stats();
    assert_eq!(
        stats.total_alarms(),
        0,
        "healthy bench run alarmed ({name})"
    );
    Run {
        name,
        shards,
        bytes,
        wall,
        ns_per_bit: wall.as_nanos() as f64 / (bytes as f64 * 8.0),
        wall_mbps: bytes as f64 * 8.0 / wall.as_secs_f64() / 1e6,
        sim_mbps: stats.sim_throughput_bps() / 1e6,
    }
}

fn main() {
    let bytes = env("TRNG_SOURCES_BENCH_BYTES").unwrap_or(16 * 1024);
    println!("pool_sources: {bytes} bytes per configuration, design-rate XOR\n");

    let runs = [
        run_one("carry_chain", vec![SourceSpec::CarryChain], bytes),
        run_one(
            "dual_osc",
            vec![SourceSpec::DualOscillator(Box::new(
                DualOscConfig::betrusted_default(),
            ))],
            bytes,
        ),
        run_one(
            "trace_replay",
            vec![SourceSpec::TraceReplay(record_trace())],
            bytes,
        ),
        run_one("os_entropy", vec![SourceSpec::OsEntropy], bytes),
        run_one(
            "mixed_4",
            vec![
                SourceSpec::CarryChain,
                SourceSpec::DualOscillator(Box::new(DualOscConfig::betrusted_default())),
                SourceSpec::TraceReplay(record_trace()),
                SourceSpec::OsEntropy,
            ],
            bytes,
        ),
    ];

    println!(
        "{:>13} {:>7} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "backend", "shards", "bytes", "wall", "ns/bit", "wall Mb/s", "sim Mb/s"
    );
    let benchmarks: Vec<Json> = runs
        .iter()
        .map(|r| {
            println!(
                "{:>13} {:>7} {:>10} {:>8.2} s {:>10.1} {:>12.3} {:>12.2}",
                r.name,
                r.shards,
                r.bytes,
                r.wall.as_secs_f64(),
                r.ns_per_bit,
                r.wall_mbps,
                r.sim_mbps,
            );
            Json::obj(vec![
                ("name", Json::str(r.name)),
                ("shards", Json::num(r.shards as f64)),
                ("bytes", Json::num(r.bytes as f64)),
                ("wall_ns", Json::num(r.wall.as_nanos() as f64)),
                ("ns_per_bit", Json::num(r.ns_per_bit)),
                ("wall_mbps", Json::num(r.wall_mbps)),
                ("sim_mbps", Json::num(r.sim_mbps)),
            ])
        })
        .collect();

    let report = Json::obj(vec![
        ("group", Json::str("sources")),
        ("conditioning", Json::str("design_xor")),
        (
            "note",
            Json::str(
                "single-shard rows isolate one backend behind the full pool \
                 stack; mixed_4 runs all four behind one pool. sim_mbps is \
                 throughput in each source's simulated clock domain \
                 (os_entropy ticks a nominal 1 bit/ns); wall figures are \
                 host simulator speed",
            ),
        ),
        ("benchmarks", Json::Arr(benchmarks)),
    ]);
    let path = write_report("sources", &report).expect("write BENCH_sources.json");
    println!("\nwrote {}", path.display());

    // Sanity: every backend served its full volume, and the OS-backed
    // pool (no event-driven simulation) outpaces the carry-chain sim
    // on the host by a wide margin.
    assert_eq!(runs.len(), 5);
    let wall = |name: &str| {
        runs.iter()
            .find(|r| r.name == name)
            .expect("run present")
            .wall_mbps
    };
    assert!(
        wall("os_entropy") > wall("carry_chain"),
        "os_entropy ({:.3} Mb/s) should outpace the simulated carry chain ({:.3} Mb/s) on the host",
        wall("os_entropy"),
        wall("carry_chain"),
    );
}
