//! Extraction bench: Toeplitz conditioning cost against the design's
//! XOR post-processing, written to `BENCH_extract.json`.
//!
//! Three configurations of a 2-shard deterministic pool, one row each:
//!
//! * `design_xor` — the paper's np-rate XOR tree (np = 7 raw bits per
//!   output bit), the pre-existing baseline.
//! * `toeplitz_shard` — per-shard seeded Toeplitz at the
//!   leftover-hash-sized ratio (5 raw bits per output bit for the
//!   carry-chain claim at eps 2^-32).
//! * `composed` — raw shards feeding the pool-level cross-shard
//!   Toeplitz stage at the same auto-sized ratio; this row also
//!   reports the stage's claimed vs measured min-entropy.
//!
//! All rows run the batched noise backend so wall-clock figures
//! measure conditioning overhead, not scalar noise synthesis. The run
//! asserts a regression gate: Toeplitz rows must stay within
//! `TRNG_EXTRACT_GATE_RATIO` (default 2.0) of the design_xor ns/bit —
//! generous, since ratio 5 consumes fewer raw bits than np = 7.
//!
//! Run with `cargo bench --bench pool_extract`; set
//! `TRNG_EXTRACT_BENCH_BYTES` to change the per-configuration volume
//! and `TRNG_BENCH_OUT_DIR` to redirect the JSON report.

use std::time::{Duration, Instant};

use trng_core::trng::TrngConfig;
use trng_pool::{
    ComposedExtract, ComposedStats, Conditioning, EntropyPool, NoiseBackend, PoolConfig,
};
use trng_testkit::bench::{env, write_report};
use trng_testkit::json::Json;

const SEED: u64 = 0x5EED7;
const EPSILON_LOG2: u32 = 32;

struct Run {
    name: &'static str,
    conditioning: String,
    bytes: usize,
    wall: Duration,
    ns_per_bit: f64,
    wall_mbps: f64,
    sim_mbps: f64,
    composed: Option<ComposedStats>,
}

fn run_one(
    name: &'static str,
    conditioning: Conditioning,
    composed: Option<ComposedExtract>,
    bytes: usize,
) -> Run {
    let label = conditioning.to_string();
    let mut config = PoolConfig::new(TrngConfig::paper_k1(), 2)
        .with_conditioning(conditioning)
        .with_noise_backend(NoiseBackend::Batched)
        .with_seed(SEED)
        .deterministic(true);
    if let Some(c) = composed {
        config = config.with_composed_extract(c);
    }
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
    let composed = stats.composed.clone();
    Run {
        name,
        conditioning: label,
        bytes,
        wall,
        ns_per_bit: wall.as_nanos() as f64 / (bytes as f64 * 8.0),
        wall_mbps: bytes as f64 * 8.0 / wall.as_secs_f64() / 1e6,
        sim_mbps: stats.sim_throughput_bps() / 1e6,
        composed,
    }
}

fn main() {
    let bytes = env("TRNG_EXTRACT_BENCH_BYTES").unwrap_or(16 * 1024);
    let gate = env("TRNG_EXTRACT_GATE_RATIO").unwrap_or(2.0);
    println!("pool_extract: {bytes} bytes per configuration, 2 shards, batched noise\n");

    let claim = trng_core::selftest::claimed_min_entropy(&TrngConfig::paper_k1())
        .expect("carry-chain claim");
    let runs = [
        run_one("design_xor", Conditioning::DesignXor, None, bytes),
        run_one(
            "toeplitz_shard",
            Conditioning::toeplitz_sized(claim, EPSILON_LOG2, SEED),
            None,
            bytes,
        ),
        run_one(
            "composed",
            Conditioning::Raw,
            Some(ComposedExtract::new(EPSILON_LOG2, SEED)),
            bytes,
        ),
    ];

    println!(
        "{:>15} {:>13} {:>9} {:>10} {:>10} {:>12} {:>12}",
        "row", "conditioning", "bytes", "wall", "ns/bit", "wall Mb/s", "sim Mb/s"
    );
    let benchmarks: Vec<Json> = runs
        .iter()
        .map(|r| {
            println!(
                "{:>15} {:>13} {:>9} {:>8.2} s {:>10.1} {:>12.3} {:>12.2}",
                r.name,
                r.conditioning,
                r.bytes,
                r.wall.as_secs_f64(),
                r.ns_per_bit,
                r.wall_mbps,
                r.sim_mbps,
            );
            let mut fields = vec![
                ("name", Json::str(r.name)),
                ("conditioning", Json::str(&r.conditioning)),
                ("bytes", Json::num(r.bytes as f64)),
                ("wall_ns", Json::num(r.wall.as_nanos() as f64)),
                ("ns_per_bit", Json::num(r.ns_per_bit)),
                ("wall_mbps", Json::num(r.wall_mbps)),
                ("sim_mbps", Json::num(r.sim_mbps)),
            ];
            if let Some(c) = &r.composed {
                fields.push(("composed", c.to_json()));
            }
            Json::obj(fields)
        })
        .collect();

    let report = Json::obj(vec![
        ("group", Json::str("extract")),
        ("epsilon_log2", Json::num(f64::from(EPSILON_LOG2))),
        ("gate_ratio", Json::num(gate)),
        (
            "note",
            Json::str(
                "2-shard deterministic pool on the batched noise backend. \
                 design_xor is the paper's np=7 XOR baseline; toeplitz rows \
                 run the leftover-hash-sized seeded extractor (ratio 5 for \
                 the carry-chain claim at eps 2^-32) per shard and as the \
                 composed cross-shard stage over raw shards. wall figures \
                 are host simulator speed; sim_mbps is the simulated clock \
                 domain",
            ),
        ),
        ("benchmarks", Json::Arr(benchmarks)),
    ]);
    let path = write_report("extract", &report).expect("write BENCH_extract.json");
    println!("\nwrote {}", path.display());

    // Regression gate: Toeplitz must stay within `gate`x of the
    // design XOR ns/bit (it consumes 5 raw bits per output bit to the
    // XOR tree's 7, so parity or better is the expectation).
    let baseline = runs[0].ns_per_bit;
    for r in &runs[1..] {
        assert!(
            r.ns_per_bit <= gate * baseline,
            "{} regressed: {:.1} ns/bit vs design_xor {:.1} ns/bit (gate {gate}x)",
            r.name,
            r.ns_per_bit,
            baseline,
        );
    }
    // The composed row's leftover-hash claim must under-promise the
    // measured stream (16 KiB clears the 4 KiB measurement floor).
    let composed = runs[2].composed.as_ref().expect("composed stats");
    assert!(
        composed.claimed_min_entropy <= composed.measured_min_entropy,
        "composed claim {:.4} exceeds measured {:.4}",
        composed.claimed_min_entropy,
        composed.measured_min_entropy,
    );
}
