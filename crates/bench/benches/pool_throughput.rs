//! Pool scaling bench: aggregate entropy throughput versus shard
//! count, on both noise backends, written to `BENCH_pool.json`.
//!
//! Two clock domains matter here and must not be conflated:
//!
//! * **simulated time** — the hardware domain the paper's Table 2
//!   reports. N shards are N physical TRNG instances running
//!   concurrently on the fabric, so aggregate throughput scales ~N×
//!   (minus the per-shard start-up test overhead).
//! * **wall-clock time** — how fast *this simulator* produces those
//!   bytes on the host. It is reported for context but does not scale
//!   with shard count on a small host, because every simulated bit
//!   costs the same CPU work regardless of which shard draws it. The
//!   noise backend moves exactly this axis: the batched engine
//!   synthesizes whole edge trains at once, multiplying wall
//!   throughput while leaving the simulated-time domain untouched.
//!
//! Run with `cargo bench --bench pool_throughput`; set
//! `TRNG_POOL_BENCH_BYTES` to change the per-configuration volume and
//! `TRNG_BENCH_OUT_DIR` to redirect the JSON report.

use std::time::{Duration, Instant};

use trng_core::trng::TrngConfig;
use trng_pool::{Conditioning, EntropyPool, NoiseBackend, PoolConfig};
use trng_testkit::bench::{env, write_report};
use trng_testkit::json::Json;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Run {
    shards: usize,
    backend: NoiseBackend,
    bytes: usize,
    wall: Duration,
    wall_mbps: f64,
    sim_mbps: f64,
}

fn run_one(shards: usize, backend: NoiseBackend, bytes: usize) -> Run {
    // Deterministic replay mode: the measurement is reproducible and
    // free of thread-scheduling noise.
    let config = PoolConfig::new(TrngConfig::paper_k1(), shards)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0xBE4C)
        .with_noise_backend(backend)
        .deterministic(true);
    let mut pool = EntropyPool::new(config).expect("pool build");
    pool.wait_online(Duration::from_secs(600))
        .expect("admission");
    let mut sink = vec![0u8; bytes];
    let t0 = Instant::now();
    pool.fill_bytes(&mut sink).expect("fill");
    let wall = t0.elapsed();
    let stats = pool.stats();
    assert_eq!(stats.total_alarms(), 0, "healthy bench run alarmed");
    for shard in &stats.shards {
        assert_eq!(shard.noise_backend, backend, "shard backend label");
    }
    Run {
        shards,
        backend,
        bytes,
        wall,
        wall_mbps: bytes as f64 * 8.0 / wall.as_secs_f64() / 1e6,
        sim_mbps: stats.sim_throughput_bps() / 1e6,
    }
}

fn main() {
    let bytes = env("TRNG_POOL_BENCH_BYTES").unwrap_or(16 * 1024);
    println!("pool_throughput: {bytes} bytes per configuration, design-rate XOR\n");

    let runs: Vec<Run> = [NoiseBackend::Scalar, NoiseBackend::Batched]
        .iter()
        .flat_map(|&backend| {
            SHARD_COUNTS
                .iter()
                .map(move |&n| run_one(n, backend, bytes))
        })
        .collect();
    // Speedups are relative to the same backend's 1-shard run: the
    // scaling story is about shards, not about the engine.
    let base_sim = |backend: NoiseBackend| -> f64 {
        runs.iter()
            .find(|r| r.backend == backend && r.shards == 1)
            .expect("1-shard run")
            .sim_mbps
    };

    println!(
        "{:>7} {:>8} {:>10} {:>12} {:>14} {:>14} {:>10}",
        "shards", "backend", "bytes", "wall", "wall Mb/s", "sim Mb/s", "speedup"
    );
    let benchmarks: Vec<Json> = runs
        .iter()
        .map(|r| {
            let speedup = r.sim_mbps / base_sim(r.backend);
            println!(
                "{:>7} {:>8} {:>10} {:>10.2} s {:>14.3} {:>14.2} {:>9.2}x",
                r.shards,
                r.backend,
                r.bytes,
                r.wall.as_secs_f64(),
                r.wall_mbps,
                r.sim_mbps,
                speedup,
            );
            // The scalar rows keep their original names so older
            // tooling reading BENCH_pool.json sees the same series;
            // the batched rows and the noise_backend key are additive.
            let name = match r.backend {
                NoiseBackend::Scalar => format!("shards/{}", r.shards),
                NoiseBackend::Batched => format!("shards/{}/batched", r.shards),
            };
            Json::obj(vec![
                ("name", Json::str(name)),
                ("shards", Json::num(r.shards as f64)),
                ("noise_backend", Json::str(r.backend.as_str())),
                ("bytes", Json::num(r.bytes as f64)),
                ("wall_ns", Json::num(r.wall.as_nanos() as f64)),
                ("wall_mbps", Json::num(r.wall_mbps)),
                ("sim_mbps", Json::num(r.sim_mbps)),
                ("sim_speedup_vs_1shard", Json::num(speedup)),
            ])
        })
        .collect();

    let report = Json::obj(vec![
        ("group", Json::str("pool")),
        ("conditioning", Json::str("design_xor_np7")),
        (
            "note",
            Json::str(
                "sim_mbps is throughput in simulated (hardware) time, the paper's \
                 Table-2 domain; wall_mbps is host simulator speed and does not \
                 scale with shards on a small host. The batched rows run the \
                 statistically-equivalent whole-window noise engine: identical \
                 sim_mbps domain, several-fold wall_mbps",
            ),
        ),
        ("benchmarks", Json::Arr(benchmarks)),
    ]);
    let path = write_report("pool", &report).expect("write BENCH_pool.json");
    println!("\nwrote {}", path.display());

    for backend in [NoiseBackend::Scalar, NoiseBackend::Batched] {
        let four = runs
            .iter()
            .find(|r| r.backend == backend && r.shards == 4)
            .expect("4-shard run");
        let speedup4 = four.sim_mbps / base_sim(backend);
        assert!(
            speedup4 >= 3.0,
            "{backend}: 4-shard simulated-time speedup {speedup4:.2}x fell below 3x"
        );
    }
    // Wall-clock is where the batched engine must show up: same
    // 1-shard workload, same process, conservative 1.5x floor (the
    // reference host sits around 6x).
    let wall = |backend: NoiseBackend| -> f64 {
        runs.iter()
            .find(|r| r.backend == backend && r.shards == 1)
            .expect("1-shard run")
            .wall_mbps
    };
    let wall_speedup = wall(NoiseBackend::Batched) / wall(NoiseBackend::Scalar);
    assert!(
        wall_speedup >= 1.5,
        "batched 1-shard wall throughput is only {wall_speedup:.2}x scalar"
    );
    println!("batched 1-shard wall speedup: {wall_speedup:.2}x");
}
