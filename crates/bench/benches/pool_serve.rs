//! Serving-layer bench: delivered entropy throughput over loopback at
//! 1 / 4 / 16 concurrent clients versus the in-process `fill_bytes`
//! baseline, written to `BENCH_serve.json`.
//!
//! The pool runs its threaded backend, so every scenario measures
//! real wall-clock delivery of the same simulated source. The
//! interesting number is the *overhead ratio*: how much of the pool's
//! in-process throughput survives framing, socket hops, and worker
//! scheduling. The source itself is the bottleneck (the simulator
//! produces ~100 KB/s, far below loopback bandwidth), so a healthy
//! serving layer keeps the ratio near 1.0 at every concurrency.
//!
//! Run with `cargo bench --bench pool_serve`; set
//! `TRNG_SERVE_BENCH_BYTES` to change the per-scenario volume and
//! `TRNG_BENCH_OUT_DIR` to redirect the JSON report.

use std::time::{Duration, Instant};

use trng_core::trng::TrngConfig;
use trng_pool::{Conditioning, EntropyPool, PoolConfig};
use trng_serve::{Client, ServeConfig, Server};
use trng_testkit::bench::{env, write_report};
use trng_testkit::json::Json;

const CLIENT_COUNTS: [usize; 3] = [1, 4, 16];
const SHARDS: usize = 2;
const CHUNK: u32 = 16 * 1024;

fn online_pool() -> EntropyPool {
    let config = PoolConfig::new(TrngConfig::paper_k1(), SHARDS)
        .with_conditioning(Conditioning::Raw)
        .with_seed(0x5EB0);
    let mut pool = EntropyPool::new(config).expect("pool build");
    pool.wait_online(Duration::from_secs(600))
        .expect("admission");
    pool
}

/// In-process baseline: one consumer draining the pool directly.
fn run_baseline(total: usize) -> f64 {
    let mut pool = online_pool();
    let mut sink = vec![0u8; total];
    let t0 = Instant::now();
    pool.fill_bytes(&mut sink).expect("baseline fill");
    total as f64 * 8.0 / t0.elapsed().as_secs_f64() / 1e6
}

/// Served scenario: `clients` concurrent loopback connections share
/// `total` bytes, each streaming its slice in protocol-sized chunks.
fn run_served(clients: usize, total: usize) -> f64 {
    let server = Server::start(
        online_pool().into_shared(),
        ServeConfig::default().with_workers(clients),
    )
    .expect("server start");
    let addr = server.local_addr();
    let per_client = total / clients;

    let t0 = Instant::now();
    let fetchers: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut got = 0usize;
                while got < per_client {
                    let want = CHUNK.min((per_client - got) as u32);
                    got += client.fetch(want).expect("bench fetch").len();
                }
                got
            })
        })
        .collect();
    let delivered: usize = fetchers
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .sum();
    let wall = t0.elapsed();

    assert_eq!(delivered, per_client * clients, "short delivery");
    let report = server.shutdown();
    assert_eq!(report.bytes_served, delivered as u64);
    delivered as f64 * 8.0 / wall.as_secs_f64() / 1e6
}

fn main() {
    let total = env("TRNG_SERVE_BENCH_BYTES").unwrap_or(192 * 1024);
    println!(
        "pool_serve: {total} bytes per scenario, {SHARDS}-shard threaded pool, raw conditioning\n"
    );

    let baseline_mbps = run_baseline(total);
    println!("{:>12} {:>14} {:>10}", "scenario", "wall Mb/s", "vs base");
    println!("{:>12} {baseline_mbps:>14.3} {:>9.2}x", "in-process", 1.0);

    let mut benchmarks = vec![Json::obj(vec![
        ("name", Json::str("in_process_baseline")),
        ("clients", Json::num(0.0)),
        ("bytes", Json::u64(total as u64)),
        ("wall_mbps", Json::num(baseline_mbps)),
        ("vs_baseline", Json::num(1.0)),
    ])];
    for &clients in &CLIENT_COUNTS {
        let mbps = run_served(clients, total);
        let ratio = mbps / baseline_mbps;
        println!(
            "{:>12} {mbps:>14.3} {ratio:>9.2}x",
            format!("{clients} client")
        );
        benchmarks.push(Json::obj(vec![
            ("name", Json::str(format!("loopback/{clients}_clients"))),
            ("clients", Json::u64(clients as u64)),
            ("bytes", Json::u64(total as u64)),
            ("wall_mbps", Json::num(mbps)),
            ("vs_baseline", Json::num(ratio)),
        ]));
    }

    let report = Json::obj(vec![
        ("group", Json::str("serve")),
        ("shards", Json::u64(SHARDS as u64)),
        ("conditioning", Json::str("raw")),
        (
            "note",
            Json::str(
                "threaded pool over loopback TCP; the simulated source (~100 KB/s) is \
                 the bottleneck, so vs_baseline near 1.0 means the serving layer adds \
                 negligible overhead at that concurrency",
            ),
        ),
        ("benchmarks", Json::Arr(benchmarks)),
    ]);
    let path = write_report("serve", &report).expect("write BENCH_serve.json");
    println!("\nwrote {}", path.display());
}
