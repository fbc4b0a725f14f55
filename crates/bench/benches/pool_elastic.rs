//! Elastic-pool bench: delivered throughput of a threaded pool while
//! a scripted kill/respawn cycle runs under it, versus the same pool
//! left unharmed, written to `BENCH_elastic.json`.
//!
//! Three scenarios over the same 3-shard pool and byte volume:
//!
//! * `baseline` — no faults; every shard survives the whole run.
//! * `kill_no_respawn` — shard 1 dies persistently mid-stream and no
//!   respawn policy is set: the tail is served by 2 of 3 shards.
//! * `kill_respawn` — the same death with a respawn budget of one:
//!   the supervisor spawns a replacement on a fresh placement, which
//!   passes the admission gate and carries the tail.
//!
//! The interesting number is how much of the unharmed throughput the
//! healed pool retains: the respawn path costs one admission gate and
//! one discarded block, so `kill_respawn` should sit well above
//! `kill_no_respawn` and close to `baseline`.
//!
//! Run with `cargo bench --bench pool_elastic`; set
//! `TRNG_ELASTIC_BENCH_BYTES` to change the per-scenario volume and
//! `TRNG_BENCH_OUT_DIR` to redirect the JSON report.

use std::time::{Duration, Instant};

use trng_core::trng::TrngConfig;
use trng_pool::testing::dead_fault;
use trng_pool::{Conditioning, EntropyPool, PoolConfig, RespawnPolicy};
use trng_testkit::bench::{env, write_report};
use trng_testkit::json::Json;

const SHARDS: usize = 3;
/// Per-shard healthy-byte offset at which the scripted kill fires —
/// past the ring prefill, so the death lands mid-drain.
const KILL_AT: u64 = 16 * 1024;

fn base_config() -> PoolConfig {
    PoolConfig::new(TrngConfig::paper_k1(), SHARDS)
        .with_conditioning(Conditioning::Raw)
        .with_seed(0xE1A5B)
}

fn kill_shard_1(config: PoolConfig) -> PoolConfig {
    config.with_fault(dead_fault(1, KILL_AT, false))
}

/// Fills `total` bytes through the threaded backend and returns
/// (wall Mb/s, final stats).
fn run(config: PoolConfig, total: usize) -> (f64, trng_pool::PoolStats) {
    let mut pool = EntropyPool::new(config).expect("pool build");
    pool.wait_online(Duration::from_secs(600))
        .expect("admission");
    let mut sink = vec![0u8; total];
    let t0 = Instant::now();
    pool.fill_bytes(&mut sink).expect("bench fill");
    let mbps = total as f64 * 8.0 / t0.elapsed().as_secs_f64() / 1e6;
    (mbps, pool.stats())
}

fn main() {
    let total = env("TRNG_ELASTIC_BENCH_BYTES").unwrap_or(256 * 1024);
    println!(
        "pool_elastic: {total} bytes per scenario, {SHARDS}-shard threaded pool, \
         kill at {KILL_AT} healthy bytes on shard 1\n"
    );
    println!("{:>16} {:>14} {:>10}", "scenario", "wall Mb/s", "vs base");

    let (baseline_mbps, baseline_stats) = run(base_config(), total);
    assert_eq!(baseline_stats.total_alarms(), 0, "baseline must stay clean");
    println!("{:>16} {baseline_mbps:>14.3} {:>9.2}x", "baseline", 1.0);

    let (degraded_mbps, degraded_stats) = run(kill_shard_1(base_config()), total);
    assert_eq!(degraded_stats.respawns, 0);
    assert_eq!(degraded_stats.online_shards(), SHARDS - 1);
    let degraded_ratio = degraded_mbps / baseline_mbps;
    println!(
        "{:>16} {degraded_mbps:>14.3} {degraded_ratio:>9.2}x",
        "kill_no_respawn"
    );

    let (healed_mbps, healed_stats) = run(
        kill_shard_1(base_config()).with_respawn(RespawnPolicy::new(SHARDS, 1)),
        total,
    );
    assert_eq!(
        healed_stats.respawns, 1,
        "the kill must trigger one respawn"
    );
    assert_eq!(healed_stats.online_shards(), SHARDS);
    let healed_ratio = healed_mbps / baseline_mbps;
    println!(
        "{:>16} {healed_mbps:>14.3} {healed_ratio:>9.2}x",
        "kill_respawn"
    );

    let report = Json::obj(vec![
        ("group", Json::str("elastic")),
        ("shards", Json::u64(SHARDS as u64)),
        ("conditioning", Json::str("raw")),
        ("kill_at_bytes", Json::u64(KILL_AT)),
        (
            "note",
            Json::str(
                "threaded pool, persistent kill of shard 1 mid-stream; kill_respawn \
                 heals via one supervisor respawn (admission-gated replacement) and \
                 should retain most of the unharmed baseline throughput",
            ),
        ),
        (
            "benchmarks",
            Json::Arr(vec![
                Json::obj(vec![
                    ("name", Json::str("baseline")),
                    ("bytes", Json::u64(total as u64)),
                    ("wall_mbps", Json::num(baseline_mbps)),
                    ("vs_baseline", Json::num(1.0)),
                    ("respawns", Json::u64(0)),
                    ("journal_events", Json::u64(baseline_stats.journal_recorded)),
                ]),
                Json::obj(vec![
                    ("name", Json::str("kill_no_respawn")),
                    ("bytes", Json::u64(total as u64)),
                    ("wall_mbps", Json::num(degraded_mbps)),
                    ("vs_baseline", Json::num(degraded_ratio)),
                    ("respawns", Json::u64(0)),
                    ("journal_events", Json::u64(degraded_stats.journal_recorded)),
                ]),
                Json::obj(vec![
                    ("name", Json::str("kill_respawn")),
                    ("bytes", Json::u64(total as u64)),
                    ("wall_mbps", Json::num(healed_mbps)),
                    ("vs_baseline", Json::num(healed_ratio)),
                    ("respawns", Json::u64(u64::from(healed_stats.respawns))),
                    ("journal_events", Json::u64(healed_stats.journal_recorded)),
                ]),
            ]),
        ),
    ]);
    let path = write_report("elastic", &report).expect("write BENCH_elastic.json");
    println!("\nwrote {}", path.display());
}
