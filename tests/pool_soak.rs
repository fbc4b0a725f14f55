//! Pool soak tests: multi-shard runs with a mid-stream fault injected
//! into one shard. The delivered stream must stay health-clean — the
//! zero-unhealthy-bytes guarantee — and `PoolStats` must record
//! exactly the injected quarantine, nothing more. Fault-free 1 MB
//! cases pin the other side: a threaded raw pool and a composed
//! Toeplitz pool stream without a single alarm, and the composed
//! stage's min-entropy claim stays below what it measures.
//!
//! A deterministic shard-count sweep pins the simulated-time (Table-2
//! domain) throughput scaling exactly.
//!
//! The first tests run in tier-1 CI; the statistics-battery soak at
//! the bottom is ignored by default (run with `--ignored`).

use std::time::Duration;

use trng_core::trng::TrngConfig;
use trng_pool::testing::{
    assert_covers_byte_alphabet, assert_stream_health_clean, assert_unbiased, dead_fault,
};
use trng_pool::{
    ComposedExtract, Conditioning, EntropyPool, NoiseBackend, PoolConfig, PoolError, ShardState,
};

#[test]
fn deterministic_soak_injected_fault_never_taints_the_stream() {
    // Three shards, shard 1 sabotaged after it has contributed 2 KiB.
    let config = PoolConfig::new(TrngConfig::paper_k1(), 3)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0x50AC)
        .with_fault(dead_fault(1, 2048, true))
        .deterministic(true);
    let mut pool = EntropyPool::new(config).expect("pool");
    assert_eq!(
        pool.wait_online(Duration::from_secs(60))
            .expect("admission"),
        3
    );

    let mut delivered = vec![0u8; 16 * 1024];
    pool.fill_bytes(&mut delivered).expect("fill");

    // The incident is fully recorded: exactly one alarm, one
    // quarantine round-trip, on exactly the sabotaged shard.
    let stats = pool.stats();
    let s1 = &stats.shards[1];
    assert_eq!(s1.alarms, 1, "expected exactly the injected alarm");
    assert_eq!(s1.readmissions, 1, "transient fault must be re-admitted");
    assert_eq!(s1.startup_runs, 2, "initial admission + one re-test");
    assert_eq!(s1.state, ShardState::Online);
    for s in [&stats.shards[0], &stats.shards[2]] {
        assert_eq!(s.alarms, 0, "healthy shard {} alarmed", s.id);
        assert_eq!(s.readmissions, 0);
        assert_eq!(s.startup_runs, 1);
        assert_eq!(s.state, ShardState::Online);
    }
    assert_eq!(stats.total_alarms(), 1);
    assert_eq!(stats.bytes_delivered, delivered.len() as u64);

    // Zero-unhealthy-bytes guarantee on the actual delivered stream.
    assert_stream_health_clean(&delivered);
    assert_unbiased(&delivered);

    // And the incident replays byte-identically.
    let config = PoolConfig::new(TrngConfig::paper_k1(), 3)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0x50AC)
        .with_fault(dead_fault(1, 2048, true))
        .deterministic(true);
    let mut replay_pool = EntropyPool::new(config).expect("pool");
    let mut replay = vec![0u8; 16 * 1024];
    replay_pool.fill_bytes(&mut replay).expect("fill");
    assert_eq!(delivered, replay, "replay diverged");
    assert_eq!(pool.stats(), replay_pool.stats());
}

#[test]
fn threaded_soak_quarantines_and_heals_under_load() {
    let config = PoolConfig::new(TrngConfig::paper_k1(), 2)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0xBEE)
        .with_block_bytes(128)
        .with_fault(dead_fault(0, 1024, true));
    let mut pool = EntropyPool::new(config).expect("pool");
    assert_eq!(
        pool.wait_online(Duration::from_secs(120))
            .expect("admission"),
        2
    );

    let mut delivered = vec![0u8; 8 * 1024];
    pool.fill_bytes(&mut delivered).expect("fill");
    assert_stream_health_clean(&delivered);
    assert_unbiased(&delivered);

    // The sabotaged shard must have alarmed exactly once; give the
    // worker a moment to finish the re-admission test if it is still
    // mid-retest when the fill completes.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let stats = loop {
        let stats = pool.stats();
        if stats.shards[0].state != ShardState::Quarantined || std::time::Instant::now() >= deadline
        {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(stats.shards[0].alarms, 1);
    assert_eq!(stats.shards[0].readmissions, 1);
    assert_eq!(stats.shards[0].state, ShardState::Online);
    assert_eq!(stats.shards[1].alarms, 0);
    assert_eq!(stats.shards[1].state, ShardState::Online);

    // Fault-free case: the same threaded path streams 1 MB of raw
    // bytes through its workers, rings and gates without a single
    // alarm, every shard contributing and ending online.
    let config = PoolConfig::new(TrngConfig::paper_k1(), 2)
        .with_conditioning(Conditioning::Raw)
        .with_seed(0xC1C1);
    let mut pool = EntropyPool::new(config).expect("pool");
    assert_eq!(
        pool.wait_online(Duration::from_secs(120))
            .expect("admission"),
        2
    );
    let mut delivered = vec![0u8; 1_000_000];
    for chunk in delivered.chunks_mut(64 * 1024) {
        pool.fill_bytes(chunk).expect("fill");
    }
    let stats = pool.stats();
    assert_eq!(stats.total_alarms(), 0, "alarms on a healthy source");
    for s in &stats.shards {
        assert_eq!(s.state, ShardState::Online, "shard {} state", s.id);
        assert!(s.bytes_produced > 0, "shard {} produced nothing", s.id);
    }
    assert_covers_byte_alphabet(&delivered);
}

#[test]
fn pool_runs_dry_with_typed_error_when_last_shard_dies() {
    // One shard with a *persistent* fault and a budget of one alarm:
    // it retires at re-admission and the pool must surface that as
    // `SourcesExhausted` — after an intact healthy prefix.
    let config = PoolConfig::new(TrngConfig::paper_k1(), 1)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0xD1E)
        .with_fault(dead_fault(0, 1024, false))
        .deterministic(true);
    let mut pool = EntropyPool::new(config).expect("pool");
    let mut sink = vec![0u8; 1 << 20];
    match pool.fill_bytes(&mut sink) {
        Err(PoolError::SourcesExhausted { filled }) => {
            assert!(filled >= 1024, "healthy prefix was {filled}");
            assert!(filled < sink.len());
            assert_stream_health_clean(&sink[..filled]);
            assert_unbiased(&sink[..filled]);
        }
        other => panic!("expected SourcesExhausted, got {other:?}"),
    }
    let stats = pool.stats();
    assert_eq!(stats.shards[0].state, ShardState::Retired);
    assert_eq!(stats.shards[0].alarms, 1);
    assert_eq!(stats.shards[0].readmissions, 0);

    // The same persistent death in one of three shards, with no
    // respawn policy: the survivors carry the tail and nothing is
    // spawned in its place.
    let config = PoolConfig::new(TrngConfig::paper_k1(), 3)
        .with_conditioning(Conditioning::Raw)
        .with_seed(0xE1A5B)
        .with_fault(dead_fault(1, 2048, false))
        .deterministic(true);
    let mut pool = EntropyPool::new(config).expect("pool");
    let mut delivered = vec![0u8; 16 * 1024];
    pool.fill_bytes(&mut delivered).expect("fill");
    let stats = pool.stats();
    assert_eq!(stats.shards[1].state, ShardState::Retired);
    assert_eq!(stats.respawns, 0);
    assert_eq!(stats.online_shards(), 2);
    assert_eq!(stats.bytes_delivered, delivered.len() as u64);
}

#[test]
fn trimmed_battery_passes_in_tier1() {
    use trng_stattests::ais31::run_ais31;
    use trng_stattests::bits::BitVec;
    use trng_stattests::nist::run_battery;

    // Tier-1 sized variant of the full soak below: 24 KiB over two
    // shards with one transient mid-stream fault. Tests that need more
    // data (universal, linear complexity, ...) skip as not applicable
    // and do not count as failures.
    let config = PoolConfig::new(TrngConfig::paper_k1(), 2)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0xFEED)
        .with_fault(dead_fault(1, 4096, true))
        .deterministic(true);
    let mut pool = EntropyPool::new(config).expect("pool");
    let mut delivered = vec![0u8; 24 * 1024];
    pool.fill_bytes(&mut delivered).expect("fill");

    let stats = pool.stats();
    assert_eq!(stats.total_alarms(), 1);
    assert_eq!(stats.shards[1].readmissions, 1);
    assert_stream_health_clean(&delivered);
    assert_unbiased(&delivered);

    let bits: BitVec = delivered
        .iter()
        .flat_map(|&byte| (0..8).rev().map(move |i| byte >> i & 1 == 1))
        .collect();
    let ais = run_ais31(&bits);
    assert!(ais.all_passed(), "{ais}");
    let battery = run_battery(&bits);
    assert!(
        battery.applicable() >= 8,
        "too few applicable tests\n{battery}"
    );
    assert!(
        battery.failures().len() <= 1,
        "NIST failures: {:?}\n{battery}",
        battery.failures()
    );

    // Composed case: raw shards feeding the pool-level Toeplitz stage
    // at its leftover-hash ratio stream 1 MB with zero alarms, and the
    // stage's claim stays at or below the min-entropy it measures.
    let composed = || {
        PoolConfig::new(TrngConfig::paper_k1(), 2)
            .with_conditioning(Conditioning::Raw)
            .with_composed_extract(ComposedExtract::new(32, 0x70E9))
            .with_seed(0xE47AC7)
            .deterministic(true)
    };
    let mut pool = EntropyPool::new(composed()).expect("pool");
    assert_eq!(
        pool.wait_online(Duration::from_secs(120))
            .expect("admission"),
        2
    );
    let mut stream = vec![0u8; 1_000_000];
    pool.fill_bytes(&mut stream).expect("fill");
    let stats = pool.stats();
    assert_eq!(stats.total_alarms(), 0);
    for s in &stats.shards {
        assert_eq!(s.state, ShardState::Online, "shard {} state", s.id);
    }
    let c = stats.composed.as_ref().expect("composed stats");
    assert!(
        c.ratio <= 7,
        "ratio {} wider than the design's np = 7",
        c.ratio
    );
    assert!(c.bytes_extracted >= stream.len() as u64);
    assert!(
        c.claimed_min_entropy <= c.measured_min_entropy,
        "claimed {} > measured {}",
        c.claimed_min_entropy,
        c.measured_min_entropy
    );
    assert!(
        c.measured_min_entropy >= 0.9,
        "measured min-entropy {} below the 0.9/bit floor",
        c.measured_min_entropy
    );
    let mut replay = vec![0u8; 4096];
    EntropyPool::new(composed())
        .expect("pool")
        .fill_bytes(&mut replay)
        .expect("fill");
    assert_eq!(replay, stream[..4096], "composed stream must replay");
}

#[test]
fn sim_domain_throughput_scales_with_shard_count() {
    // The paper's Table-2 domain: N shards are N TRNG instances running
    // in the same simulated window, so simulated-time throughput scales
    // ~N×, less each shard's start-up test spend. Deterministic pools
    // make every figure exact (Mb/s, 16 KiB per configuration).
    const EXPECTED_SIM_MBPS: [(usize, f64); 4] = [
        (1, 14.065934065934067),
        (2, 27.705627705627705),
        (4, 53.78151260504202),
        (8, 101.58730158730158),
    ];
    let mut sim_mbps = Vec::new();
    for (shards, expected) in EXPECTED_SIM_MBPS {
        let config = PoolConfig::new(TrngConfig::paper_k1(), shards)
            .with_conditioning(Conditioning::DesignXor)
            .with_seed(0xBE4C)
            .deterministic(true);
        let mut pool = EntropyPool::new(config).expect("pool");
        let mut sink = vec![0u8; 16 * 1024];
        pool.fill_bytes(&mut sink).expect("fill");
        let stats = pool.stats();
        assert_eq!(stats.total_alarms(), 0, "{shards} shards alarmed");
        for s in &stats.shards {
            assert_eq!(s.noise_backend, NoiseBackend::Batched, "shard {}", s.id);
        }
        let mbps = stats.sim_throughput_bps() / 1e6;
        assert_eq!(mbps, expected, "{shards}-shard simulated Mb/s");
        sim_mbps.push(mbps);
    }
    let speedup4 = sim_mbps[2] / sim_mbps[0];
    assert!(
        speedup4 >= 3.0,
        "4-shard simulated-time speedup {speedup4:.2}x fell below 3x"
    );
}

#[test]
#[ignore = "multi-minute soak run; execute with --ignored"]
fn pooled_output_passes_the_statistical_batteries() {
    use trng_stattests::ais31::run_ais31;
    use trng_stattests::bits::BitVec;
    use trng_stattests::nist::run_battery;

    // Four shards, one transient mid-stream fault, AIS-31 + NIST on
    // the interleaved pooled output.
    let config = PoolConfig::new(TrngConfig::paper_k1(), 4)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0xFEED)
        .with_fault(dead_fault(2, 8192, true))
        .deterministic(true);
    let mut pool = EntropyPool::new(config).expect("pool");
    let mut delivered = vec![0u8; 64 * 1024];
    pool.fill_bytes(&mut delivered).expect("fill");

    let stats = pool.stats();
    assert_eq!(stats.total_alarms(), 1);
    assert_eq!(stats.shards[2].readmissions, 1);

    let bits: BitVec = delivered
        .iter()
        .flat_map(|&byte| (0..8).rev().map(move |i| byte >> i & 1 == 1))
        .collect();
    let ais = run_ais31(&bits);
    assert!(ais.all_passed(), "{ais}");
    let battery = run_battery(&bits);
    assert!(
        battery.failures().len() <= 1,
        "NIST failures: {:?}\n{battery}",
        battery.failures()
    );
}
