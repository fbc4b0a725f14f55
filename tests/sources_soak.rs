//! Heterogeneous-source soak tests.
//!
//! The trace-replay round trip is the headline: record a carry-chain
//! capture, feed it back through the *full* pool stack (AIS-31
//! admission, SP 800-90B continuous gates, XOR conditioning, incident
//! journal) and demand the replay be indistinguishable from the live
//! run — byte-identical conditioned output, identical journal,
//! identical progress accounting. That equivalence is what makes a
//! recorded trace admissible evidence for an after-the-fact entropy
//! audit: whatever the gates saw live, they see again.
//!
//! The mixed-pool soak then drives all four backends through the
//! quarantine/readmit lifecycle, in one pool and each alone.

use std::sync::Arc;
use std::time::Duration;

use trng_core::trng::TrngConfig;
use trng_pool::testing::{
    assert_covers_byte_alphabet, assert_stream_health_clean, assert_unbiased,
};
use trng_pool::{
    Conditioning, DualOscConfig, EntropyPool, FaultInjection, IncidentKind, PoolConfig,
    RecordedTrace, ShardFault, ShardState, SourceKind, SourceSpec,
};
use trng_sources::mix_seed;

/// One-shard deterministic pool over the paper's k=1 design.
fn one_shard(seed: u64) -> PoolConfig {
    PoolConfig::new(TrngConfig::paper_k1(), 1)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(seed)
        .deterministic(true)
}

/// Records exactly the raw stream shard 0 of a pool seeded with
/// `pool_seed` consumes: same disjoint placement, same seed lane.
fn record_shard0(pool_seed: u64, nbytes: usize) -> Arc<RecordedTrace> {
    let config = TrngConfig::paper_k1()
        .for_shard(0)
        .expect("shard placement");
    Arc::new(RecordedTrace::record(&config, mix_seed(pool_seed, 0), nbytes).expect("capture"))
}

#[test]
fn trace_replay_round_trips_the_live_run_byte_for_byte() {
    const SEED: u64 = 0x7AC3;
    const OUT: usize = 2048;
    // Raw budget: one 2048-bit startup plus OUT bytes at XOR rate 7,
    // with slack so the trace never wraps.
    const RAW: usize = 2048 / 8 * 7 + OUT * 7 + 256;

    // Live run: the carry-chain backend straight through the pool.
    let mut live = EntropyPool::new(one_shard(SEED)).expect("pool");
    assert_eq!(
        live.wait_online(Duration::from_secs(60))
            .expect("admission"),
        1
    );
    let mut live_out = vec![0u8; OUT];
    live.fill_bytes(&mut live_out).expect("fill");
    let live_stats = live.stats();

    // Replay run: a recording of the very same raw stream, behind the
    // trace backend, through the same admission/gating/conditioning.
    let trace = record_shard0(SEED, RAW);
    let config = one_shard(SEED).with_sources(vec![SourceSpec::TraceReplay(trace)]);
    let mut replay = EntropyPool::new(config).expect("pool");
    assert_eq!(
        replay
            .wait_online(Duration::from_secs(60))
            .expect("admission"),
        1,
        "the recorded stream must re-pass the AIS-31 startup test"
    );
    let mut replay_out = vec![0u8; OUT];
    replay.fill_bytes(&mut replay_out).expect("fill");
    let replay_stats = replay.stats();

    // Conditioned output is byte-identical...
    assert_eq!(live_out, replay_out, "conditioned replay diverged");
    // ...the incident journal is identical (same spawns, no spurious
    // alarms, same simulated-clock stamps)...
    assert_eq!(live_stats.journal, replay_stats.journal);
    assert_eq!(live_stats.journal_recorded, replay_stats.journal_recorded);
    // ...and the progress accounting matches at every published field.
    let (l, r) = (&live_stats.shards[0], &replay_stats.shards[0]);
    assert_eq!(l.source, SourceKind::CarryChain);
    assert_eq!(r.source, SourceKind::TraceReplay);
    assert_eq!(l.claimed_min_entropy, r.claimed_min_entropy);
    assert_eq!(l.bytes_produced, r.bytes_produced);
    assert_eq!(l.raw_bits, r.raw_bits);
    assert_eq!(l.sim_elapsed, r.sim_elapsed);
    assert_eq!(l.startup_runs, r.startup_runs);
    assert_eq!((l.alarms, r.alarms), (0, 0));
    assert_eq!(l.state, ShardState::Online);
    assert_eq!(r.state, ShardState::Online);
}

#[test]
fn trace_replay_reproduces_a_live_incident_stamp_for_stamp() {
    const SEED: u64 = 0x51C6;
    const FAULT_AT: u64 = 1024;
    const OUT: usize = 4096;
    // Two startups plus the full output volume; sized so even the
    // post-readmit pass never wraps.
    const RAW: usize = 24 * 1024;

    let stuck = || FaultInjection {
        shard: 0,
        after_bytes: FAULT_AT,
        fault: ShardFault::Stuck,
        transient: true,
    };

    let mut live = EntropyPool::new(one_shard(SEED).with_fault(stuck())).expect("pool");
    let mut live_out = vec![0u8; OUT];
    live.fill_bytes(&mut live_out).expect("fill");
    let live_stats = live.stats();

    let trace = record_shard0(SEED, RAW);
    let config = one_shard(SEED)
        .with_sources(vec![SourceSpec::TraceReplay(trace)])
        .with_fault(stuck());
    let mut replay = EntropyPool::new(config).expect("pool");
    let mut replay_out = vec![0u8; OUT];
    replay.fill_bytes(&mut replay_out).expect("fill");
    let replay_stats = replay.stats();

    // Identical incident lifecycle on both sides.
    let kinds: Vec<IncidentKind> = live_stats.journal.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        [
            IncidentKind::Spawn,
            IncidentKind::Alarm,
            IncidentKind::Quarantine,
            IncidentKind::Readmit,
        ]
    );
    let replay_kinds: Vec<IncidentKind> = replay_stats.journal.iter().map(|e| e.kind).collect();
    assert_eq!(kinds, replay_kinds);
    // Up to and including the quarantine, the events carry identical
    // stamps: the frozen source freezes both clocks at the same
    // whole-byte boundary, so the replay's checkpoint flooring is
    // exact. (The readmission stamp legitimately differs: the live
    // carry chain rebuilds onto a fresh seed lane while the trace
    // rewinds to its head.)
    assert_eq!(live_stats.journal[..3], replay_stats.journal[..3]);

    // Everything delivered before the incident is byte-identical, and
    // both streams stay health-clean end to end.
    assert_eq!(
        live_out[..FAULT_AT as usize],
        replay_out[..FAULT_AT as usize]
    );
    assert_stream_health_clean(&live_out);
    assert_unbiased(&live_out);
    assert_stream_health_clean(&replay_out);
    assert_unbiased(&replay_out);
    for stats in [&live_stats, &replay_stats] {
        let s = &stats.shards[0];
        assert_eq!(s.alarms, 1);
        assert_eq!(s.readmissions, 1);
        assert_eq!(s.startup_runs, 2);
        assert_eq!(s.state, ShardState::Online);
    }
}

#[test]
fn mixed_pool_soaks_through_quarantine_on_every_backend() {
    const SEED: u64 = 0x4B1D;
    const OUT: usize = 16 * 1024;

    let trace =
        Arc::new(RecordedTrace::record(&TrngConfig::paper_k1(), 77, 48 * 1024).expect("capture"));
    let mut config = PoolConfig::new(TrngConfig::paper_k1(), 4)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(SEED)
        .deterministic(true)
        .with_sources(vec![
            SourceSpec::CarryChain,
            SourceSpec::DualOscillator(Box::new(DualOscConfig::betrusted_default())),
            SourceSpec::TraceReplay(trace),
            SourceSpec::OsEntropy,
        ]);
    // Every backend takes a transient Stuck hit at a different point
    // in its stream; every backend must quarantine and re-admit.
    for (shard, after_bytes) in [(0usize, 512u64), (1, 640), (2, 768), (3, 896)] {
        config = config.with_fault(FaultInjection {
            shard,
            after_bytes,
            fault: ShardFault::Stuck,
            transient: true,
        });
    }
    let mut pool = EntropyPool::new(config).expect("pool");
    assert_eq!(
        pool.wait_online(Duration::from_secs(120))
            .expect("admission"),
        4,
        "all four backends must pass AIS-31 admission"
    );
    let mut delivered = vec![0u8; OUT];
    pool.fill_bytes(&mut delivered).expect("fill");

    let stats = pool.stats();
    let kinds: Vec<SourceKind> = stats.shards.iter().map(|s| s.source).collect();
    assert_eq!(
        kinds,
        [
            SourceKind::CarryChain,
            SourceKind::DualOscillator,
            SourceKind::TraceReplay,
            SourceKind::OsEntropy,
        ]
    );
    for s in &stats.shards {
        assert_eq!(s.alarms, 1, "{} shard missed its injected alarm", s.source);
        assert_eq!(s.readmissions, 1, "{} shard was not re-admitted", s.source);
        assert_eq!(s.startup_runs, 2, "{} shard startup count", s.source);
        assert_eq!(s.state, ShardState::Online, "{} shard state", s.source);
        assert!(
            s.bytes_produced > 0,
            "{} shard contributed nothing",
            s.source
        );
    }
    assert_eq!(stats.total_alarms(), 4);
    assert_stream_health_clean(&delivered);
    assert_unbiased(&delivered);
    assert_covers_byte_alphabet(&delivered);

    // The interleaved mixed stream also clears the AIS-31 battery.
    use trng_stattests::ais31::run_ais31;
    use trng_stattests::bits::BitVec;
    let bits: BitVec = delivered
        .iter()
        .flat_map(|&byte| (0..8).rev().map(move |i| byte >> i & 1 == 1))
        .collect();
    let ais = run_ais31(&bits);
    assert!(ais.all_passed(), "{ais}");

    // Each backend alone behind a one-shard pool: admitted, serving,
    // and through the same Stuck drill a quarter of the way in.
    const ALONE: usize = 8 * 1024;
    // Two startups plus the whole output, with slack: never wraps.
    const TRACE: usize = 2 * (2048 / 8 * 7) + ALONE * 7 + 4096;
    for kind in SourceKind::all() {
        let spec = match kind {
            SourceKind::CarryChain => SourceSpec::CarryChain,
            SourceKind::DualOscillator => {
                SourceSpec::DualOscillator(Box::new(DualOscConfig::betrusted_default()))
            }
            SourceKind::TraceReplay => SourceSpec::TraceReplay(Arc::new(
                RecordedTrace::record(&TrngConfig::paper_k1(), 0x50CE, TRACE).expect("capture"),
            )),
            SourceKind::OsEntropy => SourceSpec::OsEntropy,
        };
        let config = one_shard(0x50CE)
            .with_sources(vec![spec])
            .with_fault(FaultInjection {
                shard: 0,
                after_bytes: ALONE as u64 / 4,
                fault: ShardFault::Stuck,
                transient: true,
            });
        let mut pool = EntropyPool::new(config).expect("pool");
        assert_eq!(
            pool.wait_online(Duration::from_secs(120))
                .expect("admission"),
            1,
            "{kind} must pass AIS-31 admission"
        );
        let mut delivered = vec![0u8; ALONE];
        pool.fill_bytes(&mut delivered).expect("fill");
        let s = &pool.stats().shards[0];
        assert_eq!(s.source, kind);
        assert_eq!(
            (s.alarms, s.readmissions, s.startup_runs),
            (1, 1, 2),
            "{kind}: alarms / readmissions / startups"
        );
        assert_eq!(s.state, ShardState::Online, "{kind} shard state");
        assert_covers_byte_alphabet(&delivered);
    }
}
