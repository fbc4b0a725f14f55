//! Elastic-pool chaos soak: scripted shard kills mid-stream, with a
//! respawn budget. The pool must heal itself — spawning replacement
//! shards on fresh placements that pass the same admission gate —
//! while the delivered stream stays byte-exact and health-clean, and
//! the incident journal must match the fault script event-for-event.
//!
//! The deterministic replay backend makes the whole campaign a pure
//! function of the configuration: the same script replays to the same
//! bytes, the same stats and the same journal.

use std::time::Duration;

use trng_core::trng::TrngConfig;
use trng_pool::testing::{assert_stream_health_clean, dead_fault};
use trng_pool::{
    Conditioning, EntropyPool, IncidentKind, PoolConfig, PoolError, PoolHealth, RespawnPolicy,
    ShardOrigin, ShardState,
};

/// The chaos script: shard 2 takes a transient hit (quarantine and
/// re-admission), shard 1 dies persistently (retired, then replaced by
/// respawned shard 3 on a fresh placement).
fn chaos_config() -> PoolConfig {
    PoolConfig::new(TrngConfig::paper_k1(), 3)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0xE1A5)
        .with_block_bytes(64)
        .with_fault(dead_fault(2, 1024, true))
        .with_fault(dead_fault(1, 2048, false))
        .with_respawn(RespawnPolicy::new(3, 2))
        .deterministic(true)
}

#[test]
fn chaos_script_heals_byte_exactly_with_a_matching_journal() {
    let mut pool = EntropyPool::new(chaos_config()).expect("pool");
    assert_eq!(
        pool.wait_online(Duration::from_secs(60))
            .expect("admission"),
        3
    );
    let mut delivered = vec![0u8; 32 * 1024];
    pool.fill_bytes(&mut delivered).expect("fill");
    assert_stream_health_clean(&delivered);

    let stats = pool.stats();
    // Exactly one respawn: shard 1's persistent death, healed by
    // shard 3 on the next fresh placement.
    assert_eq!(stats.respawns, 1);
    assert_eq!(stats.respawns_available, 1);
    assert_eq!(stats.shards.len(), 4);
    assert_eq!(stats.shards[1].state, ShardState::Retired);
    assert!(stats.shards[1].superseded);
    assert_eq!(stats.shards[3].origin, ShardOrigin::Respawn { replaces: 1 });
    assert_eq!(stats.shards[3].state, ShardState::Online);
    assert_eq!(
        stats.shards[3].startup_runs, 1,
        "replacement must pass the same startup gate"
    );
    assert!(stats.shards[3].bytes_produced > 0);
    // The transient incident healed in place.
    assert_eq!(stats.shards[2].state, ShardState::Online);
    assert_eq!(stats.shards[2].readmissions, 1);
    // The healed pool reads healthy — the superseded retiree is out of
    // the live set.
    assert_eq!(stats.health(), PoolHealth::Healthy);

    // Journal matches the script event-for-event, per shard:
    let kinds = |shard: usize| -> Vec<IncidentKind> {
        stats
            .journal
            .iter()
            .filter(|e| e.shard == shard)
            .map(|e| e.kind)
            .collect()
    };
    assert_eq!(kinds(0), [IncidentKind::Spawn]);
    assert_eq!(
        kinds(1),
        [
            IncidentKind::Spawn,
            IncidentKind::Alarm,
            IncidentKind::Quarantine,
            IncidentKind::Retire,
        ]
    );
    assert_eq!(
        kinds(2),
        [
            IncidentKind::Spawn,
            IncidentKind::Alarm,
            IncidentKind::Quarantine,
            IncidentKind::Readmit,
        ]
    );
    assert_eq!(kinds(3), [IncidentKind::Respawn]);
    assert_eq!(stats.journal.len(), 10);
    assert_eq!(stats.journal_recorded, 10);
    // Stamps are meaningful: the alarms fired at (or after) their
    // scripted byte offsets, and the respawn names its predecessor.
    let event = |shard, kind| {
        stats
            .journal
            .iter()
            .find(|e| e.shard == shard && e.kind == kind)
            .expect("scripted event missing")
    };
    assert!(event(2, IncidentKind::Alarm).at_bytes >= 1024);
    assert!(event(1, IncidentKind::Alarm).at_bytes >= 2048);
    assert!(event(1, IncidentKind::Alarm).sim_ns > 0);
    let respawn = event(3, IncidentKind::Respawn);
    assert_eq!(respawn.detail, 1, "respawn must name the replaced shard");
    assert!(respawn.at_bytes >= 2048, "stamped at the retiree's offset");
    // The failed re-admission carries its startup failure mask.
    assert_ne!(event(1, IncidentKind::Retire).detail, 0);

    // Byte-identical healthy replay: the same script yields the same
    // stream, the same stats and the same journal.
    let mut replay_pool = EntropyPool::new(chaos_config()).expect("pool");
    let mut replay = vec![0u8; 32 * 1024];
    replay_pool.fill_bytes(&mut replay).expect("fill");
    assert_eq!(delivered, replay, "replay diverged");
    assert_eq!(pool.stats(), replay_pool.stats());

    // Single-death case with a budget of exactly one respawn: the
    // whole journal, across shards and in order, is the scripted
    // story and nothing else.
    let config = PoolConfig::new(TrngConfig::paper_k1(), 3)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0xE1A57)
        .with_block_bytes(64)
        .with_fault(dead_fault(1, 2048, false))
        .with_respawn(RespawnPolicy::new(3, 1))
        .deterministic(true);
    let mut pool = EntropyPool::new(config).expect("pool");
    pool.wait_online(Duration::from_secs(60))
        .expect("admission");
    let mut delivered = vec![0u8; 32 * 1024];
    pool.fill_bytes(&mut delivered).expect("fill");
    assert_stream_health_clean(&delivered);
    let stats = pool.stats();
    assert_eq!(stats.respawns, 1);
    assert_eq!(stats.shards.len(), 4);
    assert_eq!(stats.shards[1].state, ShardState::Retired);
    assert!(stats.shards[1].superseded);
    assert_eq!(stats.shards[3].state, ShardState::Online);
    assert_eq!(stats.health(), PoolHealth::Healthy);
    let story: Vec<(usize, IncidentKind)> =
        stats.journal.iter().map(|e| (e.shard, e.kind)).collect();
    assert_eq!(
        story,
        [
            (0, IncidentKind::Spawn),
            (1, IncidentKind::Spawn),
            (2, IncidentKind::Spawn),
            (1, IncidentKind::Alarm),
            (1, IncidentKind::Quarantine),
            (1, IncidentKind::Retire),
            (3, IncidentKind::Respawn),
        ]
    );
    assert_eq!(stats.journal_recorded, 7);
}

#[test]
fn spent_budget_ends_in_typed_exhaustion_with_every_attempt_journaled() {
    // The same kind of persistent-death script, but the budget cannot
    // cover it: the sole shard dies, both replacements die too, and
    // the pool must end in the typed error — after an intact healthy
    // prefix — with every spawn attempt in the journal.
    let config = PoolConfig::new(TrngConfig::paper_k1(), 1)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0xDEAD)
        .with_block_bytes(64)
        .with_max_readmissions(0)
        .with_fault(dead_fault(0, 1024, false))
        .with_fault(dead_fault(1, 512, false))
        .with_fault(dead_fault(2, 0, false))
        .with_respawn(RespawnPolicy::new(1, 2))
        .deterministic(true);
    let mut pool = EntropyPool::new(config).expect("pool");
    let mut sink = vec![0u8; 1 << 20];
    match pool.fill_bytes(&mut sink) {
        Err(PoolError::SourcesExhausted { filled }) => {
            assert!(filled >= 1024 + 512, "healthy prefix was {filled}");
            assert!(filled < sink.len());
            assert_stream_health_clean(&sink[..filled]);
        }
        other => panic!("expected SourcesExhausted, got {other:?}"),
    }
    let stats = pool.stats();
    assert_eq!(stats.respawns, 2);
    assert_eq!(stats.respawns_available, 0);
    assert_eq!(stats.health(), PoolHealth::Exhausted);
    assert_eq!(stats.shards.len(), 3);
    // Every attempt is auditable: two respawn events, three retires.
    let count = |kind| stats.journal.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(IncidentKind::Respawn), 2);
    assert_eq!(count(IncidentKind::Retire), 3);
    for (shard, replaces) in [(1, 0), (2, 1)] {
        let e = stats
            .journal
            .iter()
            .find(|e| e.shard == shard && e.kind == IncidentKind::Respawn)
            .expect("respawn event");
        assert_eq!(e.detail, replaces as u64);
    }
}

#[test]
fn threaded_respawn_joins_the_dead_worker_and_fills_the_new_ring() {
    // Threaded (non-deterministic) path: shard 0 dies persistently,
    // the supervisor joins its finished worker thread, and the
    // replacement's worker comes online and pushes into its own ring.
    let config = PoolConfig::new(TrngConfig::paper_k1(), 2)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0x7EAD)
        .with_block_bytes(128)
        .with_max_readmissions(0)
        .with_fault(dead_fault(0, 1024, false))
        .with_respawn(RespawnPolicy::new(2, 1));
    let mut pool = EntropyPool::new(config).expect("pool");
    assert_eq!(
        pool.wait_online(Duration::from_secs(120))
            .expect("admission"),
        2
    );
    // Keep consuming; supervision piggybacks on the fill calls. Stop
    // once the replacement serves (or the deadline trips).
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let mut delivered = Vec::new();
    loop {
        let mut chunk = vec![0u8; 4096];
        match pool.try_fill_bytes(&mut chunk, Duration::from_millis(500)) {
            Ok(()) => delivered.extend_from_slice(&chunk),
            Err(PoolError::Timeout { filled }) => delivered.extend_from_slice(&chunk[..filled]),
            Err(other) => panic!("pool failed to heal: {other}"),
        }
        let stats = pool.stats();
        let healed = stats.respawns == 1
            && stats.shards.len() == 3
            && stats.shards[2].state == ShardState::Online
            && stats.shards[2].bytes_produced > 0;
        if healed || std::time::Instant::now() >= deadline {
            break;
        }
    }
    assert_stream_health_clean(&delivered);
    let stats = pool.stats();
    assert_eq!(stats.respawns, 1, "no respawn within the deadline");
    assert_eq!(stats.shards[0].state, ShardState::Retired);
    assert!(stats.shards[0].superseded);
    assert_eq!(
        stats.workers_joined, 1,
        "retired shard's worker must be joined"
    );
    assert_eq!(stats.shards[2].origin, ShardOrigin::Respawn { replaces: 0 });
    assert_eq!(stats.shards[2].state, ShardState::Online);
    assert!(
        stats.shards[2].ring_high_water > 0,
        "replacement worker never filled its ring"
    );
    assert_eq!(stats.health(), PoolHealth::Healthy);
    // The full incident is journaled across threads.
    for kind in [
        IncidentKind::Alarm,
        IncidentKind::Retire,
        IncidentKind::Respawn,
    ] {
        assert!(
            stats.journal.iter().any(|e| e.kind == kind),
            "missing {kind} event"
        );
    }
}
