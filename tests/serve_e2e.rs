//! End-to-end tests for the entropy daemon, all on loopback with
//! ephemeral ports (parallel-safe, no fixed resources).
//!
//! The centerpiece is the byte-identity test: concurrent clients of a
//! server over a *deterministic* pool must between them receive
//! exactly the pool's replayable byte stream, partitioned into
//! contiguous per-request slices — the network layer may reorder whole
//! requests but can never tear, duplicate, or drop bytes inside one.

use std::time::{Duration, Instant};

use trng_core::trng::TrngConfig;
use trng_pool::testing::{assert_covers_byte_alphabet, assert_stream_health_clean, dead_fault};
use trng_pool::{
    ComposedExtract, Conditioning, EntropyPool, PoolConfig, PoolHandle, RespawnPolicy, ShardState,
};
use trng_serve::{client, Client, FetchError, QuotaConfig, ServeConfig, Server};

fn online_handle(config: PoolConfig) -> PoolHandle {
    let handle = EntropyPool::new(config).expect("pool").into_shared();
    handle
        .wait_online(Duration::from_secs(120))
        .expect("admission");
    handle
}

/// In-process replay of a deterministic pool config: the reference
/// byte stream the served bytes must match.
fn replay(config: PoolConfig, n: usize) -> Vec<u8> {
    let mut pool = EntropyPool::new(config).expect("replay pool");
    let mut bytes = vec![0u8; n];
    pool.fill_bytes(&mut bytes).expect("replay fill");
    bytes
}

/// Acceptance centerpiece: N concurrent clients each fetch 64 KiB
/// from a deterministic pool; every client's bytes are a contiguous
/// slice of the in-process replay, and the slices tile it exactly.
#[test]
fn concurrent_clients_tile_the_deterministic_replay_stream() {
    const CLIENTS: usize = 3;
    const FETCH: usize = 64 * 1024;
    let config = || {
        PoolConfig::new(TrngConfig::paper_k1(), 2)
            .with_conditioning(Conditioning::Raw)
            .with_seed(0x7E57)
            .deterministic(true)
    };
    let server = Server::start(online_handle(config()), ServeConfig::default()).expect("server");
    let addr = server.local_addr();

    let fetchers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || client::fetch(addr, FETCH as u32).expect("client fetch"))
        })
        .collect();
    let buffers: Vec<Vec<u8>> = fetchers
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    let reference = replay(config(), CLIENTS * FETCH);
    // Each fill holds the pool lock end to end, so each client's
    // buffer is one contiguous replay slice; which slice depends only
    // on scheduling order. Locate each and demand a perfect tiling.
    let mut offsets: Vec<usize> = buffers
        .iter()
        .map(|buf| {
            reference
                .windows(FETCH)
                .position(|w| w == buf.as_slice())
                .expect("client bytes are not a contiguous slice of the replay stream")
        })
        .collect();
    offsets.sort_unstable();
    assert_eq!(
        offsets,
        (0..CLIENTS).map(|i| i * FETCH).collect::<Vec<_>>(),
        "client fetches must tile the replay stream exactly"
    );

    let report = server.shutdown();
    assert_eq!(report.bytes_served, (CLIENTS * FETCH) as u64);
    assert_eq!(report.requests_ok, CLIENTS as u64);
    assert!(
        !report.hit_deadline,
        "nothing in flight, drain must be instant"
    );
    assert_eq!(report.workers_joined, ServeConfig::default().workers);
}

/// Quota is per-connection: the second over-budget request on one
/// connection is throttled (typed as a wait, not an error), while a
/// fresh connection's burst is untouched — alone, and under load from
/// concurrent clients of a threaded pool.
#[test]
fn quota_throttles_within_a_connection_but_not_across_connections() {
    let config = PoolConfig::new(TrngConfig::paper_k1(), 1)
        .with_conditioning(Conditioning::Raw)
        .with_seed(0x0A11)
        .deterministic(true);
    let server = Server::start(
        online_handle(config),
        ServeConfig::default().with_quota(QuotaConfig::new(8192.0, 2048)),
    )
    .expect("server");

    // An over-burst *first* request makes the deficit exact — the
    // bucket is still full at admission, so the wait is
    // (6144 - 2048) / 8192 = 0.5 s regardless of pool or test pacing.
    let mut first = Client::connect(server.local_addr()).expect("connect");
    let t0 = Instant::now();
    assert_eq!(first.fetch(6144).expect("throttled fetch").len(), 6144);
    assert!(
        t0.elapsed() >= Duration::from_millis(450),
        "over-burst fetch returned in {:?} — quota deficit was not enforced",
        t0.elapsed()
    );

    // A fresh connection gets a fresh bucket: within burst, no new
    // throttle event.
    assert_eq!(
        client::fetch(server.local_addr(), 2048)
            .expect("fresh burst")
            .len(),
        2048
    );
    let stats = server.stats();
    assert_eq!(
        stats.throttle_events, 1,
        "only the over-burst request throttles"
    );
    assert_eq!(stats.throttled, Duration::from_millis(500));
    assert_eq!(stats.requests_ok, 2);
    drop(server);

    // Under load: a threaded pool behind four concurrent connections.
    // Three in-quota clients stream 320 KiB each in 8 KiB requests;
    // the fourth front-loads one 96 KiB request, which owes exactly
    // (96 KiB - 32 KiB) / 64 KiB/s = 1 s of throttle. It is throttled,
    // never refused, and every byte is accounted for through drain.
    const PER_CLIENT: usize = 320 * 1024;
    const OVER_QUOTA: u32 = 96 * 1024;
    let config = PoolConfig::new(TrngConfig::paper_k1(), 2)
        .with_conditioning(Conditioning::Raw)
        .with_seed(0x5E7E);
    let server = Server::start(
        online_handle(config),
        ServeConfig::default().with_quota(QuotaConfig::new(65536.0, 32768)),
    )
    .expect("server");
    let addr = server.local_addr();
    let in_quota: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut got = Vec::with_capacity(PER_CLIENT);
                while got.len() < PER_CLIENT {
                    let want = (PER_CLIENT - got.len()).min(8 * 1024) as u32;
                    got.extend(client.fetch(want).expect("in-quota fetch"));
                }
                got
            })
        })
        .collect();
    let over_quota = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let t0 = Instant::now();
        let bytes = client.fetch(OVER_QUOTA).expect("throttled, not refused");
        (bytes, t0.elapsed())
    });
    let mut delivered = Vec::new();
    for handle in in_quota {
        let got = handle.join().expect("client thread");
        assert_eq!(got.len(), PER_CLIENT);
        delivered.extend(got);
    }
    let (bytes, elapsed) = over_quota.join().expect("client thread");
    assert_eq!(bytes.len(), OVER_QUOTA as usize);
    assert!(
        elapsed >= Duration::from_millis(900),
        "over-quota fetch returned in {elapsed:?}: the 1 s deficit was not enforced"
    );
    delivered.extend(bytes);
    let stats = server.stats();
    assert!(stats.throttle_events >= 1);
    assert!(stats.throttled >= Duration::from_secs(1));
    assert_eq!(
        (
            stats.requests_timeout,
            stats.requests_exhausted,
            stats.requests_rejected
        ),
        (0, 0, 0)
    );
    let body = client::scrape_metrics(server.metrics_addr().expect("metrics on")).expect("scrape");
    assert_eq!(body.lines().next(), Some("healthy"));
    for needle in ["\"bytes_delivered\"", "\"bytes_served\"", "\"shards\""] {
        assert!(body.contains(needle), "metrics lack {needle}:\n{body}");
    }
    assert_covers_byte_alphabet(&delivered);
    let report = server.shutdown();
    assert!(!report.hit_deadline);
    assert_eq!(report.workers_joined, ServeConfig::default().workers);
    assert_eq!(report.bytes_served, delivered.len() as u64);
}

/// Graceful drain: a request in flight when shutdown begins is served
/// to completion, counted as drained, and the listener is gone
/// afterwards.
#[test]
fn drain_completes_in_flight_requests_then_refuses_connections() {
    const FETCH: u32 = 128 * 1024; // well past the rings' ~16 KiB prefill
    let config = PoolConfig::new(TrngConfig::paper_k1(), 2)
        .with_conditioning(Conditioning::Raw)
        .with_seed(0xD12A);
    // A one-byte burst refilled at FETCH bytes/s throttles the request
    // for about a second: the worker sleeps inside it, whatever the
    // speed of the fill that follows.
    let server = Server::start(
        online_handle(config),
        ServeConfig::default()
            .with_drain_deadline(Duration::from_secs(30))
            .with_quota(QuotaConfig::new(f64::from(FETCH), 1)),
    )
    .expect("server");
    let addr = server.local_addr();

    let fetcher =
        std::thread::spawn(move || client::fetch(addr, FETCH).expect("in-flight fetch survives"));
    // Drain once the worker is inside the request, sleeping out its
    // quota deficit.
    while server.stats().throttle_events == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = server.shutdown();

    let bytes = fetcher.join().expect("client thread");
    assert_eq!(bytes.len(), FETCH as usize);
    assert_eq!(
        report.drained_requests, 1,
        "the in-flight request must be accounted as drained"
    );
    assert!(!report.hit_deadline);
    assert_eq!(report.workers_joined, ServeConfig::default().workers);

    // The acceptor is gone; a new client cannot complete a fetch.
    let refused = match Client::connect_with_timeout(addr, Duration::from_millis(500)) {
        Err(_) => true,
        Ok(mut late) => late.fetch(16).is_err(),
    };
    assert!(refused, "server still serving after shutdown");
}

/// A request whose tag, length and count arrive in separate segments
/// is still served (the committed-read fallback), and two requests
/// pipelined in one write are answered in order (the one-read fast
/// path never consumes the next request's bytes).
#[test]
fn split_and_pipelined_requests_are_served() {
    use std::io::Write;
    use std::net::TcpStream;
    use trng_serve::protocol::{read_frame, FrameType, MAX_FRAME_PAYLOAD};

    let config = PoolConfig::new(TrngConfig::paper_k1(), 1)
        .with_conditioning(Conditioning::Raw)
        .with_seed(0x5B17)
        .deterministic(true);
    let server = Server::start(online_handle(config), ServeConfig::default()).expect("server");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let req = |n: u32| {
        let mut frame = vec![FrameType::Req.as_u8()];
        frame.extend_from_slice(&4u32.to_be_bytes());
        frame.extend_from_slice(&n.to_be_bytes());
        frame
    };
    let expect_ok = |conn: &mut TcpStream, n: usize| {
        let frame = read_frame(conn, MAX_FRAME_PAYLOAD)
            .expect("read")
            .expect("frame");
        assert_eq!((frame.kind, frame.payload.len()), (FrameType::Ok, n));
    };

    let split = req(300);
    for piece in [&split[..1], &split[1..5], &split[5..]] {
        conn.write_all(piece).expect("write");
        std::thread::sleep(Duration::from_millis(20));
    }
    expect_ok(&mut conn, 300);

    let mut pipelined = req(100);
    pipelined.extend(req(200));
    conn.write_all(&pipelined).expect("write");
    expect_ok(&mut conn, 100);
    expect_ok(&mut conn, 200);

    let stats = server.stats();
    assert_eq!((stats.requests_ok, stats.requests_rejected), (3, 0));
    drop(server);
}

/// The acceptor blocks in `accept` instead of napping between polls,
/// so a daemon that has sat idle answers its next client at once: the
/// median first fetch over five fresh connections, each after at
/// least 100 ms of idleness, completes in under 10 ms (a 50 ms accept
/// nap would put most of them far above). Shutdown still wakes the
/// blocked acceptor and metrics listener, so drain and join stay
/// prompt.
#[test]
fn idle_daemon_answers_a_first_fetch_at_once_and_drains_promptly() {
    let config = PoolConfig::new(TrngConfig::paper_k1(), 1)
        .with_conditioning(Conditioning::Raw)
        .with_sources(vec![trng_pool::SourceSpec::OsEntropy])
        .with_seed(0x1D1E);
    let server = Server::start(online_handle(config), ServeConfig::default()).expect("server");
    let addr = server.local_addr();
    let mut latencies: Vec<Duration> = (0..5)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(120));
            let t0 = Instant::now();
            let bytes = client::fetch(addr, 32).expect("fetch");
            assert_eq!(bytes.len(), 32);
            t0.elapsed()
        })
        .collect();
    latencies.sort();
    assert!(
        latencies[2] < Duration::from_millis(10),
        "median first fetch after idling took {:?} (all: {latencies:?})",
        latencies[2]
    );

    let report = server.shutdown();
    assert_eq!(report.workers_joined, ServeConfig::default().workers);
    assert!(
        report.elapsed < Duration::from_millis(500),
        "drain took {:?}",
        report.elapsed
    );
}

/// Fault-injection soak over the wire: a scripted mid-stream transient
/// fault quarantines one shard, the client still receives exactly the
/// healthy replay bytes, and the stats record exactly the one alarm.
#[test]
fn transient_fault_soak_delivers_only_healthy_replay_bytes() {
    const TOTAL: usize = 16 * 1024;
    const CHUNK: u32 = 4 * 1024;
    let config = || {
        PoolConfig::new(TrngConfig::paper_k1(), 3)
            .with_conditioning(Conditioning::DesignXor)
            .with_seed(0x50AC)
            .with_fault(dead_fault(1, 2048, true))
            .deterministic(true)
    };
    let server = Server::start(online_handle(config()), ServeConfig::default()).expect("server");

    let mut conn = Client::connect(server.local_addr()).expect("connect");
    let mut delivered = Vec::with_capacity(TOTAL);
    while delivered.len() < TOTAL {
        delivered.extend_from_slice(&conn.fetch(CHUNK).expect("fetch across the fault"));
    }

    // Byte-for-byte the healthy replay stream: the quarantined
    // stretch never reaches the wire.
    assert_eq!(delivered, replay(config(), TOTAL));
    assert_stream_health_clean(&delivered);

    // Exactly the injected incident, visible through the server.
    let stats = server.pool_stats();
    assert_eq!(stats.total_alarms(), 1);
    assert_eq!(stats.shards[1].alarms, 1);
    assert_eq!(stats.shards[1].readmissions, 1);
    assert_eq!(stats.shards[1].state, ShardState::Online);
    assert_eq!(stats.bytes_delivered, TOTAL as u64);

    let report = server.shutdown();
    assert_eq!(report.bytes_served, TOTAL as u64);
}

/// A persistent fault retires the only shard: the client receives a
/// typed exhaustion frame carrying the healthy prefix (matching the
/// in-process replay), and the server itself stays up and reports
/// `exhausted` on its metrics endpoint.
#[test]
fn exhaustion_is_a_typed_frame_and_the_server_survives() {
    let config = || {
        PoolConfig::new(TrngConfig::paper_k1(), 1)
            .with_conditioning(Conditioning::DesignXor)
            .with_seed(0xD1E)
            .with_fault(dead_fault(0, 1024, false))
            .deterministic(true)
    };
    let server = Server::start(online_handle(config()), ServeConfig::default()).expect("server");

    let partial = match client::fetch(server.local_addr(), 1 << 20) {
        Err(FetchError::Exhausted { partial }) => partial,
        other => panic!("expected a typed exhaustion error, got {other:?}"),
    };
    assert!(
        partial.len() >= 1024,
        "healthy prefix was {}",
        partial.len()
    );
    assert_stream_health_clean(&partial);

    // The prefix matches what the same pool delivers in process.
    let mut reference = EntropyPool::new(config()).expect("replay pool");
    let mut sink = vec![0u8; 1 << 20];
    let filled = match reference.fill_bytes(&mut sink) {
        Err(trng_pool::PoolError::SourcesExhausted { filled }) => filled,
        other => panic!("replay must exhaust too, got {other:?}"),
    };
    assert_eq!(partial, sink[..filled]);

    // The daemon outlives its sources: further requests get an empty
    // typed frame, and the metrics endpoint says so.
    match client::fetch(server.local_addr(), 1024) {
        Err(FetchError::Exhausted { partial }) => assert!(partial.is_empty()),
        other => panic!("expected exhaustion on a dry pool, got {other:?}"),
    }
    let metrics =
        client::scrape_metrics(server.metrics_addr().expect("metrics on")).expect("scrape");
    assert_eq!(metrics.lines().next(), Some("exhausted"));
    assert_eq!(server.stats().requests_exhausted, 2);
    assert_eq!(server.pool_stats().shards[0].state, ShardState::Retired);
    drop(server);
}

/// An oversize request is refused with a typed cap frame and the
/// connection remains usable.
#[test]
fn oversize_request_returns_the_cap_and_keeps_the_connection() {
    let config = PoolConfig::new(TrngConfig::paper_k1(), 1)
        .with_conditioning(Conditioning::Raw)
        .with_seed(0xB16)
        .deterministic(true);
    let server = Server::start(
        online_handle(config),
        ServeConfig::default().with_max_request(4096),
    )
    .expect("server");

    let mut conn = Client::connect(server.local_addr()).expect("connect");
    match conn.fetch(8192) {
        Err(FetchError::TooLarge { cap }) => assert_eq!(cap, 4096),
        other => panic!("expected a typed too-large error, got {other:?}"),
    }
    assert_eq!(conn.fetch(1024).expect("connection survives").len(), 1024);
    assert_eq!(server.stats().requests_rejected, 1);
    drop(server);
}

/// A pool deadline shorter than the request maps to a typed timeout
/// frame carrying the partial healthy prefix.
#[test]
fn pool_deadline_maps_to_a_typed_timeout_frame() {
    const FETCH: u32 = 1 << 20; // far beyond what 80 ms can deliver
    let config = PoolConfig::new(TrngConfig::paper_k1(), 1)
        .with_conditioning(Conditioning::Raw)
        .with_seed(0x71E0);
    let server = Server::start(
        online_handle(config),
        ServeConfig::default().with_request_timeout(Duration::from_millis(80)),
    )
    .expect("server");

    match client::fetch(server.local_addr(), FETCH) {
        Err(FetchError::Timeout { partial }) => {
            assert!(
                partial.len() < FETCH as usize,
                "a timeout must mean a shortfall"
            );
        }
        other => panic!("expected a typed timeout error, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.requests_timeout, 1);
    assert_eq!(stats.requests_ok, 0);
    drop(server);
}

/// Self-healing over the wire: a persistent mid-stream fault retires
/// one shard while a respawn budget stands by. The metrics endpoint
/// must walk `healthy → degraded → recovering → healthy` — the
/// respawn backoff keeps `degraded` scrapeable before the supervisor
/// spawns, and the replacement's settle time keeps `recovering`
/// scrapeable before its admission gate runs — and the incident
/// journal must be visible in the metrics JSON afterwards.
#[test]
fn metrics_walk_degraded_recovering_healthy_across_a_respawn() {
    let config = PoolConfig::new(TrngConfig::paper_k1(), 2)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0x4EA1)
        .with_max_readmissions(0)
        // Far past the ring prefill: the shard only dies once clients
        // have drained real traffic through it.
        .with_fault(dead_fault(0, 24 * 1024, false))
        // Both windows must outlast one driver iteration (one small
        // fetch plus one scrape), or a scrape can never land inside
        // them.
        .with_respawn(
            RespawnPolicy::new(2, 1)
                .with_backoff(Duration::from_millis(1500))
                .with_settle(Duration::from_secs(3)),
        );
    let server = Server::start(online_handle(config), ServeConfig::default()).expect("server");
    let metrics = server.metrics_addr().expect("metrics on");

    // Drive the pool with small fetches (supervision piggybacks on
    // consumer calls) and record every distinct status the metrics
    // endpoint reports along the way.
    let mut conn = Client::connect(server.local_addr()).expect("connect");
    let mut seen: Vec<String> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let body = client::scrape_metrics(metrics).expect("scrape");
        let status = body.lines().next().expect("status line").to_string();
        if seen.last() != Some(&status) {
            seen.push(status.clone());
        }
        if status == "healthy" && seen.iter().any(|s| s == "recovering") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pool never healed; observed statuses {seen:?}"
        );
        conn.fetch(1024).expect("fetch while healing");
    }
    assert_eq!(
        seen,
        ["healthy", "degraded", "recovering", "healthy"],
        "metrics status must walk the respawn state machine"
    );

    // The incident journal rides the same endpoint: the whole story,
    // spawn through respawn, is scrapeable as JSON.
    let body = client::scrape_metrics(metrics).expect("scrape");
    for needle in [
        "\"journal\"",
        "\"kind\": \"respawn\"",
        "\"kind\": \"retire\"",
        "\"respawns\": 1",
        "\"journal_recorded\"",
    ] {
        assert!(
            body.contains(needle),
            "metrics JSON lacks {needle}:\n{body}"
        );
    }
    let stats = server.pool_stats();
    assert_eq!(stats.respawns, 1);
    assert_eq!(stats.shards[0].state, ShardState::Retired);
    assert!(stats.shards[0].superseded);
    assert_eq!(stats.shards[2].state, ShardState::Online);
    drop(server);
}

/// The metrics endpoint renders a status line plus JSON naming both
/// pool and server counters, readable with the workspace JSON tools.
#[test]
fn metrics_endpoint_reports_status_and_counters() {
    let config = PoolConfig::new(TrngConfig::paper_k1(), 2)
        .with_conditioning(Conditioning::Raw)
        .with_seed(0x3E7)
        .deterministic(true);
    let server = Server::start(online_handle(config), ServeConfig::default()).expect("server");
    let n = 2048usize;
    client::fetch(server.local_addr(), n as u32).expect("fetch");

    let body = client::scrape_metrics(server.metrics_addr().expect("metrics on")).expect("scrape");
    let mut lines = body.lines();
    assert_eq!(lines.next(), Some("healthy"));
    let json: String = lines.collect::<Vec<_>>().join("\n");
    for needle in [
        "\"status\": \"healthy\"",
        "\"pool\"",
        "\"serve\"",
        &format!("\"bytes_delivered\": {n}"),
        &format!("\"bytes_served\": {n}"),
        "\"requests_ok\": 1",
        "\"online_shards\": 2",
    ] {
        assert!(
            json.contains(needle),
            "metrics JSON lacks {needle}:\n{json}"
        );
    }
    drop(server);
}

/// Per-source metrics are additive: a mixed-backend pool's scrape
/// keeps the exact plaintext format (bare status line, then JSON) and
/// every pre-existing counter key, and gains the per-source labels —
/// a `sources` aggregate keyed by backend plus `source` /
/// `claimed_min_entropy` on each shard entry.
#[test]
fn mixed_source_metrics_add_per_source_keys_without_breaking_the_format() {
    use std::sync::Arc;
    use trng_pool::{DualOscConfig, RecordedTrace, SourceSpec};

    let trace =
        Arc::new(RecordedTrace::record(&TrngConfig::paper_k1(), 5, 32 * 1024).expect("capture"));
    let config = PoolConfig::new(TrngConfig::paper_k1(), 4)
        .with_conditioning(Conditioning::DesignXor)
        .with_seed(0x313)
        .deterministic(true)
        .with_sources(vec![
            SourceSpec::CarryChain,
            SourceSpec::DualOscillator(Box::new(DualOscConfig::betrusted_default())),
            SourceSpec::TraceReplay(trace),
            SourceSpec::OsEntropy,
        ]);
    let server = Server::start(online_handle(config), ServeConfig::default()).expect("server");
    let n = 4096usize;
    client::fetch(server.local_addr(), n as u32).expect("fetch");

    let body = client::scrape_metrics(server.metrics_addr().expect("metrics on")).expect("scrape");
    // Scrape format unchanged: a bare status line, then pretty JSON.
    let mut lines = body.lines();
    assert_eq!(lines.next(), Some("healthy"));
    let json: String = lines.collect::<Vec<_>>().join("\n");
    // Every key the old scrape carried is still present...
    for needle in [
        "\"status\": \"healthy\"",
        "\"pool\"",
        "\"serve\"",
        &format!("\"bytes_delivered\": {n}"),
        &format!("\"bytes_served\": {n}"),
        "\"requests_ok\": 1",
        "\"online_shards\": 4",
        "\"shards\"",
        "\"journal\"",
        "\"journal_recorded\"",
    ] {
        assert!(
            json.contains(needle),
            "metrics JSON lacks {needle}:\n{json}"
        );
    }
    // ...and the additive per-source keys are new alongside them.
    assert!(
        json.contains("\"sources\""),
        "no sources aggregate:\n{json}"
    );
    for backend in ["carry_chain", "dual_osc", "trace_replay", "os_entropy"] {
        assert!(
            json.contains(&format!("\"{backend}\"")),
            "sources aggregate lacks {backend}:\n{json}"
        );
        assert!(
            json.contains(&format!("\"source\": \"{backend}\"")),
            "no shard labelled {backend}:\n{json}"
        );
    }
    assert!(
        json.contains("\"claimed_min_entropy\""),
        "no per-source entropy claim:\n{json}"
    );
    drop(server);
}

/// The conditioning mode and the composed cross-shard extract stage
/// are observable end to end. A pool serving per-shard Toeplitz plus
/// a composed stage labels every shard `"conditioning": "toeplitz:N"`
/// and adds a `"composed"` object carrying the leftover-hash claim
/// next to the measured min-entropy; a default raw pool labels its
/// shards `"raw"` and has no composed object. Both keys are purely
/// additive — every counter the old scrape carried is still present
/// either way.
#[test]
fn metrics_report_conditioning_and_composed_extract() {
    let scrape = |toeplitz: bool, n: u32| {
        let mut config = PoolConfig::new(TrngConfig::paper_k1(), 2)
            .with_seed(0x70E9)
            .deterministic(true);
        if toeplitz {
            config = config
                .with_conditioning(Conditioning::Toeplitz {
                    ratio: 5,
                    seed: 0xE47,
                })
                .with_composed_extract(ComposedExtract::new(32, 0xE47));
        } else {
            config = config.with_conditioning(Conditioning::Raw);
        }
        let server = Server::start(online_handle(config), ServeConfig::default()).expect("server");
        client::fetch(server.local_addr(), n).expect("fetch");
        let body =
            client::scrape_metrics(server.metrics_addr().expect("metrics on")).expect("scrape");
        drop(server);
        body
    };

    for (toeplitz, label) in [(false, "raw"), (true, "toeplitz:5")] {
        let body = scrape(toeplitz, 2048);
        let mut lines = body.lines();
        assert_eq!(lines.next(), Some("healthy"));
        let json: String = lines.collect::<Vec<_>>().join("\n");
        // The conditioning label rides every shard entry...
        assert_eq!(
            json.matches(&format!("\"conditioning\": \"{label}\""))
                .count(),
            2,
            "both shards must report {label} conditioning:\n{json}"
        );
        // ...the composed object appears exactly when configured,
        // carrying the claim/measurement pair...
        if toeplitz {
            for needle in [
                "\"composed\"",
                "\"ratio\"",
                "\"epsilon_log2\": 32",
                "\"input_claim_min_entropy\"",
                "\"claimed_min_entropy\"",
                "\"measured_min_entropy\"",
                "\"bytes_extracted\"",
            ] {
                assert!(
                    json.contains(needle),
                    "composed metrics lack {needle}:\n{json}"
                );
            }
        } else {
            assert!(
                !json.contains("\"composed\""),
                "composed object on a plain pool:\n{json}"
            );
        }
        // ...and both are additive: the pre-existing scrape keys
        // survive untouched.
        for needle in [
            "\"status\": \"healthy\"",
            "\"pool\"",
            "\"serve\"",
            "\"shards\"",
            "\"online_shards\": 2",
            "\"bytes_delivered\": 2048",
            "\"bytes_served\": 2048",
            "\"requests_ok\": 1",
            "\"claimed_min_entropy\"",
            "\"journal_recorded\"",
        ] {
            assert!(
                json.contains(needle),
                "metrics JSON lacks {needle}:\n{json}"
            );
        }
    }
}

/// The noise backend is observable end to end: a default pool labels
/// every carry-chain shard `"batched"` on the metrics scrape, a pool
/// whose base config names the scalar oracle labels them `"scalar"`,
/// and the key is purely additive — every counter the old scrape
/// carried is still present either way.
#[test]
fn metrics_report_the_active_noise_backend_per_shard() {
    use trng_pool::NoiseBackend;

    let scrape = |base: TrngConfig| {
        let config = PoolConfig::new(base, 2)
            .with_conditioning(Conditioning::Raw)
            .with_seed(0xBA7C)
            .deterministic(true);
        let server = Server::start(online_handle(config), ServeConfig::default()).expect("server");
        client::fetch(server.local_addr(), 2048).expect("fetch");
        let body =
            client::scrape_metrics(server.metrics_addr().expect("metrics on")).expect("scrape");
        drop(server);
        body
    };

    let scalar = TrngConfig::paper_k1().with_noise_backend(NoiseBackend::Scalar);
    for (base, label) in [(TrngConfig::paper_k1(), "batched"), (scalar, "scalar")] {
        let body = scrape(base);
        let mut lines = body.lines();
        assert_eq!(lines.next(), Some("healthy"));
        let json: String = lines.collect::<Vec<_>>().join("\n");
        // The backend label rides every shard entry...
        assert_eq!(
            json.matches(&format!("\"noise_backend\": \"{label}\""))
                .count(),
            2,
            "both shards must report the {label} backend:\n{json}"
        );
        // ...and is additive: the pre-existing scrape keys survive.
        for needle in [
            "\"status\": \"healthy\"",
            "\"pool\"",
            "\"serve\"",
            "\"shards\"",
            "\"online_shards\": 2",
            "\"claimed_min_entropy\"",
            "\"journal_recorded\"",
        ] {
            assert!(
                json.contains(needle),
                "metrics JSON lacks {needle}:\n{json}"
            );
        }
    }
}
