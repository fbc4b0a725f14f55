//! The entropy daemon: a TCP acceptor, a bounded worker set serving
//! the request protocol over a shared [`PoolHandle`], a plaintext
//! metrics/health listener, and graceful drain.
//!
//! # Life of a request
//!
//! 1. The acceptor thread blocks in `accept` (shutdown wakes it with a
//!    connection of its own) and hands each connection to the
//!    bounded worker set (a fixed number of worker threads behind a
//!    bounded queue; when the queue is full the connection is shed
//!    and counted, never silently stalled).
//! 2. The owning worker polls for the next frame's tag byte under a
//!    short read-timeout so it can notice shutdown while idle, then
//!    commits to reading the whole frame.
//! 3. A `REQ n` above the configured cap is answered with a typed
//!    `ErrTooLarge` frame (the connection stays usable). Otherwise
//!    the connection's token bucket is charged: an over-quota request
//!    is *throttled* — the worker sleeps out the bucket's deficit —
//!    not rejected.
//! 4. The worker fills the response buffer through the shared pool
//!    handle (one atomic, health-gated fill) and answers `OK`, or
//!    maps `PoolError::Timeout` / `PoolError::SourcesExhausted` to
//!    the equivalent typed error frame carrying the delivered healthy
//!    prefix.
//!
//! # Drain semantics
//!
//! [`Server::shutdown`] stops the acceptor, then lets every worker
//! finish the request it is serving — bounded by the drain deadline,
//! which caps both quota sleeps and pool fill deadlines once draining
//! begins — while refusing to *start* new requests. Workers are
//! joined (never detached or killed), so a completed shutdown proves
//! there are no leaked threads; the [`DrainReport`] carries the
//! drained-request and byte totals.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trng_pool::{PoolError, PoolHandle};
use trng_testkit::json::Json;

use crate::protocol::{
    parse_req, read_frame, write_frame, FrameType, HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use crate::quota::{QuotaConfig, TokenBucket};

/// How often an idle connection's read loop re-checks the shutdown
/// flag, and how long a failing `accept` backs off.
const POLL: Duration = Duration::from_millis(50);

/// Fill deadline used for a request still in flight when the drain
/// deadline has already passed: long enough to flush whatever the
/// rings hold, short enough not to stall the join.
const LAST_GASP: Duration = Duration::from_millis(20);

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address for the entropy endpoint. Port 0 picks an ephemeral
    /// port; read the outcome from [`Server::local_addr`].
    pub addr: SocketAddr,
    /// Address for the metrics/health endpoint, `None` to disable.
    pub metrics_addr: Option<SocketAddr>,
    /// Worker threads serving connections (the bound on concurrent
    /// connections being served).
    pub workers: usize,
    /// Largest acceptable single request, in bytes; bigger requests
    /// get a typed `ErrTooLarge` frame.
    pub max_request: u32,
    /// Per-connection token-bucket quota; `None` serves unthrottled.
    pub quota: Option<QuotaConfig>,
    /// Deadline for one pool fill; a request that cannot be filled in
    /// time gets a typed `ErrTimeout` frame with the healthy prefix.
    pub request_timeout: Duration,
    /// Socket read/write timeout for committed frame I/O.
    pub io_timeout: Duration,
    /// How long [`Server::shutdown`] lets in-flight requests finish.
    pub drain_deadline: Duration,
    /// Accepted connections that may queue for a free worker before
    /// further connections are shed.
    pub pending_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: ([127, 0, 0, 1], 0).into(),
            metrics_addr: Some(([127, 0, 0, 1], 0).into()),
            workers: 4,
            max_request: 1 << 20,
            quota: None,
            request_timeout: Duration::from_secs(120),
            io_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            pending_connections: 64,
        }
    }
}

impl ServeConfig {
    /// Sets the entropy endpoint address, builder-style.
    pub fn with_addr(mut self, addr: SocketAddr) -> Self {
        self.addr = addr;
        self
    }

    /// Sets (or disables) the metrics endpoint address, builder-style.
    pub fn with_metrics_addr(mut self, addr: Option<SocketAddr>) -> Self {
        self.metrics_addr = addr;
        self
    }

    /// Sets the worker count, builder-style (floored at 1).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Sets the request-size cap, builder-style.
    pub fn with_max_request(mut self, bytes: u32) -> Self {
        self.max_request = bytes;
        self
    }

    /// Sets the per-connection quota, builder-style.
    pub fn with_quota(mut self, quota: QuotaConfig) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Sets the per-fill deadline, builder-style.
    pub fn with_request_timeout(mut self, timeout: Duration) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// Sets the drain deadline, builder-style.
    pub fn with_drain_deadline(mut self, deadline: Duration) -> Self {
        self.drain_deadline = deadline;
        self
    }
}

/// Server-side counters, published lock-free by the serving threads.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    active: AtomicUsize,
    requests_ok: AtomicU64,
    requests_timeout: AtomicU64,
    requests_exhausted: AtomicU64,
    requests_rejected: AtomicU64,
    throttle_events: AtomicU64,
    throttled_ns: AtomicU64,
    bytes_served: AtomicU64,
    drained_requests: AtomicU64,
}

/// Point-in-time view of the server's own counters (the pool's view
/// is [`trng_pool::PoolStats`], exposed separately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections shed because the pending queue was full.
    pub shed: u64,
    /// Connections currently being served.
    pub active: u64,
    /// Requests answered with a full `OK` frame.
    pub requests_ok: u64,
    /// Requests answered with a typed timeout frame.
    pub requests_timeout: u64,
    /// Requests answered with a typed exhaustion frame.
    pub requests_exhausted: u64,
    /// Requests rejected (over the size cap, or malformed).
    pub requests_rejected: u64,
    /// Requests that were throttled by the token bucket.
    pub throttle_events: u64,
    /// Total time requests spent sleeping in the token bucket.
    pub throttled: Duration,
    /// Healthy entropy bytes delivered (full and partial frames).
    pub bytes_served: u64,
    /// Requests completed after drain began.
    pub drained_requests: u64,
}

impl ServeStats {
    /// Renders the counters as a JSON object (field names match).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("accepted", Json::u64(self.accepted)),
            ("shed", Json::u64(self.shed)),
            ("active", Json::u64(self.active)),
            ("requests_ok", Json::u64(self.requests_ok)),
            ("requests_timeout", Json::u64(self.requests_timeout)),
            ("requests_exhausted", Json::u64(self.requests_exhausted)),
            ("requests_rejected", Json::u64(self.requests_rejected)),
            ("throttle_events", Json::u64(self.throttle_events)),
            ("throttled_ns", Json::u64(self.throttled.as_nanos() as u64)),
            ("bytes_served", Json::u64(self.bytes_served)),
            ("drained_requests", Json::u64(self.drained_requests)),
        ])
    }
}

/// What [`Server::shutdown`] accomplished.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Requests completed after drain began (the in-flight set).
    pub drained_requests: u64,
    /// Healthy bytes delivered over the server's lifetime.
    pub bytes_served: u64,
    /// `OK`-answered requests over the server's lifetime.
    pub requests_ok: u64,
    /// Connections shed over the server's lifetime.
    pub shed: u64,
    /// Wall time the drain took.
    pub elapsed: Duration,
    /// `true` when the drain outran its configured deadline (an
    /// in-flight request was cut to its last-gasp fill deadline).
    pub hit_deadline: bool,
    /// Worker threads joined — always the configured worker count on
    /// a clean shutdown; a smaller number would mean a leak.
    pub workers_joined: usize,
}

impl std::fmt::Display for DrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drained {} in-flight requests in {:.3} s ({}; {} workers joined, \
             {} bytes served lifetime)",
            self.drained_requests,
            self.elapsed.as_secs_f64(),
            if self.hit_deadline {
                "deadline hit"
            } else {
                "within deadline"
            },
            self.workers_joined,
            self.bytes_served,
        )
    }
}

struct Shared {
    pool: PoolHandle,
    max_request: u32,
    quota: Option<QuotaConfig>,
    request_timeout: Duration,
    io_timeout: Duration,
    stop: AtomicBool,
    metrics_stop: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
    counters: Counters,
}

impl Shared {
    fn draining(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn drain_deadline(&self) -> Option<Instant> {
        *self
            .drain_deadline
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn snapshot(&self) -> ServeStats {
        let c = &self.counters;
        ServeStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            active: c.active.load(Ordering::Relaxed) as u64,
            requests_ok: c.requests_ok.load(Ordering::Relaxed),
            requests_timeout: c.requests_timeout.load(Ordering::Relaxed),
            requests_exhausted: c.requests_exhausted.load(Ordering::Relaxed),
            requests_rejected: c.requests_rejected.load(Ordering::Relaxed),
            throttle_events: c.throttle_events.load(Ordering::Relaxed),
            throttled: Duration::from_nanos(c.throttled_ns.load(Ordering::Relaxed)),
            bytes_served: c.bytes_served.load(Ordering::Relaxed),
            drained_requests: c.drained_requests.load(Ordering::Relaxed),
        }
    }
}

/// The running daemon: owns the acceptor, worker, and metrics
/// threads. Dropping the server performs a best-effort shutdown;
/// call [`Server::shutdown`] to obtain the [`DrainReport`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    drain_deadline: Duration,
    acceptor: Option<JoinHandle<()>>,
    metrics: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("metrics_addr", &self.metrics_addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Server {
    /// Binds the listeners and spawns the acceptor, workers, and (when
    /// configured) the metrics thread.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn start(pool: PoolHandle, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let local_addr = listener.local_addr()?;

        let metrics_listener = match config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        let shared = Arc::new(Shared {
            pool,
            max_request: config.max_request,
            quota: config.quota,
            request_timeout: config.request_timeout,
            io_timeout: config.io_timeout,
            stop: AtomicBool::new(false),
            metrics_stop: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            counters: Counters::default(),
        });

        let workers_n = config.workers.max(1);
        let (tx, rx) = sync_channel::<TcpStream>(config.pending_connections.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            let handle = std::thread::Builder::new()
                .name(format!("trng-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, &rx))
                .expect("spawn serve worker");
            workers.push(handle);
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("trng-serve-acceptor".into())
                .spawn(move || acceptor_loop(&shared, &listener, &tx))
                .expect("spawn serve acceptor")
        };

        let metrics = metrics_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("trng-serve-metrics".into())
                .spawn(move || metrics_loop(&shared, &listener))
                .expect("spawn metrics thread")
        });

        Ok(Server {
            shared,
            local_addr,
            metrics_addr,
            drain_deadline: config.drain_deadline,
            acceptor: Some(acceptor),
            metrics,
            workers,
        })
    }

    /// The bound entropy endpoint (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound metrics endpoint, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Snapshots the server-side counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.snapshot()
    }

    /// Snapshots the underlying pool.
    pub fn pool_stats(&self) -> trng_pool::PoolStats {
        self.shared.pool.stats()
    }

    /// Gracefully drains and stops the server: stop accepting, let
    /// in-flight requests finish up to the drain deadline, join every
    /// thread, and report the totals.
    pub fn shutdown(mut self) -> DrainReport {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> DrainReport {
        let t0 = Instant::now();
        {
            let mut deadline = self
                .shared
                .drain_deadline
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *deadline = Some(t0 + self.drain_deadline);
        }
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.acceptor.take() {
            let addr = self.local_addr;
            wake_and_join(handle, || wake_accept(addr));
        }
        let mut joined = 0usize;
        for handle in self.workers.drain(..) {
            if handle.join().is_ok() {
                joined += 1;
            }
        }
        self.shared.metrics_stop.store(true, Ordering::Release);
        if let (Some(handle), Some(addr)) = (self.metrics.take(), self.metrics_addr) {
            wake_and_join(handle, || wake_accept(addr));
        }
        let elapsed = t0.elapsed();
        let stats = self.shared.snapshot();
        DrainReport {
            drained_requests: stats.drained_requests,
            bytes_served: stats.bytes_served,
            requests_ok: stats.requests_ok,
            shed: stats.shed,
            elapsed,
            hit_deadline: elapsed > self.drain_deadline,
            workers_joined: joined,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.workers.is_empty() {
            let _ = self.shutdown_impl();
        }
    }
}

/// Joins a thread blocked in `accept` whose stop flag is raised,
/// calling `wake` every [`POLL`] until it has returned: one wake-up
/// connection can fail (no descriptors left, a connect timeout), so
/// shutdown never rests on the first.
fn wake_and_join(handle: JoinHandle<()>, mut wake: impl FnMut()) {
    let mut last_wake: Option<Instant> = None;
    while !handle.is_finished() {
        if last_wake.is_none_or(|t| t.elapsed() >= POLL) {
            wake();
            last_wake = Some(Instant::now());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = handle.join();
}

/// Wakes a thread blocked in `accept` on `addr` by connecting to it;
/// the woken loop finds its stop flag raised and returns. A wildcard
/// bind address is reached over loopback.
fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, POLL);
}

fn acceptor_loop(
    shared: &Shared,
    listener: &TcpListener,
    tx: &std::sync::mpsc::SyncSender<TcpStream>,
) {
    loop {
        if shared.draining() {
            return; // drops tx: workers see the channel close
        }
        match listener.accept() {
            // Once draining, whatever arrives — the shutdown's own
            // wake-up connection included — is dropped unserved.
            Ok(_) if shared.draining() => return,
            Ok((stream, _peer)) => {
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        // Bounded worker set: shed rather than stall
                        // the acceptor. The client sees a closed
                        // connection and may retry.
                        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                        drop(stream);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            // Back off a failing accept (e.g. out of descriptors)
            // rather than spin on it.
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Holding the lock while blocked in recv is fine: exactly one
        // idle worker waits on the channel, the rest wait on the
        // mutex, and whichever wakes first takes the connection.
        let conn = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        match conn {
            Ok(stream) => serve_connection(shared, stream),
            // Channel closed (acceptor gone) and empty: drain done.
            Err(_) => return,
        }
    }
}

/// Decrements the active-connection gauge on every exit path.
struct ActiveGuard<'a>(&'a Counters);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::Relaxed);
    }
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    shared.counters.active.fetch_add(1, Ordering::Relaxed);
    let _guard = ActiveGuard(&shared.counters);
    let _ = stream.set_nodelay(true);
    if stream.set_write_timeout(Some(shared.io_timeout)).is_err() {
        return;
    }
    // The short poll timeout stays set between requests; only a frame
    // that arrives in pieces switches to the I/O timeout (`next_request`).
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut stream = stream;
    let mut bucket = shared
        .quota
        .as_ref()
        .map(|q| TokenBucket::new(q, Instant::now()));

    loop {
        let n = match next_request(shared, &mut stream) {
            Some(Ok(n)) => n,
            Some(Err(diagnostic)) => {
                shared
                    .counters
                    .requests_rejected
                    .fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut stream, FrameType::ErrProtocol, diagnostic);
                return;
            }
            None => return, // EOF, I/O failure, or draining
        };
        if !serve_request(shared, &mut stream, bucket.as_mut(), n) {
            return;
        }
    }
}

/// Serves one admitted `REQ n`. Returns `false` when the connection
/// should close (write failure).
fn serve_request(
    shared: &Shared,
    stream: &mut TcpStream,
    bucket: Option<&mut TokenBucket>,
    n: u32,
) -> bool {
    let draining_at_start = shared.draining();
    if n > shared.max_request {
        shared
            .counters
            .requests_rejected
            .fetch_add(1, Ordering::Relaxed);
        return write_frame(
            stream,
            FrameType::ErrTooLarge,
            &shared.max_request.to_be_bytes(),
        )
        .is_ok();
    }

    // Quota: throttle, never reject. During drain the sleep is capped
    // by the deadline so a throttled in-flight request still resolves.
    if let Some(bucket) = bucket {
        let wait = bucket.request(u64::from(n), Instant::now());
        if !wait.is_zero() {
            shared
                .counters
                .throttle_events
                .fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .throttled_ns
                .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
            std::thread::sleep(clamp_to_drain(shared, wait));
        }
    }

    let timeout = clamp_to_drain(shared, shared.request_timeout);
    let mut buf = vec![0u8; n as usize];
    let (kind, delivered) = match shared.pool.try_fill_bytes(&mut buf, timeout) {
        Ok(()) => {
            shared.counters.requests_ok.fetch_add(1, Ordering::Relaxed);
            (FrameType::Ok, n as usize)
        }
        Err(PoolError::Timeout { filled }) => {
            shared
                .counters
                .requests_timeout
                .fetch_add(1, Ordering::Relaxed);
            (FrameType::ErrTimeout, filled)
        }
        Err(PoolError::SourcesExhausted { filled }) => {
            shared
                .counters
                .requests_exhausted
                .fetch_add(1, Ordering::Relaxed);
            (FrameType::ErrExhausted, filled)
        }
        // Build/config errors cannot occur on a running pool; map them
        // to a protocol-level failure rather than fabricating bytes.
        Err(_) => {
            shared
                .counters
                .requests_rejected
                .fetch_add(1, Ordering::Relaxed);
            return write_frame(stream, FrameType::ErrProtocol, b"pool failure").is_ok();
        }
    };
    shared
        .counters
        .bytes_served
        .fetch_add(delivered as u64, Ordering::Relaxed);
    if draining_at_start || shared.draining() {
        shared
            .counters
            .drained_requests
            .fetch_add(1, Ordering::Relaxed);
    }
    write_frame(stream, kind, &buf[..delivered]).is_ok()
}

/// Once draining, bounds `want` by the time left until the drain
/// deadline (with a small floor so an in-flight fill can still flush
/// buffered bytes).
fn clamp_to_drain(shared: &Shared, want: Duration) -> Duration {
    match shared.drain_deadline() {
        Some(deadline) if shared.draining() => {
            let left = deadline.saturating_duration_since(Instant::now());
            want.min(left.max(LAST_GASP))
        }
        _ => want,
    }
}

/// Bytes of a `REQ` frame: the header plus its 4-byte count.
const REQ_FRAME_LEN: usize = HEADER_LEN + 4;

/// Waits for the next request under the [`POLL`] read timeout and
/// returns its byte count, or the diagnostic to reject it with.
///
/// A `REQ` frame that has arrived whole is taken in one read, which
/// never reaches past its 9 bytes (a pipelined next request stays
/// queued). A frame arriving in pieces falls back to a committed read
/// of its rest under the I/O timeout. Returns `None` on clean EOF, an
/// unrecoverable I/O error, or when the server starts draining (no
/// *new* request may begin).
fn next_request(shared: &Shared, stream: &mut TcpStream) -> Option<Result<u32, &'static [u8]>> {
    let mut head = [0u8; REQ_FRAME_LEN];
    let got = loop {
        if shared.draining() {
            return None;
        }
        match stream.read(&mut head) {
            Ok(0) => return None,
            Ok(got) => break got,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => return None,
        }
    };
    let committed = got < REQ_FRAME_LEN;
    if committed && stream.set_read_timeout(Some(shared.io_timeout)).is_err() {
        return None;
    }
    let frame = read_frame(&mut (&head[..got]).chain(&mut *stream), MAX_FRAME_PAYLOAD);
    if committed && stream.set_read_timeout(Some(POLL)).is_err() {
        return None;
    }
    Some(match frame {
        Ok(Some(frame)) => match (frame.kind, parse_req(&frame.payload)) {
            (FrameType::Req, Some(n)) => Ok(n),
            _ => Err(b"expected a REQ frame with a 4-byte count"),
        },
        _ => Err(b"malformed frame"),
    })
}

fn metrics_loop(shared: &Shared, listener: &TcpListener) {
    let stopped = || shared.metrics_stop.load(Ordering::Acquire);
    loop {
        if stopped() {
            return;
        }
        match listener.accept() {
            Ok(_) if stopped() => return,
            Ok((mut stream, _peer)) => {
                let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                let body = render_metrics(shared);
                let _ = stream.write_all(body.as_bytes());
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// The metrics body: a bare `healthy` / `degraded` / `recovering` /
/// `exhausted` status line, then the pool and server counters as
/// pretty JSON.
fn render_metrics(shared: &Shared) -> String {
    let pool_stats = shared.pool.stats();
    let report = Json::obj(vec![
        ("status", Json::str(pool_stats.health().to_string())),
        ("pool", pool_stats.to_json()),
        ("serve", shared.snapshot().to_json()),
    ]);
    format!("{}\n{}", pool_stats.health(), report.to_string_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A blocked acceptor still stops when the first wake-up
    /// connection never arrives: the retry a [`POLL`] later wakes it.
    #[test]
    fn shutdown_retries_a_lost_wake_up() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || loop {
            let _ = listener.accept();
            if flag.load(Ordering::Acquire) {
                return;
            }
        });
        stop.store(true, Ordering::Release);
        let mut wakes = 0;
        let t0 = Instant::now();
        wake_and_join(handle, || {
            wakes += 1;
            if wakes > 1 {
                wake_accept(addr);
            }
        });
        assert!(wakes >= 2, "returned without a wake-up landing");
        assert!(t0.elapsed() < 10 * POLL, "join took {:?}", t0.elapsed());
    }
}
