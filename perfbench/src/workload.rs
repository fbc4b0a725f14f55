//! The three workloads: inputs derived from the seed, the stack each
//! one runs, closed-loop callers with output checks, and the untraced
//! end-to-end run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use trng_core::health::{HealthStatus, OnlineHealth};
use trng_core::trng::TrngConfig;
use trng_pool::{
    Conditioning, EntropyPool, NoiseBackend, PoolConfig, PoolError, PoolHandle, PoolStats,
    RecordedTrace, ShardState, SourceSpec,
};
use trng_serve::{Client, FetchError, ServeConfig, ServeStats, Server};
use trng_sources::{mix_seed, CarryChainSource, EntropySource, TraceReplaySource};

use crate::metrics::{Metric, Outcome};
use crate::procfs;
use crate::span::Recorder;
use crate::stats::{median, LatencySummary};

/// Size of the recorded trace the replay workloads serve from.
pub const TRACE_BYTES: usize = 256 * 1024;
/// Per-shard ring capacity (the `PoolConfig::new` default); the
/// warm-up drains at least twice this per shard before timing starts.
pub const RING_BYTES: usize = 8192;
/// Set-up batches per run; `setup_s` is the median batch mean.
pub const SETUP_BATCHES: usize = 5;
/// Set-ups per batch.
pub const SETUP_PER_BATCH: u32 = 5;
/// Equal slices of the timed window; the timed metrics are taken over
/// them.
pub const SLICES: usize = 10;
/// Deadline for one fill or fetch; a request that cannot finish in
/// time fails with a typed timeout instead of hanging the run.
pub const FILL_TIMEOUT: Duration = Duration::from_secs(10);
/// The gate re-checks about this many delivered bytes per request
/// (every request of 512 B or less, every 8th 4 KiB request).
const CHECK_BYTES: usize = 512;
/// Largest relative gap between measured and design simulated rate.
const SIM_TOLERANCE: f64 = 0.05;
/// The Toeplitz workload's extractor distance, ε = 2^-32.
pub const EPSILON_LOG2: u32 = 32;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's design on the batched simulator: 2 shards, np = 7
    /// XOR, one in-process consumer of 256-byte requests.
    CarryChainXor,
    /// A recorded trace through the gate and Toeplitz extraction:
    /// 1 shard, one in-process consumer of 4 KiB requests.
    ReplayToeplitz,
    /// The same trace unconditioned behind the TCP daemon: 1 shard,
    /// 2 server workers, 2 client connections of 4 KiB requests.
    ReplayRawServe,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::CarryChainXor,
        Workload::ReplayToeplitz,
        Workload::ReplayRawServe,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CarryChainXor => "carry_chain_xor",
            Workload::ReplayToeplitz => "replay_toeplitz",
            Workload::ReplayRawServe => "replay_raw_serve",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Bytes per request.
    pub fn request_bytes(self) -> usize {
        match self {
            Workload::CarryChainXor => 256,
            Workload::ReplayToeplitz | Workload::ReplayRawServe => 4096,
        }
    }

    /// Pool shards.
    pub fn shards(self) -> usize {
        match self {
            Workload::CarryChainXor => 2,
            Workload::ReplayToeplitz | Workload::ReplayRawServe => 1,
        }
    }

    /// Concurrent closed-loop callers.
    pub fn clients(self) -> usize {
        match self {
            Workload::ReplayRawServe => 2,
            _ => 1,
        }
    }

    /// `true` when requests travel through the TCP daemon.
    pub fn served(self) -> bool {
        self == Workload::ReplayRawServe
    }
}

/// Everything a run derives from its seed before set-up starts.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Pool seed (per-shard seeds derive from it).
    pub pool_seed: u64,
    /// Seed of the benchmark's own single-threaded sources.
    pub source_seed: u64,
    /// The carry-chain design: `paper_k1` on the batched noise engine.
    pub config: TrngConfig,
    /// The replayed capture, for the replay workloads.
    pub trace: Option<Arc<RecordedTrace>>,
    /// The source's min-entropy claim per raw bit.
    pub claim: f64,
    /// Conditioning between raw bits and pool bytes.
    pub conditioning: Conditioning,
    /// Raw bits spent per conditioned output bit.
    pub ratio: u32,
}

impl Inputs {
    /// Derives the inputs of `workload` from `seed`. For the replay
    /// workloads this records the trace, which is input generation and
    /// not part of set-up time.
    ///
    /// # Errors
    ///
    /// When the design or the trace cannot be built.
    pub fn generate(workload: Workload, seed: u64) -> Result<Self, String> {
        let config = TrngConfig::paper_k1().with_noise_backend(NoiseBackend::Batched);
        let claim = trng_core::selftest::claimed_min_entropy(&config).map_err(|e| e.to_string())?;
        let (trace, conditioning) = match workload {
            Workload::CarryChainXor => (None, Conditioning::DesignXor),
            Workload::ReplayToeplitz | Workload::ReplayRawServe => {
                let trace = RecordedTrace::record(&config, mix_seed(seed, 3), TRACE_BYTES)
                    .map_err(|e| e.to_string())?;
                let conditioning = if workload == Workload::ReplayToeplitz {
                    Conditioning::toeplitz_sized(
                        trace.claimed_min_entropy,
                        EPSILON_LOG2,
                        mix_seed(seed, 4),
                    )
                } else {
                    Conditioning::Raw
                };
                (Some(Arc::new(trace)), conditioning)
            }
        };
        let ratio = match conditioning {
            Conditioning::DesignXor => config.design.np,
            Conditioning::Toeplitz { ratio, .. } => ratio,
            _ => 1,
        };
        Ok(Inputs {
            workload,
            pool_seed: mix_seed(seed, 1),
            source_seed: mix_seed(seed, 2),
            config,
            trace,
            claim,
            conditioning,
            ratio,
        })
    }

    /// The pool configuration of this workload.
    pub fn pool_config(&self) -> PoolConfig {
        let config = PoolConfig::new(self.config.clone(), self.workload.shards())
            .with_seed(self.pool_seed)
            .with_conditioning(self.conditioning);
        match &self.trace {
            Some(trace) => config.with_sources(vec![
                SourceSpec::TraceReplay(Arc::clone(trace));
                self.workload.shards()
            ]),
            None => config,
        }
    }

    /// A fresh instance of the workload's source backend.
    ///
    /// # Errors
    ///
    /// When the backend cannot be built.
    pub fn source(&self, seed: u64) -> Result<Box<dyn EntropySource>, String> {
        Ok(match &self.trace {
            Some(trace) => {
                Box::new(TraceReplaySource::new(Arc::clone(trace)).map_err(|e| e.to_string())?)
            }
            None => Box::new(
                CarryChainSource::new(self.config.clone(), seed).map_err(|e| e.to_string())?,
            ),
        })
    }

    /// The design's delivered rate in simulated time: one raw bit per
    /// accumulation window per shard, divided by the conditioning ratio.
    pub fn expected_sim_mbps(&self) -> f64 {
        self.workload.shards() as f64 * 1e6 / self.config.design.t_a_ps() / f64::from(self.ratio)
    }
}

/// The serving configuration of the served workload.
pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_workers(2)
        .with_metrics_addr(None)
        .with_request_timeout(FILL_TIMEOUT)
}

/// A built delivery stack.
// A run holds one or two stacks at a time, so the in-process pool is
// kept inline rather than boxed.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Stack {
    /// The pool, called directly.
    InProcess(EntropyPool),
    /// The pool behind its shared handle.
    Shared(PoolHandle),
    /// The pool behind the TCP daemon.
    Served {
        /// A handle for reading pool statistics.
        handle: PoolHandle,
        /// The running daemon.
        server: Server,
    },
}

impl Stack {
    /// Builds the workload's stack: `EntropyPool::new` through
    /// `wait_online`, plus `Server::start` for the served workload.
    /// Returns the stack and how long that took.
    ///
    /// # Errors
    ///
    /// When the pool or the daemon cannot start, or a shard is not
    /// online after admission.
    pub fn build(inputs: &Inputs) -> Result<(Stack, Duration), String> {
        let start = Instant::now();
        let mut pool = EntropyPool::new(inputs.pool_config()).map_err(|e| e.to_string())?;
        // Watch admission at a finer grain than `wait_online`'s 200 µs
        // poll, so that poll does not quantise short set-ups into modes
        // a small change in host speed flips between. Yield while a CPU
        // is left over for this thread; otherwise nap briefly, so the
        // watching never slows the shards' start-up tests.
        let spare_cpu =
            std::thread::available_parallelism().is_ok_and(|n| n.get() > inputs.workload.shards());
        let admission_deadline = start + Duration::from_secs(60);
        while pool
            .stats()
            .shards
            .iter()
            .any(|s| s.state == ShardState::Starting)
            && Instant::now() < admission_deadline
        {
            if spare_cpu {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(10));
            }
        }
        let online = pool
            .wait_online(Duration::from_secs(60))
            .map_err(|e| e.to_string())?;
        if online != inputs.workload.shards() {
            return Err(format!(
                "{online} of {} shards came online",
                inputs.workload.shards()
            ));
        }
        let stack = if inputs.workload.served() {
            let handle = pool.into_shared();
            let server =
                Server::start(handle.clone(), serve_config()).map_err(|e| e.to_string())?;
            Stack::Served { handle, server }
        } else {
            Stack::InProcess(pool)
        };
        Ok((stack, start.elapsed()))
    }

    /// Pool statistics. On a shared pool this takes the fill mutex, so
    /// call it only outside a timed window.
    pub fn pool_stats(&self) -> PoolStats {
        match self {
            Stack::InProcess(pool) => pool.stats(),
            Stack::Shared(handle) | Stack::Served { handle, .. } => handle.stats(),
        }
    }

    /// Daemon statistics, when the stack serves over TCP.
    pub fn serve_stats(&self) -> Option<ServeStats> {
        match self {
            Stack::Served { server, .. } => Some(server.stats()),
            _ => None,
        }
    }
}

/// A fresh SP 800-90B gate at the source's claim, re-checking the
/// delivered stream. It samples whole requests so that checking costs
/// about [`CHECK_BYTES`] per request whatever the request size.
#[derive(Debug, Clone)]
pub struct Gate {
    health: OnlineHealth,
    every: u64,
    seen: u64,
    /// Bits checked.
    pub bits: u64,
    /// Alarms raised (the gate is reset after each).
    pub alarms: u64,
}

impl Gate {
    /// A gate for requests of `request_bytes` at min-entropy `claim`.
    pub fn new(claim: f64, request_bytes: usize) -> Self {
        Gate {
            health: OnlineHealth::new(claim),
            every: (request_bytes / CHECK_BYTES).max(1) as u64,
            seen: 0,
            bits: 0,
            alarms: 0,
        }
    }

    /// Offers one delivered request to the gate.
    pub fn check(&mut self, bytes: &[u8]) {
        self.seen += 1;
        if !(self.seen - 1).is_multiple_of(self.every) {
            return;
        }
        for &byte in bytes {
            for k in (0..8).rev() {
                if self.health.push(byte >> k & 1 == 1) == HealthStatus::Alarm {
                    self.alarms += 1;
                    self.health.reset();
                }
            }
        }
        self.bits += bytes.len() as u64 * 8;
    }
}

/// What a stretch of closed-loop requests did.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Per-request latency, ms.
    pub latencies_ms: Vec<f64>,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Healthy bytes returned to the callers (full and partial).
    pub bytes: u64,
    /// Wall time from the first request to the last reply.
    pub elapsed: Duration,
}

impl Tally {
    /// Delivered Mb/s over the stretch.
    pub fn mbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Adds a stretch that ran at the same time as this one.
    fn join(&mut self, other: Tally) {
        let elapsed = self.elapsed.max(other.elapsed);
        self.then(other);
        self.elapsed = elapsed;
    }

    /// Adds a stretch that ran after this one.
    pub fn then(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bytes += other.bytes;
        self.elapsed += other.elapsed;
    }
}

/// How one request ended.
enum Reply {
    /// All bytes delivered.
    Full,
    /// A typed failure with `usize` healthy bytes delivered.
    Partial(usize),
    /// The connection is unusable; the caller stops.
    Broken,
}

/// One closed-loop caller.
enum Caller<'a> {
    Pool(&'a mut EntropyPool),
    Handle(&'a PoolHandle),
    Client(&'a mut Client),
}

impl Caller<'_> {
    fn span_name(&self) -> &'static str {
        match self {
            Caller::Pool(_) => "pool.fill_bytes",
            Caller::Handle(_) => "handle.fill_bytes",
            Caller::Client(_) => "serve.fetch",
        }
    }

    /// Issues one request for `buf.len()` bytes into `buf`.
    fn call(&mut self, buf: &mut Vec<u8>) -> Reply {
        let pool_reply = |r: Result<(), PoolError>| match r {
            Ok(()) => Reply::Full,
            Err(PoolError::Timeout { filled } | PoolError::SourcesExhausted { filled }) => {
                Reply::Partial(filled)
            }
            Err(_) => Reply::Partial(0),
        };
        match self {
            Caller::Pool(pool) => pool_reply(pool.try_fill_bytes(buf, FILL_TIMEOUT)),
            Caller::Handle(handle) => pool_reply(handle.try_fill_bytes(buf, FILL_TIMEOUT)),
            Caller::Client(client) => match client.fetch(buf.len() as u32) {
                Ok(bytes) if bytes.len() == buf.len() => {
                    *buf = bytes;
                    Reply::Full
                }
                Ok(bytes) => Reply::Partial(bytes.len()),
                Err(FetchError::Timeout { partial } | FetchError::Exhausted { partial }) => {
                    Reply::Partial(partial.len())
                }
                Err(FetchError::TooLarge { .. }) => Reply::Partial(0),
                Err(FetchError::Io(_) | FetchError::Protocol(_)) => Reply::Broken,
            },
        }
    }
}

/// Issues requests of `n` bytes back to back until `deadline`. With a
/// recorder, each request leaves a root `request` span (call plus
/// output check) over a child span of the call itself.
fn drive(
    caller: &mut Caller<'_>,
    n: usize,
    deadline: Instant,
    gate: &mut Gate,
    mut rec: Option<&mut Recorder>,
) -> Tally {
    let mut tally = Tally::default();
    let mut buf = vec![0u8; n];
    let first = Instant::now();
    while Instant::now() < deadline {
        buf.resize(n, 0);
        let start = Instant::now();
        let reply = caller.call(&mut buf);
        let done = Instant::now();
        tally.attempted += 1;
        tally.latencies_ms.push((done - start).as_secs_f64() * 1e3);
        match reply {
            Reply::Full => {
                tally.bytes += n as u64;
                gate.check(&buf);
            }
            Reply::Partial(got) => {
                tally.bytes += got as u64;
                tally.failed += 1;
            }
            Reply::Broken => {
                tally.failed += 1;
                break;
            }
        }
        if let Some(rec) = rec.as_deref_mut() {
            let bits = n as u64 * 8;
            let id = tally.attempted;
            let root = rec.record("request", None, id, start, Instant::now(), bits);
            rec.record(caller.span_name(), Some(root), id, start, done, bits);
        }
    }
    tally.elapsed = first.elapsed();
    tally
}

/// A stack with its connected callers, kept across warm-up, timed
/// windows and statistics reads.
#[derive(Debug)]
pub struct Session {
    // Declared before `stack` so connections close before the daemon
    // drains.
    clients: Vec<Client>,
    gates: Vec<Gate>,
    stack: Stack,
    request_bytes: usize,
    shards: usize,
    /// Healthy bytes delivered to this session's callers so far.
    pub delivered: u64,
}

impl Session {
    /// Connects the workload's callers to `stack`.
    ///
    /// # Errors
    ///
    /// When a client cannot connect.
    pub fn open(stack: Stack, inputs: &Inputs) -> Result<Self, String> {
        let callers = match &stack {
            Stack::Served { .. } => inputs.workload.clients(),
            _ => 1,
        };
        let clients = match &stack {
            Stack::Served { server, .. } => (0..callers)
                .map(|_| Client::connect_with_timeout(server.local_addr(), FILL_TIMEOUT * 3))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("client connect failed: {e}"))?,
            _ => Vec::new(),
        };
        let request_bytes = inputs.workload.request_bytes();
        Ok(Session {
            clients,
            gates: vec![Gate::new(inputs.claim, request_bytes); callers],
            stack,
            request_bytes,
            shards: inputs.workload.shards(),
            delivered: 0,
        })
    }

    /// Runs every caller closed-loop for `window`; with `epoch`, also
    /// records spans (one recorder per caller thread, merged).
    pub fn run(&mut self, window: Duration, epoch: Option<Instant>) -> (Tally, Option<Recorder>) {
        let n = self.request_bytes;
        let deadline = Instant::now() + window;
        let mut rec = epoch.map(Recorder::new);
        let tally = match &mut self.stack {
            Stack::InProcess(pool) => drive(
                &mut Caller::Pool(pool),
                n,
                deadline,
                &mut self.gates[0],
                rec.as_mut(),
            ),
            Stack::Shared(handle) => drive(
                &mut Caller::Handle(handle),
                n,
                deadline,
                &mut self.gates[0],
                rec.as_mut(),
            ),
            Stack::Served { .. } => std::thread::scope(|s| {
                let threads: Vec<_> = self
                    .clients
                    .iter_mut()
                    .zip(self.gates.iter_mut())
                    .map(|(client, gate)| {
                        s.spawn(move || {
                            let mut own = epoch.map(Recorder::new);
                            let tally =
                                drive(&mut Caller::Client(client), n, deadline, gate, own.as_mut());
                            (tally, own)
                        })
                    })
                    .collect();
                let mut total = Tally::default();
                for thread in threads {
                    let (tally, own) = thread.join().expect("client thread panicked");
                    total.join(tally);
                    if let (Some(rec), Some(own)) = (rec.as_mut(), own) {
                        rec.absorb(own);
                    }
                }
                total
            }),
        };
        self.delivered += tally.bytes;
        (tally, rec)
    }

    /// Closed-loop requests until the ring prefill is drained (twice
    /// the ring capacity per shard) and lazy set-up has settled (at
    /// least `min` of traffic).
    ///
    /// # Errors
    ///
    /// When a warm-up request fails or the pool delivers too slowly.
    pub fn warm_up(&mut self, min: Duration) -> Result<(), String> {
        let want = 2 * (self.shards * RING_BYTES) as u64;
        let give_up = Instant::now() + Duration::from_secs(60);
        let mut got = 0;
        loop {
            let (tally, _) = self.run(min, None);
            if tally.failed > 0 {
                return Err(format!("{} warm-up requests failed", tally.failed));
            }
            got += tally.bytes;
            if got >= want {
                return Ok(());
            }
            if Instant::now() > give_up {
                return Err(format!("warm-up delivered only {got} of {want} bytes"));
            }
        }
    }

    /// The stack.
    pub fn stack(&self) -> &Stack {
        &self.stack
    }

    /// Gate alarms across callers.
    pub fn gate_alarms(&self) -> u64 {
        self.gates.iter().map(|g| g.alarms).sum()
    }

    /// Bits the gates checked.
    pub fn gate_bits(&self) -> u64 {
        self.gates.iter().map(|g| g.bits).sum()
    }

    /// Closes the callers and hands back the stack.
    pub fn into_stack(self) -> Stack {
        drop(self.clients);
        self.stack
    }
}

/// Delivered bits per simulated second between two snapshots: the bits
/// over the mean simulated time the shards advanced.
pub fn sim_mbps(before: &PoolStats, after: &PoolStats, bits: f64) -> f64 {
    let advanced: Vec<f64> = after
        .shards
        .iter()
        .zip(&before.shards)
        .map(|(a, b)| a.sim_elapsed.saturating_sub(b.sim_elapsed).as_secs_f64())
        .collect();
    let mean = advanced.iter().sum::<f64>() / advanced.len().max(1) as f64;
    bits / mean / 1e6
}

/// Checks that re-gating the session's delivered stream raised no alarm.
pub fn check_gates(session: &Session, problems: &mut Vec<String>) {
    if session.gate_alarms() > 0 {
        problems.push(format!(
            "re-gating the delivered stream raised {} alarms over {} bits",
            session.gate_alarms(),
            session.gate_bits()
        ));
    }
    if session.gate_bits() == 0 {
        problems.push("no delivered bytes were re-gated".into());
    }
}

/// Output checks shared by the untraced and traced runs: the gate saw
/// no alarm, the pool counted `pool_bytes` delivered (what its callers
/// received over its lifetime), the daemon counted exactly what this
/// session's clients received, and every shard is still online.
pub fn check_session(
    session: &Session,
    stats: &PoolStats,
    pool_bytes: u64,
    problems: &mut Vec<String>,
) {
    check_gates(session, problems);
    if stats.bytes_delivered != pool_bytes {
        problems.push(format!(
            "pool counted {} bytes delivered, callers received {pool_bytes}",
            stats.bytes_delivered
        ));
    }
    if let Some(serve) = session.stack().serve_stats() {
        if serve.bytes_served != session.delivered {
            problems.push(format!(
                "daemon counted {} bytes served, clients received {}",
                serve.bytes_served, session.delivered
            ));
        }
    }
    for shard in &stats.shards {
        if shard.state != ShardState::Online {
            problems.push(format!("shard {} ended {}", shard.id, shard.state));
        }
    }
}

/// Measures set-up [`SETUP_BATCHES`] × [`SETUP_PER_BATCH`] times and
/// returns the last stack with the median of the batch means. Set-up
/// is short and quantised by the pool's admission poll, so single
/// set-ups split into modes; batch means smooth the modes, the median
/// drops a disturbed batch.
fn set_up(inputs: &Inputs) -> Result<(Stack, f64), String> {
    let mut batches = Vec::with_capacity(SETUP_BATCHES);
    let mut stack = None;
    for _ in 0..SETUP_BATCHES {
        let mut total = Duration::ZERO;
        for _ in 0..SETUP_PER_BATCH {
            drop(stack.take());
            let (built, took) = Stack::build(inputs)?;
            total += took;
            stack = Some(built);
        }
        batches.push(total.as_secs_f64() / SETUP_PER_BATCH as f64);
    }
    Ok((stack.expect("at least one set-up"), median(&batches)))
}

/// One slice of the timed window.
struct Slice {
    mbps: f64,
    latency: LatencySummary,
    cpu_ms_per_mbit: f64,
}

/// The untraced run: set up (see [`set_up`]), warm up, then drive the
/// workload for `seconds` in [`SLICES`] equal slices and report the
/// end-to-end metrics. Throughput, p50 latency and CPU cost are means
/// over the slices: host speed drifts between regimes that last
/// seconds, and a mean follows each regime's share smoothly where a
/// median jumps between regimes.
///
/// # Errors
///
/// When set-up or warm-up fails, or `/proc` cannot be read.
pub fn run_end_to_end(inputs: &Inputs, seconds: f64) -> Result<Outcome, String> {
    let (stack, setup_s) = set_up(inputs)?;
    let mut session = Session::open(stack, inputs)?;
    session.warm_up(Duration::from_secs_f64((seconds * 0.05).clamp(0.25, 1.0)))?;

    let before = session.stack().pool_stats();
    let mut total = Tally::default();
    let mut slices = Vec::with_capacity(SLICES);
    for _ in 0..SLICES {
        let cpu_before = procfs::cpu_seconds()?;
        let (tally, _) = session.run(Duration::from_secs_f64(seconds / SLICES as f64), None);
        let cpu = procfs::cpu_seconds()? - cpu_before;
        slices.push(Slice {
            mbps: tally.mbps(),
            latency: LatencySummary::of(&tally.latencies_ms),
            cpu_ms_per_mbit: cpu * 1e3 / (tally.bytes as f64 * 8.0 / 1e6),
        });
        total.then(tally);
    }
    let after = session.stack().pool_stats();
    let peak_rss = procfs::peak_rss_mb()?;

    let mut problems = Vec::new();
    check_session(&session, &after, session.delivered, &mut problems);
    let bits = total.bytes as f64 * 8.0;
    if slices.iter().any(|s| s.latency.count == 0 || s.mbps == 0.0) {
        problems.push("a slice of the timed window delivered nothing".into());
    }
    let sim = sim_mbps(&before, &after, bits);
    let expected = inputs.expected_sim_mbps();
    if (sim / expected - 1.0).abs() > SIM_TOLERANCE {
        problems.push(format!(
            "simulated rate {sim:.3} Mb/s is off the design's {expected:.3} Mb/s"
        ));
    }

    let mean = |f: fn(&Slice) -> f64| slices.iter().map(f).sum::<f64>() / SLICES as f64;
    let metrics = vec![
        Metric::new("delivered_mbps", mean(|s| s.mbps), "Mb/s"),
        Metric::new("latency_p50_ms", mean(|s| s.latency.p50), "ms"),
        // One disturbed slice can carry an outlying tail, so the tail
        // takes the median over slices.
        Metric::new(
            "latency_p99_ms",
            median(&slices.iter().map(|s| s.latency.tail).collect::<Vec<_>>()),
            "ms",
        ),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("cpu_ms_per_mbit", mean(|s| s.cpu_ms_per_mbit), "ms/Mbit"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ];
    let whole = LatencySummary::of(&total.latencies_ms);
    let slice_tail = slices
        .iter()
        .map(|s| s.latency.tail_percentile)
        .fold(99.0, f64::min);
    let slice_count = slices.iter().map(|s| s.latency.count).min().unwrap_or(0);
    // `sim_mbps` is a pure function of the design and the delivered
    // bits, not of host speed: it is checked against the design rate
    // and reported beside the metrics, not as a timed metric.
    let notes = vec![
        format!(
            "{:<36} {sim:>16.6} Mb/s simulated (design {expected:.6})",
            "sim_mbps"
        ),
        format!(
            "{SLICES} slices; latency_p99_ms is p{slice_tail:.2} or higher over at least \
             {slice_count} requests per slice"
        ),
        format!(
            "whole window: {:.6} Mb/s, {} requests, p50 {:.3} ms, p{:.2} {:.3} ms, max {:.3} ms",
            total.mbps(),
            whole.count,
            whole.p50,
            whole.tail_percentile,
            whole.tail,
            whole.max
        ),
        format!(
            "{} delivered bits re-gated, {} alarms",
            session.gate_bits(),
            session.gate_alarms()
        ),
    ];
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: total.attempted,
        failed: total.failed,
        metrics,
        problems,
        notes,
    })
}
