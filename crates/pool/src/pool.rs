//! The entropy pool: N shards behind one byte-stream interface.
//!
//! Two interchangeable execution backends drive the same
//! [`Shard`](crate::shard) state machine:
//!
//! * **threaded** (default) — one worker thread per shard, each
//!   feeding a bounded lock-free SPSC ring; the pool handle drains
//!   the rings round-robin. Workers park when their ring is full
//!   (backpressure) and the consumer parks when every ring is empty;
//!   the other side of the ring unparks them (see [`ring`]).
//! * **deterministic replay** — no threads: shards are stepped
//!   round-robin inside the consumer's call, so a given
//!   `(PoolConfig, seed)` always yields the byte-identical stream and
//!   [`PoolStats`] — including injected shard failures — which makes
//!   pool behaviour reproducible in tests.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use trng_core::trng::TrngConfig;
use trng_extract::{extracted_min_entropy_per_bit, leftover_hash_ratio, ToeplitzExtractor};
use trng_sources::{
    CarryChainSource, DualOscConfig, DualOscillatorSource, EntropySource, OsEntropySource,
    RecordedTrace, SourceError, TraceReplaySource,
};

use crate::coherence::{
    encode_coherence_detail, CoherenceConfig, CoherenceDetector, CoherenceResponse,
};
use crate::journal::{IncidentKind, Journal, DEFAULT_JOURNAL_CAPACITY};
use crate::monitor::MonitorConfig;
use crate::ring;
use crate::shard::{mix_seed, Conditioning, FaultInjection, Shard};
use crate::stats::{ComposedStats, PoolStats, ShardShared, ShardState};

/// Longest a worker or consumer stays parked on its ring without a
/// wakeup — the fallback that bounds what a lost wakeup costs (the
/// park/unpark protocol is in DESIGN.md §8, "Transport and
/// backpressure") — and the admission poll interval.
const NAP: Duration = Duration::from_micros(200);

/// Per-shard ring capacity in bytes (threaded backend).
const RING_CAPACITY: usize = 8192;

/// Elastic shard management: when retirements drop the number of
/// serviceable (non-retired) shards below `online_floor`, the pool's
/// supervisor spawns a replacement shard on the next fresh disjoint
/// fabric placement ([`TrngConfig::for_shard`] at the next unused
/// index). Replacements pass the same AIS-31-style start-up gate as
/// the initial complement before contributing a byte; respawn storms
/// are bounded by `max_respawns` (a lifetime budget) and `backoff`
/// (minimum wall-clock spacing between attempts, threaded backend
/// only — the deterministic replay backend ignores it so replay stays
/// a pure function of the configuration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RespawnPolicy {
    /// Minimum number of serviceable shards; a respawn triggers when
    /// the non-retired count drops below this.
    pub online_floor: usize,
    /// Lifetime budget of replacement spawns (attempts count even if
    /// the replacement fails its admission gate).
    pub max_respawns: u32,
    /// Minimum spacing between spawn attempts (threaded backend). The
    /// timer arms when a deficit is first noticed, so the first
    /// attempt also waits this long after the triggering retirement.
    pub backoff: Duration,
    /// Settle time a freshly spawned replacement waits before its
    /// first admission attempt (threaded backend only, like
    /// `backoff`). A re-placed ring-oscillator chain needs its
    /// operating point to stabilise before the start-up test is
    /// meaningful; the pool reads `recovering` for at least this long.
    pub settle: Duration,
}

impl RespawnPolicy {
    /// A policy holding `online_floor` shards serviceable with a
    /// lifetime budget of `max_respawns` replacements, no backoff and
    /// no settle time.
    pub fn new(online_floor: usize, max_respawns: u32) -> Self {
        RespawnPolicy {
            online_floor,
            max_respawns,
            backoff: Duration::ZERO,
            settle: Duration::ZERO,
        }
    }

    /// Sets the minimum spacing between spawn attempts, builder-style.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Sets the replacement settle time, builder-style.
    pub fn with_settle(mut self, settle: Duration) -> Self {
        self.settle = settle;
        self
    }
}

/// Pool-level composed conditioning: interleave the (per-shard
/// conditioned, health-gated) delivery stream across all shards, then
/// run it through one seeded Toeplitz strong extractor — the first
/// output stage that *combines* entropy across independent shards
/// instead of conditioning each in isolation.
///
/// The composed claim ties the per-source eq. (7) bounds to the
/// extractor's output: every interleaved input bit carries at least
/// the *minimum* per-raw-bit min-entropy claim across the pool's
/// shards (per-shard conditioning only concentrates entropy, never
/// dilutes it below the raw claim), so hashing `ratio · 64` input
/// bits to 64 output bits at the leftover-hash-sized ratio yields
/// blocks within `ε = 2^−epsilon_log2` of uniform — a per-bit output
/// claim of [`extracted_min_entropy_per_bit`]`(64, epsilon_log2)`,
/// published as `claimed_min_entropy` in [`ComposedStats`] next to a
/// measured estimate the replay tests pin `claimed ≤ measured`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComposedExtract {
    /// Statistical-distance target `ε = 2^−epsilon_log2` for the
    /// leftover-hash sizing and the published output claim.
    pub epsilon_log2: u32,
    /// Matrix seed lane, mixed with the pool seed
    /// ([`mix_seed`]) so the composed stream
    /// stays a pure function of the configuration.
    pub seed: u64,
    /// Interleaved input bits per output bit. `None` (the default)
    /// sizes the ratio from the minimum per-source claim across the
    /// pool's shards via
    /// [`leftover_hash_ratio`].
    pub ratio: Option<u32>,
}

impl ComposedExtract {
    /// A composed stage at `ε = 2^−epsilon_log2` whose ratio is sized
    /// from the pool's per-source claims at build time.
    pub fn new(epsilon_log2: u32, seed: u64) -> Self {
        ComposedExtract {
            epsilon_log2,
            seed,
            ratio: None,
        }
    }

    /// Overrides the leftover-hash ratio sizing, builder-style. Must
    /// be at least 1 (validated at pool construction).
    pub fn with_ratio(mut self, ratio: u32) -> Self {
        self.ratio = Some(ratio);
        self
    }
}

/// Live state of the composed cross-shard extract stage: the seeded
/// extractor, buffered output bytes, and the claimed-vs-measured
/// min-entropy bookkeeping surfaced through [`ComposedStats`].
struct ComposedStage {
    extractor: ToeplitzExtractor,
    ratio: u32,
    epsilon_log2: u32,
    input_claim: f64,
    claimed: f64,
    /// Composed output bytes emitted but not yet handed to a consumer.
    out: VecDeque<u8>,
    /// Byte-value histogram of every composed output byte, feeding the
    /// most-common-value measured min-entropy estimate.
    counts: Box<[u64; 256]>,
    bytes_extracted: u64,
    /// Reused interleaved-input fetch buffer.
    scratch: Vec<u8>,
}

/// Composed output bytes the estimator needs before it reports a
/// non-zero measured min-entropy (the MCV estimate on fewer bytes is
/// all confidence penalty).
const COMPOSED_MEASURE_FLOOR: u64 = 4096;

/// Largest interleaved-input chunk fetched per inner fill, bounding
/// the scratch buffer while amortizing the per-call overhead.
const COMPOSED_CHUNK: usize = 64 * 1024;

impl ComposedStage {
    fn new(config: ComposedExtract, pool_seed: u64, input_claim: f64) -> Self {
        let ratio = config
            .ratio
            .unwrap_or_else(|| leftover_hash_ratio(input_claim, config.epsilon_log2, 64));
        let seed = mix_seed(pool_seed, mix_seed(config.seed, 0xC0_3ED));
        ComposedStage {
            extractor: ToeplitzExtractor::from_seed(64, ratio as usize * 64, seed),
            ratio,
            epsilon_log2: config.epsilon_log2,
            input_claim,
            claimed: extracted_min_entropy_per_bit(64, config.epsilon_log2),
            out: VecDeque::new(),
            counts: Box::new([0u64; 256]),
            bytes_extracted: 0,
            scratch: Vec::new(),
        }
    }

    /// Interleaved input bytes needed to emit `out_bytes` more composed
    /// bytes, given the extractor's partial block. Exact: the input
    /// block is `ratio · 64` bits and input arrives in whole bytes, so
    /// the demand is always byte-aligned.
    fn input_bytes_for(&self, out_bytes: usize) -> usize {
        let blocks = (out_bytes * 8).div_ceil(64);
        let need_bits =
            blocks * self.extractor.input_block_bits() - self.extractor.pending_input_bits();
        need_bits.div_ceil(8)
    }

    /// Absorbs interleaved delivery-stream bytes (MSB-first bit order,
    /// matching shard byte assembly); completed 64-bit blocks land in
    /// the output buffer as 8 bytes each.
    fn absorb(&mut self, input: &[u8]) {
        // Big-endian words put the stream-first bit at bit 63, the
        // order `push_word` expects; a short tail fills the top bytes.
        for chunk in input.chunks(8) {
            let mut bytes = [0u8; 8];
            bytes[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_be_bytes(bytes);
            if let Some(y) = self.extractor.push_word(word, 8 * chunk.len() as u32) {
                // Output bit `y_i` is stream bit `i`: reversed, `y_0`
                // takes the MSB of the first byte.
                for out in y.reverse_bits().to_be_bytes() {
                    self.counts[out as usize] += 1;
                    self.out.push_back(out);
                }
                self.bytes_extracted += 8;
            }
        }
    }

    /// Moves buffered composed bytes into `dest[filled..]`, returning
    /// the new fill level.
    fn drain(&mut self, dest: &mut [u8], mut filled: usize) -> usize {
        while filled < dest.len() {
            match self.out.pop_front() {
                Some(b) => {
                    dest[filled] = b;
                    filled += 1;
                }
                None => break,
            }
        }
        filled
    }

    /// Measured per-bit min-entropy of the composed output: a byte
    /// most-common-value estimate with a 99% confidence penalty (the
    /// SP 800-90B 6.3.1 construction), 0.0 until
    /// [`COMPOSED_MEASURE_FLOOR`] bytes have accumulated.
    fn measured_min_entropy(&self) -> f64 {
        let n = self.bytes_extracted;
        if n < COMPOSED_MEASURE_FLOOR {
            return 0.0;
        }
        let nf = n as f64;
        let p_hat = self.counts.iter().copied().max().unwrap_or(0) as f64 / nf;
        let p_upper = (p_hat + 2.576 * (p_hat * (1.0 - p_hat) / (nf - 1.0)).sqrt()).min(1.0);
        -p_upper.log2() / 8.0
    }

    fn stats(&self) -> ComposedStats {
        ComposedStats {
            ratio: self.ratio,
            epsilon_log2: self.epsilon_log2,
            input_claim_min_entropy: self.input_claim,
            claimed_min_entropy: self.claimed,
            measured_min_entropy: self.measured_min_entropy(),
            bytes_extracted: self.bytes_extracted,
        }
    }
}

/// Which entropy backend one shard runs — the heterogeneous
/// source-mix unit of [`PoolConfig::with_sources`].
#[derive(Debug, Clone)]
pub enum SourceSpec {
    /// The paper's carry-chain TDC simulator, placed on its own
    /// disjoint fabric columns via [`TrngConfig::for_shard`] at the
    /// shard's index. The default for every shard when no source mix
    /// is configured.
    CarryChain,
    /// A dual-oscillator sampler built from the simulator's
    /// ring-oscillator primitives. Boxed: the oscillator config is an
    /// order of magnitude larger than every other variant.
    DualOscillator(Box<DualOscConfig>),
    /// Replay of a recorded raw capture through the live
    /// health/conditioning stack.
    TraceReplay(Arc<RecordedTrace>),
    /// The operating system's entropy pool. Deterministic pools get
    /// the seeded stand-in so replay stays a pure function of the
    /// configuration.
    OsEntropy,
}

/// Configuration of an [`EntropyPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Base TRNG design; shard `i` runs [`TrngConfig::for_shard`]`(i)`.
    pub base: TrngConfig,
    /// Number of shards (parallel TRNG instances).
    pub shards: usize,
    /// Pool-level simulation seed; per-shard seeds are derived.
    pub seed: u64,
    /// Conditioning between raw bits and pool bytes.
    pub conditioning: Conditioning,
    /// Bytes per health-gated production block.
    pub block_bytes: usize,
    /// Alarms a shard may survive (each costs a quarantine plus a
    /// passed re-admission test) before it is retired outright.
    pub max_readmissions: u32,
    /// `true` selects the single-threaded deterministic replay
    /// backend.
    pub deterministic: bool,
    /// Scripted fault schedule, for tests and failover drills. Any
    /// number of faults, each targeting one shard index; with a
    /// [`RespawnPolicy`] the schedule may also target replacement
    /// indices (`shards..shards + max_respawns`).
    pub faults: Vec<FaultInjection>,
    /// Elastic shard management; `None` disables respawning.
    pub respawn: Option<RespawnPolicy>,
    /// Online jitter monitoring; `None` (the default) disables it so
    /// existing replay streams and journals stay byte-identical.
    pub monitor: Option<MonitorConfig>,
    /// Heterogeneous source mix: entry `i` picks shard `i`'s backend.
    /// Empty (the default) runs every shard on [`SourceSpec::CarryChain`]
    /// — byte-identical to pools built before source mixing existed.
    /// Non-empty lists must name exactly one spec per shard.
    pub sources: Vec<SourceSpec>,
    /// Pool-level composed conditioning (interleave-then-extract
    /// across shards); `None` (the default) keeps the delivery stream
    /// byte-identical to pools built before the stage existed.
    pub composed: Option<ComposedExtract>,
    /// Cross-shard coherence detection over the monitors' period-probe
    /// residuals; `None` (the default) disables it. Requires
    /// [`monitor`](PoolConfig::monitor) — the detector has nothing to
    /// scan without per-shard observations.
    pub coherence: Option<CoherenceConfig>,
}

impl PoolConfig {
    /// A pool of `shards` instances of `base` with default service
    /// parameters (design-rate XOR conditioning, 8 KiB rings, 256-byte
    /// blocks, 2 re-admissions, threaded backend).
    pub fn new(base: TrngConfig, shards: usize) -> Self {
        PoolConfig {
            base,
            shards,
            seed: 0x5EED,
            conditioning: Conditioning::DesignXor,
            block_bytes: 256,
            max_readmissions: 2,
            deterministic: false,
            faults: Vec::new(),
            respawn: None,
            monitor: None,
            sources: Vec::new(),
            composed: None,
            coherence: None,
        }
    }

    /// Sets the pool seed, builder-style.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the conditioning stage, builder-style.
    pub fn with_conditioning(mut self, conditioning: Conditioning) -> Self {
        self.conditioning = conditioning;
        self
    }

    /// Sets the production block size, builder-style.
    pub fn with_block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = bytes.max(1);
        self
    }

    /// Sets the alarm budget, builder-style.
    pub fn with_max_readmissions(mut self, n: u32) -> Self {
        self.max_readmissions = n;
        self
    }

    /// Selects the deterministic replay backend, builder-style.
    pub fn deterministic(mut self, on: bool) -> Self {
        self.deterministic = on;
        self
    }

    /// Scripts one fault injection, builder-style (appends to the
    /// schedule; call repeatedly for multi-fault campaigns).
    pub fn with_fault(mut self, fault: FaultInjection) -> Self {
        self.faults.push(fault);
        self
    }

    /// Replaces the whole fault schedule, builder-style.
    pub fn with_faults(mut self, faults: Vec<FaultInjection>) -> Self {
        self.faults = faults;
        self
    }

    /// Enables elastic shard management, builder-style.
    pub fn with_respawn(mut self, policy: RespawnPolicy) -> Self {
        self.respawn = Some(policy);
        self
    }

    /// Enables the online jitter monitor on every shard, builder-style.
    pub fn with_monitor(mut self, monitor: MonitorConfig) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Sets the per-shard source mix, builder-style; `sources[i]`
    /// picks shard `i`'s backend and the list must cover every shard.
    pub fn with_sources(mut self, sources: Vec<SourceSpec>) -> Self {
        self.sources = sources;
        self
    }

    /// Enables the pool-level composed extract stage, builder-style:
    /// the interleaved cross-shard delivery stream is hashed through
    /// one seeded Toeplitz extractor before any byte reaches a
    /// consumer, and [`PoolStats`] gains a
    /// [`composed`](PoolStats::composed) snapshot reporting the
    /// stage's claimed (leftover-hash) vs measured min-entropy.
    pub fn with_composed_extract(mut self, composed: ComposedExtract) -> Self {
        self.composed = Some(composed);
        self
    }

    /// Enables the cross-shard coherence detector, builder-style. A
    /// common-mode supply tone cancels out of every per-shard
    /// differential probe; the detector compares the monitors'
    /// period-probe residual spectra *across* shards and journals
    /// [`IncidentKind::CommonModeCoherence`] when the same line is
    /// elevated on a quorum. Requires
    /// [`with_monitor`](PoolConfig::with_monitor).
    pub fn with_coherence(mut self, coherence: CoherenceConfig) -> Self {
        self.coherence = Some(coherence);
        self
    }
}

/// Why the pool cannot serve bytes.
#[derive(Debug)]
pub enum PoolError {
    /// The configuration requested zero shards.
    NoShards,
    /// The configuration is inconsistent (e.g. a fault scripted for a
    /// shard index the pool does not have).
    InvalidConfig(String),
    /// A shard's entropy source could not be built.
    Build {
        /// Index of the failing shard.
        shard: usize,
        /// The underlying construction error.
        error: SourceError,
    },
    /// `try_fill_bytes` hit its deadline; `filled` healthy bytes were
    /// written to the front of the buffer before it expired.
    Timeout {
        /// Bytes delivered before the deadline.
        filled: usize,
    },
    /// Every shard is retired and no respawn budget remains; `filled`
    /// healthy bytes were written before the pool ran dry. The
    /// delivered prefix is health-clean — total failure surfaces as
    /// this error, never as biased bytes.
    SourcesExhausted {
        /// Bytes delivered before exhaustion.
        filled: usize,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::NoShards => write!(f, "pool configured with zero shards"),
            PoolError::InvalidConfig(why) => write!(f, "invalid pool configuration: {why}"),
            PoolError::Build { shard, error } => {
                write!(f, "shard {shard} failed to build: {error}")
            }
            PoolError::Timeout { filled } => {
                write!(f, "timed out after {filled} bytes")
            }
            PoolError::SourcesExhausted { filled } => {
                write!(
                    f,
                    "all entropy sources retired after {filled} bytes were delivered"
                )
            }
        }
    }
}

impl Error for PoolError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PoolError::Build { error, .. } => Some(error),
            _ => None,
        }
    }
}

struct Threaded {
    consumers: Vec<ring::Consumer>,
    stop: Arc<AtomicBool>,
    /// One slot per shard; `None` for a shard whose source failed to
    /// build, and once the supervisor has joined a retired shard's
    /// worker.
    handles: Vec<Option<JoinHandle<()>>>,
}

struct Inline {
    /// One slot per shard; `None` marks a shard whose source failed to
    /// build (slot kept so indices stay aligned with the pool's
    /// `shared` vector).
    shards: Vec<Option<Shard>>,
    queues: Vec<VecDeque<u8>>,
}

enum Backend {
    Threaded(Threaded),
    Inline(Inline),
}

/// How a pool builds each shard's entropy backend:
/// `(spec, base, index, seed, deterministic)`. Always [`build_source`]
/// outside this crate's tests.
pub(crate) type SourceBuilder =
    fn(&SourceSpec, &TrngConfig, u32, u64, bool) -> Result<Box<dyn EntropySource>, SourceError>;

/// Builds one shard's entropy backend from its spec. Carry-chain
/// shards take their own disjoint fabric placement
/// ([`TrngConfig::for_shard`] at `index`); the other backends ignore
/// the base config. `deterministic` pools get the seeded OS stand-in
/// so replay stays a pure function of the configuration.
pub(crate) fn build_source(
    spec: &SourceSpec,
    base: &TrngConfig,
    index: u32,
    seed: u64,
    deterministic: bool,
) -> Result<Box<dyn EntropySource>, SourceError> {
    Ok(match spec {
        SourceSpec::CarryChain => Box::new(CarryChainSource::new(base.for_shard(index)?, seed)?),
        SourceSpec::DualOscillator(config) => {
            Box::new(DualOscillatorSource::new((**config).clone(), seed)?)
        }
        SourceSpec::TraceReplay(trace) => Box::new(TraceReplaySource::new(Arc::clone(trace))?),
        SourceSpec::OsEntropy if deterministic => Box::new(OsEntropySource::seeded(seed)),
        SourceSpec::OsEntropy => Box::new(OsEntropySource::from_os(seed)),
    })
}

/// How the pool starts a shard at any id, initial or replacement: the
/// [`PoolConfig`] fields it still needs after construction, the source
/// builder, and the source spec per id.
pub(crate) struct ShardRecipe {
    base: TrngConfig,
    seed: u64,
    pub(crate) conditioning: Conditioning,
    block_bytes: usize,
    pub(crate) max_readmissions: u32,
    deterministic: bool,
    /// The whole fault schedule; each shard keeps the faults aimed at
    /// its id.
    pub(crate) faults: Vec<FaultInjection>,
    pub(crate) monitor: Option<MonitorConfig>,
    build: SourceBuilder,
    /// Source spec per shard id, replacements included: a respawn
    /// inherits the spec of the shard it supersedes, so a dead
    /// dual-oscillator shard is replaced by a dual-oscillator shard.
    specs: Vec<SourceSpec>,
}

impl ShardRecipe {
    pub(crate) fn new(config: &PoolConfig, build: SourceBuilder) -> Self {
        ShardRecipe {
            base: config.base.clone(),
            seed: config.seed,
            conditioning: config.conditioning,
            block_bytes: config.block_bytes,
            max_readmissions: config.max_readmissions,
            deterministic: config.deterministic,
            faults: config.faults.clone(),
            monitor: config.monitor.clone(),
            build,
            specs: if config.sources.is_empty() {
                vec![SourceSpec::CarryChain; config.shards]
            } else {
                config.sources.clone()
            },
        }
    }

    /// Shard `id`'s seed, drawn from the pool seed.
    pub(crate) fn shard_seed(&self, id: usize) -> u64 {
        mix_seed(self.seed, id as u64)
    }
}

/// Respawn bookkeeping of the elastic-management supervisor: the
/// policy, its spent budget and the backoff timer. Supervision
/// piggybacks on consumer calls (`fill_bytes`, `try_fill_bytes`,
/// `wait_online`) — there is no supervisor thread.
struct Supervisor {
    policy: RespawnPolicy,
    /// Respawns already spent.
    used: u32,
    last_attempt: Option<Instant>,
}

/// A sharded, health-gated entropy service.
///
/// # Examples
///
/// ```
/// use trng_core::trng::TrngConfig;
/// use trng_pool::{EntropyPool, PoolConfig};
///
/// // Deterministic replay backend: reproducible and thread-free.
/// let config = PoolConfig::new(TrngConfig::paper_k1(), 2).deterministic(true);
/// let mut pool = EntropyPool::new(config)?;
/// let mut key = [0u8; 32];
/// pool.fill_bytes(&mut key)?;
/// let stats = pool.stats();
/// assert_eq!(stats.bytes_delivered, 32);
/// assert_eq!(stats.total_alarms(), 0);
/// # Ok::<(), trng_pool::PoolError>(())
/// ```
pub struct EntropyPool {
    shared: Vec<Arc<ShardShared>>,
    backend: Backend,
    rr: usize,
    bytes_delivered: u64,
    fill_calls: u64,
    max_refill_wait: Duration,
    journal: Arc<Journal>,
    recipe: ShardRecipe,
    supervisor: Option<Supervisor>,
    workers_joined: u64,
    /// Pool-level composed extract stage, when configured.
    composed: Option<ComposedStage>,
    /// Cross-shard coherence detector, when configured.
    coherence: Option<CoherenceDetector>,
}

impl fmt::Debug for EntropyPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EntropyPool")
            .field("shards", &self.shared.len())
            .field(
                "backend",
                &match self.backend {
                    Backend::Threaded(_) => "threaded",
                    Backend::Inline(_) => "deterministic",
                },
            )
            .field("bytes_delivered", &self.bytes_delivered)
            .finish()
    }
}

impl EntropyPool {
    /// Builds the pool and (in the threaded backend) spawns one worker
    /// per shard. Shards start in [`ShardState::Starting`] and only
    /// contribute after passing the start-up self-test; use
    /// [`wait_online`](EntropyPool::wait_online) to block until
    /// admission has settled.
    ///
    /// # Errors
    ///
    /// [`PoolError::NoShards`], [`PoolError::InvalidConfig`], or the
    /// first shard whose TRNG fails to build.
    pub fn new(config: PoolConfig) -> Result<Self, PoolError> {
        EntropyPool::with_source_builder(config, build_source)
    }

    /// [`EntropyPool::new`] with every shard's backend, replacements
    /// included, built by `build`.
    pub(crate) fn with_source_builder(
        config: PoolConfig,
        build: SourceBuilder,
    ) -> Result<Self, PoolError> {
        if config.shards == 0 {
            return Err(PoolError::NoShards);
        }
        let budget = config
            .respawn
            .as_ref()
            .map_or(0, |p| p.max_respawns as usize);
        for f in &config.faults {
            if f.shard >= config.shards + budget {
                return Err(PoolError::InvalidConfig(format!(
                    "fault targets shard {} but the pool has {} (+{} respawn budget)",
                    f.shard, config.shards, budget
                )));
            }
        }
        if let Some(policy) = &config.respawn {
            if policy.online_floor == 0 || policy.online_floor > config.shards {
                return Err(PoolError::InvalidConfig(format!(
                    "respawn floor {} outside 1..={} shards",
                    policy.online_floor, config.shards
                )));
            }
        }
        if !config.sources.is_empty() && config.sources.len() != config.shards {
            return Err(PoolError::InvalidConfig(format!(
                "sources list has {} entries for {} shards",
                config.sources.len(),
                config.shards
            )));
        }
        // Every backend validates its own native rate to at least 1, so
        // the base design's `np` stands in for it here.
        let mode = config.conditioning;
        if mode.raw_bits_per_output(config.base.design.np) == 0 {
            return Err(PoolError::InvalidConfig(format!(
                "{mode} conditioning needs a raw-to-output ratio of at least 1"
            )));
        }
        // A block's raw demand is `block_bytes · 8 · ratio`, exact only
        // when the 64-bit Toeplitz emissions divide the block.
        if matches!(mode, Conditioning::Toeplitz { .. }) && !config.block_bytes.is_multiple_of(8) {
            return Err(PoolError::InvalidConfig(format!(
                "Toeplitz conditioning needs block_bytes divisible by 8, got {}",
                config.block_bytes
            )));
        }
        if let Some(composed) = &config.composed {
            if composed.ratio == Some(0) {
                return Err(PoolError::InvalidConfig(
                    "composed extract ratio must be at least 1".to_string(),
                ));
            }
        }
        if let Some(coherence) = &config.coherence {
            if config.monitor.is_none() {
                return Err(PoolError::InvalidConfig(
                    "coherence detection requires the jitter monitor \
                     (PoolConfig::with_monitor)"
                        .to_string(),
                ));
            }
            if coherence.quorum < 2 || coherence.quorum > config.shards {
                return Err(PoolError::InvalidConfig(format!(
                    "coherence quorum {} outside 2..={} shards",
                    coherence.quorum, config.shards
                )));
            }
            if !(8..=64).contains(&coherence.window) {
                return Err(PoolError::InvalidConfig(format!(
                    "coherence window {} outside 8..=64 observations",
                    coherence.window
                )));
            }
            for &bin in &coherence.bins {
                if bin == 0 || bin as usize >= coherence.window / 2 {
                    return Err(PoolError::InvalidConfig(format!(
                        "coherence bin {} outside 1..{} for window {}",
                        bin,
                        coherence.window / 2,
                        coherence.window
                    )));
                }
            }
            if !coherence.line_snr.is_finite() || coherence.line_snr <= 0.0 {
                return Err(PoolError::InvalidConfig(format!(
                    "coherence line_snr {} must be positive",
                    coherence.line_snr
                )));
            }
        }
        let journal = Arc::new(Journal::new(DEFAULT_JOURNAL_CAPACITY));
        // Every initial spawn is journaled before the first worker
        // starts, so no worker's event can come before one.
        for id in 0..config.shards {
            journal.record(id, IncidentKind::Spawn, 0, 0, 0);
        }
        let backend = if config.deterministic {
            Backend::Inline(Inline {
                shards: Vec::with_capacity(config.shards),
                queues: Vec::with_capacity(config.shards),
            })
        } else {
            Backend::Threaded(Threaded {
                consumers: Vec::with_capacity(config.shards),
                stop: Arc::new(AtomicBool::new(false)),
                handles: Vec::with_capacity(config.shards),
            })
        };
        let mut pool = EntropyPool {
            shared: Vec::with_capacity(config.shards),
            backend,
            rr: 0,
            bytes_delivered: 0,
            fill_calls: 0,
            max_refill_wait: Duration::ZERO,
            journal,
            recipe: ShardRecipe::new(&config, build),
            supervisor: config.respawn.map(|policy| Supervisor {
                policy,
                used: 0,
                last_attempt: None,
            }),
            workers_joined: 0,
            composed: None,
            coherence: config.coherence.map(CoherenceDetector::new),
        };
        for shard in 0..config.shards {
            pool.spawn_shard(Duration::ZERO)
                .map_err(|error| PoolError::Build { shard, error })?;
        }
        // The composed claim is anchored to the weakest input: every
        // interleaved bit carries at least the minimum per-source
        // claim, which the leftover-hash sizing then consumes.
        pool.composed = config.composed.map(|c| {
            let input_claim = pool
                .shared
                .iter()
                .enumerate()
                .map(|(i, s)| s.snapshot(i).claimed_min_entropy)
                .fold(f64::INFINITY, f64::min);
            ComposedStage::new(c, config.seed, input_claim)
        });
        Ok(pool)
    }

    /// Starts the next shard id from the recipe: builds its source,
    /// wraps it in a [`Shard`] and attaches it to the backend — a ring
    /// plus a worker thread that first waits out `settle` (threaded),
    /// or a slot plus a queue (inline). A source that fails to build
    /// gets the empty slot instead, so every per-shard vector stays
    /// index-aligned with `shared`, and its error is handed back: the
    /// caller decides whether it fails construction or retires the id.
    fn spawn_shard(&mut self, settle: Duration) -> Result<(), SourceError> {
        let id = self.shared.len();
        let recipe = &self.recipe;
        let shared = Arc::new(ShardShared::default());
        self.shared.push(Arc::clone(&shared));
        let built = (recipe.build)(
            &recipe.specs[id],
            &recipe.base,
            id as u32,
            recipe.shard_seed(id),
            recipe.deterministic,
        )
        .map(|source| Shard::new(id, source, recipe, shared, Arc::clone(&self.journal)));
        let (shard, result) = match built {
            Ok(shard) => (Some(shard), Ok(())),
            Err(error) => (None, Err(error)),
        };
        match &mut self.backend {
            Backend::Threaded(threaded) => {
                // Without a worker the producer drops at once, and a
                // producer-less ring reads permanently empty.
                let (producer, consumer) = ring::ring(RING_CAPACITY);
                threaded.consumers.push(consumer);
                let stop = Arc::clone(&threaded.stop);
                let block_bytes = recipe.block_bytes;
                threaded.handles.push(shard.map(|shard| {
                    thread::Builder::new()
                        .name(format!("trng-pool-shard-{id}"))
                        .spawn(move || {
                            // Let a fresh placement settle before its
                            // admission gate runs.
                            if !settle.is_zero() {
                                thread::sleep(settle);
                            }
                            worker(shard, producer, stop, block_bytes)
                        })
                        .expect("spawn pool worker")
                }));
            }
            Backend::Inline(inline) => {
                inline.shards.push(shard);
                inline.queues.push(VecDeque::new());
            }
        }
        result
    }

    /// Number of shards (in any state, replacements included).
    pub fn shard_count(&self) -> usize {
        self.shared.len()
    }

    /// `true` while a respawn is still possible: a policy is set and
    /// its budget is unspent.
    fn can_heal(&self) -> bool {
        self.supervisor
            .as_ref()
            .is_some_and(|s| s.used < s.policy.max_respawns)
    }

    /// One supervision pass, piggybacked on every consumer call: joins
    /// the worker threads of retired shards, then spawns replacement
    /// shards while the serviceable (non-retired) count is below the
    /// policy floor and budget/backoff allow. Returns `true` when at
    /// least one replacement was spawned.
    fn supervise(&mut self) -> bool {
        self.coherence_pass();
        if let Backend::Threaded(threaded) = &mut self.backend {
            // A retired shard's worker body has returned (or is about
            // to); join it so the thread is fully reclaimed.
            for (i, shared) in self.shared.iter().enumerate() {
                if shared.state() == ShardState::Retired {
                    if let Some(handle) = threaded.handles[i].take() {
                        let _ = handle.join();
                        self.workers_joined += 1;
                    }
                }
            }
        }
        let mut spawned = false;
        loop {
            let Some(sup) = &mut self.supervisor else {
                return spawned;
            };
            let serviceable = self
                .shared
                .iter()
                .filter(|s| s.state() != ShardState::Retired)
                .count();
            if serviceable >= sup.policy.online_floor || sup.used >= sup.policy.max_respawns {
                return spawned;
            }
            // Backoff bounds respawn storms in the threaded backend.
            // The deterministic replay backend ignores it: replay must
            // stay a pure function of the configuration, never of
            // wall-clock time. The timer arms when the deficit is
            // first noticed, so even the first attempt waits out the
            // configured spacing — the `degraded` window is observable
            // before the pool flips to `recovering`.
            if matches!(self.backend, Backend::Threaded(_)) {
                match sup.last_attempt {
                    Some(at) if at.elapsed() < sup.policy.backoff => return spawned,
                    Some(_) => {}
                    None => {
                        sup.last_attempt = Some(Instant::now());
                        if !sup.policy.backoff.is_zero() {
                            return spawned;
                        }
                    }
                }
            }
            sup.used += 1;
            sup.last_attempt = Some(Instant::now());
            let settle = sup.policy.settle;
            let id = self.shared.len();
            // The lowest-index retiree not yet superseded is the shard
            // this replacement stands in for. (One always exists when
            // the serviceable count is below the floor.)
            let replaced = self
                .shared
                .iter()
                .position(|s| s.state() == ShardState::Retired && !s.superseded())
                .unwrap_or(id);
            let replaced_snap = self.shared.get(replaced).map(|s| s.snapshot(replaced));
            // The replacement runs the same *kind* of source as its
            // retiree (carry-chain replacements still get a fresh
            // fabric placement at the new index); record the new
            // shard's spec so replacements-of-replacements inherit too.
            let spec = self
                .recipe
                .specs
                .get(replaced)
                .cloned()
                .unwrap_or(SourceSpec::CarryChain);
            self.recipe.specs.push(spec);
            // The respawn incident is stamped against the *new* shard
            // id, carrying the replaced id in `detail` and the
            // retiree's final simulated time / healthy-byte offset.
            self.journal.record(
                id,
                IncidentKind::Respawn,
                replaced_snap
                    .as_ref()
                    .map_or(0, |s| s.sim_elapsed.as_nanos() as u64),
                replaced_snap.as_ref().map_or(0, |s| s.bytes_produced),
                replaced as u64,
            );
            if let Some(s) = self.shared.get(replaced) {
                s.set_superseded();
            }
            let started = self.spawn_shard(settle);
            self.shared[id].mark_respawned(replaced);
            if started.is_ok() {
                spawned = true;
            } else {
                // The fresh placement could not even be built (the
                // fabric ran out of disjoint columns): the attempt
                // still costs budget and stays auditable as an
                // immediate retirement of the new id.
                self.shared[id].set_state(ShardState::Retired);
                self.journal.record(id, IncidentKind::Retire, 0, 0, 0);
            }
        }
    }

    /// Blocks until no shard is still [`ShardState::Starting`], or the
    /// deadline passes. Returns the number of online shards.
    ///
    /// # Errors
    ///
    /// [`PoolError::SourcesExhausted`] when every shard retired during
    /// admission, [`PoolError::Timeout`] on deadline.
    pub fn wait_online(&mut self, timeout: Duration) -> Result<usize, PoolError> {
        let deadline = Instant::now() + timeout;
        loop {
            self.supervise();
            // The inline backend drives admission synchronously.
            if let Backend::Inline(inline) = &mut self.backend {
                let mut block = Vec::new();
                for shard in inline.shards.iter_mut().flatten() {
                    while shard.state() == ShardState::Starting {
                        shard.step(&mut block, self.recipe.block_bytes);
                    }
                }
            }
            let states: Vec<ShardState> = self.shared.iter().map(|s| s.state()).collect();
            let all_retired = states.iter().all(|&s| s == ShardState::Retired);
            if all_retired && !self.can_heal() {
                return Err(PoolError::SourcesExhausted { filled: 0 });
            }
            if !all_retired && states.iter().all(|&s| s != ShardState::Starting) {
                return Ok(states.iter().filter(|&&s| s == ShardState::Online).count());
            }
            if Instant::now() >= deadline {
                return Err(PoolError::Timeout { filled: 0 });
            }
            std::thread::sleep(NAP);
        }
    }

    /// Fills `dest` with health-gated pool bytes, blocking as long as
    /// it takes (or until every source is gone).
    ///
    /// # Errors
    ///
    /// [`PoolError::SourcesExhausted`] once every shard is retired.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), PoolError> {
        self.fill(dest, None)
    }

    /// Fills `dest`, giving up at `timeout`. On error, the reported
    /// number of bytes at the front of `dest` are valid healthy bytes.
    ///
    /// The deterministic replay backend never waits, so the timeout is
    /// only meaningful for the threaded backend.
    ///
    /// # Errors
    ///
    /// [`PoolError::Timeout`] on deadline,
    /// [`PoolError::SourcesExhausted`] once every shard is retired.
    pub fn try_fill_bytes(&mut self, dest: &mut [u8], timeout: Duration) -> Result<(), PoolError> {
        let deadline = Instant::now() + timeout;
        self.fill(dest, Some(deadline))
    }

    fn fill(&mut self, dest: &mut [u8], deadline: Option<Instant>) -> Result<(), PoolError> {
        self.fill_calls += 1;
        let result = if self.composed.is_some() {
            self.fill_composed(dest, deadline)
        } else {
            self.fill_interleaved(dest, deadline)
        };
        match &result {
            Ok(()) => self.bytes_delivered += dest.len() as u64,
            Err(PoolError::Timeout { filled } | PoolError::SourcesExhausted { filled }) => {
                self.bytes_delivered += *filled as u64;
            }
            Err(_) => {}
        }
        result
    }

    /// The per-shard interleaved delivery stream (round-robin drain of
    /// the shards' conditioned, health-gated bytes) — the pool's
    /// output when no composed stage is configured, and the composed
    /// stage's input when one is.
    fn fill_interleaved(
        &mut self,
        dest: &mut [u8],
        deadline: Option<Instant>,
    ) -> Result<(), PoolError> {
        if matches!(self.backend, Backend::Inline(_)) {
            self.fill_inline(dest)
        } else {
            self.fill_threaded(dest, deadline)
        }
    }

    /// Composed fill: fetch interleaved bytes in bounded chunks, push
    /// them through the cross-shard Toeplitz extractor, and serve
    /// `dest` from the extracted output. On timeout or exhaustion the
    /// healthy interleaved prefix is still absorbed, whatever composed
    /// output it completed is delivered, and the error's `filled`
    /// counts *composed* bytes — the same partial-prefix contract the
    /// plain fill keeps.
    fn fill_composed(
        &mut self,
        dest: &mut [u8],
        deadline: Option<Instant>,
    ) -> Result<(), PoolError> {
        let mut stage = self.composed.take().expect("composed fill without stage");
        let result = self.fill_composed_inner(&mut stage, dest, deadline);
        self.composed = Some(stage);
        result
    }

    fn fill_composed_inner(
        &mut self,
        stage: &mut ComposedStage,
        dest: &mut [u8],
        deadline: Option<Instant>,
    ) -> Result<(), PoolError> {
        let mut filled = stage.drain(dest, 0);
        while filled < dest.len() {
            let need = stage
                .input_bytes_for(dest.len() - filled)
                .min(COMPOSED_CHUNK);
            let mut scratch = std::mem::take(&mut stage.scratch);
            scratch.clear();
            scratch.resize(need, 0);
            let inner = self.fill_interleaved(&mut scratch, deadline);
            match inner {
                Ok(()) => stage.absorb(&scratch),
                Err(PoolError::Timeout { filled: got }) => {
                    stage.absorb(&scratch[..got]);
                    stage.scratch = scratch;
                    let filled = stage.drain(dest, filled);
                    return Err(PoolError::Timeout { filled });
                }
                Err(PoolError::SourcesExhausted { filled: got }) => {
                    stage.absorb(&scratch[..got]);
                    stage.scratch = scratch;
                    let filled = stage.drain(dest, filled);
                    return Err(PoolError::SourcesExhausted { filled });
                }
                Err(e) => {
                    stage.scratch = scratch;
                    return Err(e);
                }
            }
            stage.scratch = scratch;
            filled = stage.drain(dest, filled);
        }
        Ok(())
    }

    fn fill_threaded(
        &mut self,
        dest: &mut [u8],
        deadline: Option<Instant>,
    ) -> Result<(), PoolError> {
        let mut filled = 0usize;
        let mut waited = Duration::ZERO;
        // Start of the current run of sweeps that found every ring
        // empty: the wall time until a sweep finds bytes (or the fill
        // gives up) is refill wait.
        let mut empty_since: Option<Instant> = None;
        while filled < dest.len() {
            let sweep = Instant::now();
            self.supervise();
            // Read states *before* the drain sweep: workers that were
            // already retired then cannot add bytes afterwards, so an
            // empty sweep plus all-retired is conclusive. (A pending
            // respawn — budget left but backoff not yet elapsed — is
            // not conclusive: keep waiting.)
            let all_retired = self.shared.iter().all(|s| s.state() == ShardState::Retired);
            let can_heal = self.can_heal();
            let rr = self.rr;
            let Backend::Threaded(threaded) = &mut self.backend else {
                unreachable!("threaded fill dispatched on inline backend");
            };
            let n = threaded.consumers.len();
            let mut got = 0usize;
            for k in 0..n {
                let idx = (rr + k) % n;
                got += threaded.consumers[idx].pop(&mut dest[filled + got..]);
                if filled + got == dest.len() {
                    break;
                }
            }
            self.rr = (rr + 1) % n;
            filled += got;
            if got > 0 {
                if let Some(since) = empty_since.take() {
                    waited += sweep.duration_since(since);
                }
                continue;
            }
            let since = *empty_since.get_or_insert(sweep);
            let give_up = if all_retired && !can_heal {
                Some(PoolError::SourcesExhausted { filled })
            } else {
                deadline
                    .filter(|&d| Instant::now() >= d)
                    .map(|_| PoolError::Timeout { filled })
            };
            if let Some(err) = give_up {
                self.max_refill_wait = self.max_refill_wait.max(waited + since.elapsed());
                return Err(err);
            }
            ring::wait_readable(&threaded.consumers, NAP);
        }
        self.max_refill_wait = self.max_refill_wait.max(waited);
        Ok(())
    }

    fn fill_inline(&mut self, dest: &mut [u8]) -> Result<(), PoolError> {
        let mut filled = 0usize;
        let mut block = Vec::new();
        while filled < dest.len() {
            let spawned = self.supervise();
            let rr = self.rr;
            let block_bytes = self.recipe.block_bytes;
            let Backend::Inline(inline) = &mut self.backend else {
                unreachable!("inline fill dispatched on threaded backend");
            };
            let n = inline.shards.len();
            let mut progressed = spawned;
            for k in 0..n {
                let i = (rr + k) % n;
                if !inline.queues[i].is_empty() {
                    while filled < dest.len() {
                        match inline.queues[i].pop_front() {
                            Some(b) => {
                                dest[filled] = b;
                                filled += 1;
                            }
                            None => break,
                        }
                    }
                    self.rr = (i + 1) % n;
                    progressed = true;
                    break;
                }
                let Some(shard) = inline.shards[i].as_mut() else {
                    continue;
                };
                if shard.step(&mut block, block_bytes) {
                    inline.queues[i].extend(block.drain(..));
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                return Err(PoolError::SourcesExhausted { filled });
            }
        }
        Ok(())
    }

    /// One coherence-detector pass, piggybacked (like respawn
    /// supervision) on consumer calls. A quorum rising edge is
    /// journaled as [`IncidentKind::CommonModeCoherence`] against the
    /// lowest-indexed shard in the quorum, stamped with that shard's
    /// progress; under [`CoherenceResponse::AlarmAll`] every quorum
    /// shard is additionally asked to raise its normal alarm.
    fn coherence_pass(&mut self) {
        let Some(detector) = &mut self.coherence else {
            return;
        };
        let Some(found) = detector.scan(&self.shared) else {
            return;
        };
        let detail = encode_coherence_detail(found.bin, found.mask, found.magnitude_ppm);
        let snap = self.shared[found.shard].snapshot(found.shard);
        self.journal.record(
            found.shard,
            IncidentKind::CommonModeCoherence,
            snap.sim_elapsed.as_nanos() as u64,
            snap.bytes_produced,
            detail,
        );
        if detector.response() == CoherenceResponse::AlarmAll {
            for (i, shared) in self.shared.iter().enumerate() {
                if i < 64 && found.mask >> i & 1 == 1 {
                    shared.request_alarm();
                }
            }
        }
    }

    /// Snapshots per-shard lifecycle state and pool-level counters.
    pub fn stats(&self) -> PoolStats {
        if let Backend::Threaded(threaded) = &self.backend {
            for (shared, consumer) in self.shared.iter().zip(&threaded.consumers) {
                shared.set_ring_high_water(consumer.high_water());
            }
        }
        let (journal, _dropped) = self.journal.snapshot();
        PoolStats {
            shards: self
                .shared
                .iter()
                .enumerate()
                .map(|(i, s)| s.snapshot(i))
                .collect(),
            bytes_delivered: self.bytes_delivered,
            fill_calls: self.fill_calls,
            max_refill_wait: self.max_refill_wait,
            respawns: self.supervisor.as_ref().map_or(0, |s| s.used),
            respawns_available: self
                .supervisor
                .as_ref()
                .map_or(0, |s| s.policy.max_respawns.saturating_sub(s.used)),
            workers_joined: self.workers_joined,
            journal_recorded: self.journal.recorded(),
            journal,
            composed: self.composed.as_ref().map(ComposedStage::stats),
            coherence: self.coherence.as_ref().map(CoherenceDetector::stats),
        }
    }
}

impl Drop for EntropyPool {
    fn drop(&mut self) {
        if let Backend::Threaded(threaded) = &mut self.backend {
            threaded.stop.store(true, Ordering::Release);
            for handle in threaded.handles.drain(..).flatten() {
                // A worker parked on a full ring sees `stop` at once.
                handle.thread().unpark();
                let _ = handle.join();
            }
        }
    }
}

/// Worker-thread body: drive one shard's lifecycle, pushing healthy
/// blocks into its ring with backpressure. One unwind guard covers the
/// thread's whole life: a panic anywhere in it retires the shard, so
/// consumers stop waiting on its ring and the supervisor joins the
/// thread and respawns the shard like any other retiree.
fn worker(mut shard: Shard, producer: ring::Producer, stop: Arc<AtomicBool>, block_bytes: usize) {
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        drive_shard(&mut shard, &producer, &stop, block_bytes);
    }));
    if run.is_err() {
        shard.retire_after_panic();
    }
}

fn drive_shard(
    shard: &mut Shard,
    producer: &ring::Producer,
    stop: &AtomicBool,
    block_bytes: usize,
) {
    let mut pending: Vec<u8> = Vec::new();
    let mut off = 0usize;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        if off < pending.len() {
            off += producer.push(&pending[off..]);
            if off < pending.len() {
                // Ring full: the consumer is behind. Park until it
                // pops.
                producer.wait_writable(NAP);
                continue;
            }
        }
        if !shard.step(&mut pending, block_bytes) {
            return;
        }
        off = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::RETIRE_WORKER_PANIC;
    use crate::shard::ShardFault;
    use crate::testing::{assert_stream_health_clean, dead_fault, PanickingSource};
    use trng_core::trng::TrngConfig;
    use trng_fpga_sim::noise::NoiseBackend;

    fn small_pool(shards: usize) -> PoolConfig {
        PoolConfig::new(TrngConfig::paper_k1(), shards)
            .deterministic(true)
            .with_block_bytes(64)
            .with_seed(2015)
    }

    #[test]
    fn replay_mode_is_byte_identical() {
        let mut a = EntropyPool::new(small_pool(2)).expect("pool");
        let mut b = EntropyPool::new(small_pool(2)).expect("pool");
        let mut x = [0u8; 1024];
        let mut y = [0u8; 1024];
        a.fill_bytes(&mut x).expect("fill");
        b.fill_bytes(&mut y).expect("fill");
        assert_eq!(x, y);
        assert_eq!(a.stats(), b.stats());
        // A different pool seed diverges.
        let mut c = EntropyPool::new(small_pool(2).with_seed(2016)).expect("pool");
        let mut z = [0u8; 1024];
        c.fill_bytes(&mut z).expect("fill");
        assert_ne!(x, z);
    }

    #[test]
    fn replay_mode_interleaves_all_shards() {
        let mut pool = EntropyPool::new(small_pool(3)).expect("pool");
        let online = pool.wait_online(Duration::from_secs(30)).expect("online");
        assert_eq!(online, 3);
        let mut buf = [0u8; 512];
        pool.fill_bytes(&mut buf).expect("fill");
        let stats = pool.stats();
        assert_eq!(stats.bytes_delivered, 512);
        assert_eq!(stats.fill_calls, 1);
        for s in &stats.shards {
            assert!(s.bytes_produced > 0, "shard {} contributed nothing", s.id);
            assert_eq!(s.state, ShardState::Online);
            assert_eq!(s.alarms, 0);
        }
    }

    #[test]
    fn threaded_pool_serves_and_reports() {
        let config = PoolConfig::new(TrngConfig::paper_k1(), 2)
            .with_block_bytes(64)
            .with_seed(77);
        let mut pool = EntropyPool::new(config).expect("pool");
        let online = pool.wait_online(Duration::from_secs(60)).expect("online");
        assert_eq!(online, 2);
        let mut buf = [0u8; 2048];
        pool.fill_bytes(&mut buf).expect("fill");
        // 2048 zero bytes would mean the pool is broken (p ~ 2^-16384).
        assert!(buf.iter().any(|&b| b != 0));
        let stats = pool.stats();
        assert_eq!(stats.bytes_delivered, 2048);
        assert_eq!(stats.total_alarms(), 0);
        assert!(stats.shards.iter().any(|s| s.ring_high_water > 0));
        assert!(stats.sim_throughput_bps() > 0.0);
    }

    #[test]
    fn threaded_timeout_reports_partial_fill() {
        let config = PoolConfig::new(TrngConfig::paper_k1(), 1).with_seed(3);
        let mut pool = EntropyPool::new(config).expect("pool");
        pool.wait_online(Duration::from_secs(60)).expect("online");
        // The simulator produces a few KiB/s of np=7 bytes; 4 MiB in
        // 50 ms is impossible, so the deadline must fire.
        let mut huge = vec![0u8; 4 << 20];
        match pool.try_fill_bytes(&mut huge, Duration::from_millis(50)) {
            Err(PoolError::Timeout { filled }) => {
                assert!(filled < huge.len());
                assert_eq!(pool.stats().bytes_delivered, filled as u64);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn refill_wait_is_the_wall_time_a_fill_spent_on_empty_rings() {
        // The only shard's first block trips a persistent fault with no
        // re-admission left, and the respawn that could heal the pool
        // is held back by a long backoff: every ring stays empty, yet
        // the pool is not exhausted, so a bounded fill waits out its
        // whole deadline on empty rings.
        let config = PoolConfig::new(TrngConfig::paper_k1(), 1)
            .with_seed(5)
            .with_max_readmissions(0)
            .with_fault(dead_fault(0, 0, false))
            .with_respawn(RespawnPolicy::new(1, 1).with_backoff(Duration::from_secs(600)));
        let mut pool = EntropyPool::new(config).expect("pool");
        let timeout = Duration::from_millis(200);
        let mut buf = [0u8; 64];
        let start = Instant::now();
        let result = pool.try_fill_bytes(&mut buf, timeout);
        let wall = start.elapsed();
        assert!(
            matches!(result, Err(PoolError::Timeout { filled: 0 })),
            "{result:?}"
        );
        // The fill sat on empty rings from its first sweep, moments
        // after the call, until past the deadline.
        let waited = pool.stats().max_refill_wait;
        assert!(
            waited + Duration::from_millis(1) >= timeout,
            "refill wait {waited:?} under-reports a {wall:?} fill on empty rings"
        );
        assert!(
            waited <= wall,
            "refill wait {waited:?} exceeds the {wall:?} fill"
        );
    }

    #[test]
    fn timeout_partial_fill_touches_only_the_reported_prefix() {
        // Raw conditioning so the shard produces bytes fast enough for
        // several partial fills within the test budget.
        let config = PoolConfig::new(TrngConfig::paper_k1(), 1)
            .with_conditioning(Conditioning::Raw)
            .with_seed(11);
        let mut pool = EntropyPool::new(config).expect("pool");
        pool.wait_online(Duration::from_secs(60)).expect("online");
        // Repeated deadline-bounded fills into a sentinel-patterned
        // buffer: each call may only write the prefix it reports, and
        // `bytes_delivered` must account for exactly the sum.
        let mut total = 0u64;
        let mut timeouts = 0u32;
        for _ in 0..4 {
            let mut buf = vec![0xAAu8; 1 << 20];
            match pool.try_fill_bytes(&mut buf, Duration::from_millis(80)) {
                Ok(()) => total += buf.len() as u64,
                Err(PoolError::Timeout { filled }) => {
                    timeouts += 1;
                    assert!(filled < buf.len());
                    // Everything past the reported prefix is untouched.
                    assert!(
                        buf[filled..].iter().all(|&b| b == 0xAA),
                        "bytes written past the reported fill of {filled}"
                    );
                    total += filled as u64;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        // The simulator cannot produce 1 MiB in 80 ms; every call must
        // have timed out, and the accounting must balance.
        assert_eq!(timeouts, 4);
        assert_eq!(pool.stats().bytes_delivered, total);
        assert!(total > 0, "no bytes at all in 4 x 80 ms of raw serving");
    }

    #[test]
    fn exhaustion_is_a_typed_error_not_biased_bytes() {
        // Persistent: re-admission fails, the shard retires.
        let fault = dead_fault(0, 256, false);
        let config = small_pool(1).with_fault(fault).with_max_readmissions(1);
        let mut pool = EntropyPool::new(config).expect("pool");
        let mut sink = vec![0u8; 1 << 20];
        let err = pool.fill_bytes(&mut sink).expect_err("must run dry");
        match err {
            PoolError::SourcesExhausted { filled } => {
                assert!(filled >= 256, "clean prefix {filled}");
                assert!(filled < sink.len());
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        let stats = pool.stats();
        assert_eq!(stats.shards[0].state, ShardState::Retired);
        assert_eq!(stats.shards[0].alarms, 1);
        assert_eq!(stats.shards[0].readmissions, 0);
    }

    #[test]
    fn zero_shards_is_rejected() {
        match EntropyPool::new(PoolConfig::new(TrngConfig::paper_k1(), 0)) {
            Err(PoolError::NoShards) => {}
            other => panic!("expected NoShards, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn out_of_range_fault_is_rejected() {
        let fault = dead_fault(5, 0, true);
        match EntropyPool::new(small_pool(2).with_fault(fault)) {
            Err(PoolError::InvalidConfig(why)) => assert!(why.contains("shard 5")),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn build_errors_carry_the_shard_index() {
        let mut base = TrngConfig::paper_k1();
        base.start_column = 5; // odd column: no carry chain anywhere
        match EntropyPool::new(PoolConfig::new(base, 2)) {
            Err(PoolError::Build { shard, .. }) => assert_eq!(shard, 0),
            other => panic!("expected Build, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(PoolError::NoShards.to_string().contains("zero shards"));
        assert!(PoolError::Timeout { filled: 3 }.to_string().contains('3'));
        assert!(PoolError::SourcesExhausted { filled: 9 }
            .to_string()
            .contains("retired"));
    }

    #[test]
    fn respawn_heals_a_persistent_shard_death() {
        // Shard 0 dies persistently; with one respawn in the budget the
        // pool replaces it on a fresh placement and serves on.
        let fault = dead_fault(0, 128, false);
        let config = small_pool(2)
            .with_fault(fault)
            .with_max_readmissions(1)
            .with_respawn(RespawnPolicy::new(2, 1));
        let mut pool = EntropyPool::new(config).expect("pool");
        let mut sink = vec![0u8; 8192];
        pool.fill_bytes(&mut sink).expect("respawn must heal");
        let stats = pool.stats();
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.respawns_available, 0);
        assert_eq!(stats.shards.len(), 3);
        assert_eq!(stats.shards[0].state, ShardState::Retired);
        assert!(stats.shards[0].superseded);
        assert_eq!(
            stats.shards[2].origin,
            crate::stats::ShardOrigin::Respawn { replaces: 0 }
        );
        assert_eq!(stats.shards[2].state, ShardState::Online);
        assert!(
            stats.shards[2].startup_runs >= 1,
            "replacement must pass the startup gate"
        );
        assert_eq!(stats.health(), crate::stats::PoolHealth::Healthy);
        // The journal tells the story: spawns, the alarm cascade, the
        // retirement and the respawn.
        let kinds: Vec<_> = stats.journal.iter().map(|e| (e.shard, e.kind)).collect();
        assert!(kinds.contains(&(0, IncidentKind::Retire)));
        assert!(kinds.contains(&(2, IncidentKind::Respawn)));
        let respawn = stats
            .journal
            .iter()
            .find(|e| e.kind == IncidentKind::Respawn)
            .expect("respawn event");
        assert_eq!(respawn.detail, 0, "replaces shard 0");
    }

    #[test]
    fn a_panicking_worker_retires_and_is_respawned() {
        // Shard 0's source panics once 64 Ki raw bits are drawn, well
        // after admission. The worker must retire the shard rather than
        // leave it `Online` behind an empty ring; the supervisor then
        // joins the thread and respawns, so a fill with no deadline
        // completes. (The deadline here only turns a regression into a
        // failure instead of a hang.)
        const PANIC_AFTER: u64 = 1 << 16;
        let config = PoolConfig::new(TrngConfig::paper_k1(), 1)
            .with_sources(vec![SourceSpec::OsEntropy])
            .with_conditioning(Conditioning::Raw)
            .with_seed(21)
            .with_respawn(RespawnPolicy::new(1, 1));
        let mut pool =
            EntropyPool::with_source_builder(config, |spec, base, index, seed, deterministic| {
                let source = build_source(spec, base, index, seed, deterministic)?;
                Ok(if index == 0 {
                    Box::new(PanickingSource::new(source, PANIC_AFTER))
                } else {
                    source
                })
            })
            .expect("pool");
        let mut sink = vec![0u8; 16 * 1024];
        pool.try_fill_bytes(&mut sink, Duration::from_secs(60))
            .expect("the respawned shard must serve the fill");
        assert_stream_health_clean(&sink);
        let stats = pool.stats();
        assert_eq!(stats.workers_joined, 1);
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.shards[0].state, ShardState::Retired);
        assert!(stats.shards[0].superseded);
        assert!(stats.shards[0].raw_bits <= PANIC_AFTER);
        assert_eq!(stats.shards[1].state, ShardState::Online);
        let story: Vec<_> = stats
            .journal
            .iter()
            .map(|e| (e.shard, e.kind, e.detail))
            .collect();
        assert_eq!(
            story,
            [
                (0, IncidentKind::Spawn, 0),
                (0, IncidentKind::Retire, RETIRE_WORKER_PANIC),
                (1, IncidentKind::Respawn, 0),
            ]
        );
        let retire = stats.journal[1];
        assert_eq!(retire.at_bytes, stats.shards[0].bytes_produced);
        assert_eq!(retire.sim_ns, stats.shards[0].sim_elapsed.as_nanos() as u64);
    }

    #[test]
    fn spent_budget_still_surfaces_typed_exhaustion() {
        // Persistent faults kill the original shard *and* its
        // replacement; once the budget is spent the pool must fail
        // with the typed error, with both attempts in the journal.
        let config = small_pool(1)
            .with_max_readmissions(0)
            .with_fault(dead_fault(0, 0, false))
            .with_fault(dead_fault(1, 0, false)) // the replacement's index
            .with_respawn(RespawnPolicy::new(1, 1));
        let mut pool = EntropyPool::new(config).expect("pool");
        let mut sink = vec![0u8; 1 << 16];
        match pool.fill_bytes(&mut sink) {
            Err(PoolError::SourcesExhausted { .. }) => {}
            other => panic!("expected exhaustion, got {other:?}"),
        }
        let stats = pool.stats();
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.respawns_available, 0);
        assert_eq!(stats.health(), crate::stats::PoolHealth::Exhausted);
        let respawns = stats
            .journal
            .iter()
            .filter(|e| e.kind == IncidentKind::Respawn)
            .count();
        assert_eq!(respawns, 1);
        // Both shard 0 and replacement 1 record a retirement.
        for shard in [0usize, 1] {
            assert!(
                stats
                    .journal
                    .iter()
                    .any(|e| e.shard == shard && e.kind == IncidentKind::Retire),
                "no retire event for shard {shard}"
            );
        }
    }

    #[test]
    fn a_replacement_that_fails_to_build_retires_at_once_on_both_backends() {
        // Shard 0 dies after 128 bytes and shard 1 after 4096; the
        // replacement for whichever dies first cannot be built. The
        // attempt spends the budget and retires the new id on the spot,
        // the survivor keeps serving until its own scripted death, and
        // then the pool runs dry with the typed error. (Replay always
        // loses shard 0 first; the threaded backend's order is up to
        // the scheduler, since shard 1's 4096 bytes fit in its ring.)
        for deterministic in [true, false] {
            let config = PoolConfig::new(TrngConfig::paper_k1(), 2)
                .deterministic(deterministic)
                .with_conditioning(Conditioning::Raw)
                .with_block_bytes(64)
                .with_seed(2015)
                .with_max_readmissions(0)
                .with_fault(dead_fault(0, 128, false))
                .with_fault(dead_fault(1, 4096, false))
                .with_respawn(RespawnPolicy::new(2, 1));
            let mut pool =
                EntropyPool::with_source_builder(config, |spec, base, index, seed, det| {
                    if index >= 2 {
                        return Err(SourceError::Build("no disjoint placement left".into()));
                    }
                    build_source(spec, base, index, seed, det)
                })
                .expect("pool");
            let mut first = vec![0u8; 2048];
            pool.try_fill_bytes(&mut first, Duration::from_secs(60))
                .expect("the healthy bytes outlast the failed respawn");
            let mut rest = vec![0u8; 1 << 20];
            match pool.try_fill_bytes(&mut rest, Duration::from_secs(60)) {
                // Every healthy byte both shards made is delivered.
                Err(PoolError::SourcesExhausted { filled }) => {
                    assert_eq!(filled, 128 + 4096 - first.len(), "{deterministic}");
                }
                other => panic!("expected exhaustion ({deterministic}), got {other:?}"),
            }
            let stats = pool.stats();
            assert_eq!(stats.respawns, 1);
            assert_eq!(stats.respawns_available, 0);
            assert_eq!(stats.shards.len(), 3);
            let replaced = usize::from(!stats.shards[0].superseded);
            if deterministic {
                assert_eq!(replaced, 0);
            }
            assert!(stats.shards[replaced].superseded);
            assert!(!stats.shards[1 - replaced].superseded);
            assert_eq!(stats.shards[2].state, ShardState::Retired);
            assert_eq!(
                stats.shards[2].origin,
                crate::stats::ShardOrigin::Respawn { replaces: replaced }
            );
            assert_eq!(stats.health(), crate::stats::PoolHealth::Exhausted);
            let new_id: Vec<_> = stats
                .journal
                .iter()
                .filter(|e| e.shard == 2)
                .map(|e| (e.kind, e.detail))
                .collect();
            assert_eq!(
                new_id,
                [
                    (IncidentKind::Respawn, replaced as u64),
                    (IncidentKind::Retire, 0)
                ],
                "{deterministic}"
            );
        }
    }

    #[test]
    fn fault_may_target_replacement_indices_only_with_policy() {
        let fault = || dead_fault(2, 0, false);
        assert!(matches!(
            EntropyPool::new(small_pool(2).with_fault(fault())),
            Err(PoolError::InvalidConfig(_))
        ));
        assert!(EntropyPool::new(
            small_pool(2)
                .with_fault(fault())
                .with_respawn(RespawnPolicy::new(2, 1)),
        )
        .is_ok());
    }

    #[test]
    fn respawn_floor_is_validated() {
        for floor in [0usize, 3] {
            match EntropyPool::new(small_pool(2).with_respawn(RespawnPolicy::new(floor, 1))) {
                Err(PoolError::InvalidConfig(why)) => assert!(why.contains("floor")),
                other => panic!("floor {floor} accepted: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn source_mix_must_cover_every_shard() {
        let config = small_pool(2).with_sources(vec![SourceSpec::OsEntropy]);
        match EntropyPool::new(config) {
            Err(PoolError::InvalidConfig(why)) => assert!(why.contains("sources")),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn mixed_sources_serve_and_label_their_shards() {
        let trace =
            Arc::new(RecordedTrace::record(&TrngConfig::paper_k1(), 99, 4096).expect("capture"));
        let config = small_pool(4).with_sources(vec![
            SourceSpec::CarryChain,
            SourceSpec::DualOscillator(Box::new(DualOscConfig::betrusted_default())),
            SourceSpec::TraceReplay(trace),
            SourceSpec::OsEntropy,
        ]);
        let mut pool = EntropyPool::new(config).expect("pool");
        let online = pool.wait_online(Duration::from_secs(60)).expect("online");
        assert_eq!(online, 4, "all four backends must pass admission");
        let mut buf = [0u8; 1024];
        pool.fill_bytes(&mut buf).expect("fill");
        let stats = pool.stats();
        use trng_sources::SourceKind;
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
            assert!(s.bytes_produced > 0, "shard {} contributed nothing", s.id);
            assert!(
                s.claimed_min_entropy > 0.0 && s.claimed_min_entropy <= 1.0,
                "shard {} claim {}",
                s.id,
                s.claimed_min_entropy
            );
        }
        // Seeded OS stand-in + simulated sources: the whole mix replays.
        let trace2 =
            Arc::new(RecordedTrace::record(&TrngConfig::paper_k1(), 99, 4096).expect("capture"));
        let config2 = small_pool(4).with_sources(vec![
            SourceSpec::CarryChain,
            SourceSpec::DualOscillator(Box::new(DualOscConfig::betrusted_default())),
            SourceSpec::TraceReplay(trace2),
            SourceSpec::OsEntropy,
        ]);
        let mut again = EntropyPool::new(config2).expect("pool");
        let mut buf2 = [0u8; 1024];
        again.fill_bytes(&mut buf2).expect("fill");
        assert_eq!(buf, buf2, "mixed-source replay must be byte-identical");
    }

    #[test]
    fn respawn_inherits_the_retirees_source_kind() {
        // Shard 1 (OS-backed) dies to a Stuck fault with no readmission
        // budget; its replacement must be OS-backed too, not the
        // carry-chain default.
        let fault = FaultInjection {
            shard: 1,
            after_bytes: 64,
            fault: ShardFault::Stuck,
            transient: false,
        };
        let config = small_pool(2)
            .with_sources(vec![SourceSpec::CarryChain, SourceSpec::OsEntropy])
            .with_fault(fault)
            .with_max_readmissions(0)
            .with_respawn(RespawnPolicy::new(2, 1));
        let mut pool = EntropyPool::new(config).expect("pool");
        let mut sink = vec![0u8; 8192];
        pool.fill_bytes(&mut sink).expect("respawn must heal");
        let stats = pool.stats();
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.shards.len(), 3);
        assert_eq!(stats.shards[1].state, ShardState::Retired);
        assert_eq!(
            stats.shards[2].source,
            trng_sources::SourceKind::OsEntropy,
            "replacement must run the retiree's backend"
        );
        assert_eq!(stats.shards[2].state, ShardState::Online);
    }

    #[test]
    fn noise_backend_knob_labels_carry_chain_shards() {
        let mut pool = EntropyPool::new(small_pool(2)).expect("pool");
        let mut buf = [0u8; 512];
        pool.fill_bytes(&mut buf).expect("fill");
        let stats = pool.stats();
        for s in &stats.shards {
            assert_eq!(
                s.noise_backend,
                NoiseBackend::Batched,
                "shard {} must run the batched engine",
                s.id
            );
            assert!(s.bytes_produced > 0);
        }
        // A base config that names the scalar oracle is scalar-labelled
        // and produces the pinned replay stream, which the batched
        // engine must diverge from (statistically equivalent, not
        // draw-identical).
        let config = PoolConfig {
            base: TrngConfig::paper_k1().with_noise_backend(NoiseBackend::Scalar),
            ..small_pool(2)
        };
        let mut scalar = EntropyPool::new(config).expect("pool");
        let mut pinned = [0u8; 512];
        scalar.fill_bytes(&mut pinned).expect("fill");
        assert!(scalar
            .stats()
            .shards
            .iter()
            .all(|s| s.noise_backend == NoiseBackend::Scalar));
        assert_ne!(buf, pinned);
    }

    #[test]
    fn batched_is_the_default_engine_at_every_layer() {
        assert_eq!(NoiseBackend::default(), NoiseBackend::Batched);
        assert_eq!(TrngConfig::default().noise_backend, NoiseBackend::Batched);
        assert_eq!(TrngConfig::paper_k1().noise_backend, NoiseBackend::Batched);
        // A plain threaded pool over the paper's design labels every
        // shard with the engine it runs.
        let mut pool = EntropyPool::new(PoolConfig::new(TrngConfig::paper_k1(), 2)).expect("pool");
        pool.wait_online(Duration::from_secs(60)).expect("online");
        let stats = pool.stats();
        assert_eq!(stats.shards.len(), 2);
        assert!(
            stats
                .shards
                .iter()
                .all(|s| s.noise_backend == NoiseBackend::Batched),
            "{stats}"
        );
    }

    #[test]
    fn toeplitz_conditioning_replays_and_diverges_on_seed() {
        let toeplitz =
            |seed| small_pool(2).with_conditioning(Conditioning::Toeplitz { ratio: 5, seed });
        let mut a = EntropyPool::new(toeplitz(1)).expect("pool");
        let mut b = EntropyPool::new(toeplitz(1)).expect("pool");
        let mut x = [0u8; 1024];
        let mut y = [0u8; 1024];
        a.fill_bytes(&mut x).expect("fill");
        b.fill_bytes(&mut y).expect("fill");
        assert_eq!(x, y, "Toeplitz streams must be seed-replayable");
        // A different matrix seed over the same raw stream diverges.
        let mut c = EntropyPool::new(toeplitz(2)).expect("pool");
        let mut z = [0u8; 1024];
        c.fill_bytes(&mut z).expect("fill");
        assert_ne!(x, z);
        let stats = a.stats();
        for s in &stats.shards {
            assert_eq!(s.conditioning, "toeplitz:5");
            assert_eq!(s.alarms, 0);
        }
    }

    #[test]
    fn conditioning_misconfigurations_are_rejected() {
        for mode in [
            Conditioning::Toeplitz { ratio: 0, seed: 1 },
            Conditioning::Xor(0),
        ] {
            match EntropyPool::new(small_pool(1).with_conditioning(mode)) {
                Err(PoolError::InvalidConfig(why)) => assert!(why.contains("ratio")),
                other => panic!("{mode} accepted: {:?}", other.map(|_| ())),
            }
        }
        // 64-bit emission blocks require block_bytes % 8 == 0.
        let ragged = small_pool(1)
            .with_conditioning(Conditioning::Toeplitz { ratio: 5, seed: 1 })
            .with_block_bytes(60);
        match EntropyPool::new(ragged) {
            Err(PoolError::InvalidConfig(why)) => assert!(why.contains("block_bytes")),
            other => panic!("ragged block accepted: {:?}", other.map(|_| ())),
        }
        let composed_zero =
            small_pool(1).with_composed_extract(ComposedExtract::new(32, 9).with_ratio(0));
        match EntropyPool::new(composed_zero) {
            Err(PoolError::InvalidConfig(why)) => assert!(why.contains("ratio")),
            other => panic!("composed ratio 0 accepted: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn composed_extract_replays_and_claims_conservatively() {
        let composed = || {
            small_pool(2)
                .with_conditioning(Conditioning::Raw)
                .with_composed_extract(ComposedExtract::new(32, 7))
        };
        let mut pool = EntropyPool::new(composed()).expect("pool");
        let mut stream = vec![0u8; 8192];
        pool.fill_bytes(&mut stream).expect("fill");
        let stats = pool.stats();
        assert_eq!(stats.bytes_delivered, 8192);
        assert_eq!(stats.total_alarms(), 0);
        let c = stats.composed.as_ref().expect("composed stats");
        // Raw carry-chain shards claim the paper's per-bit min-entropy;
        // the leftover-hash lemma at eps 2^-32 sizes that to ratio 5.
        assert_eq!(c.ratio, 5);
        assert_eq!(c.epsilon_log2, 32);
        assert!(c.input_claim_min_entropy > 0.0 && c.input_claim_min_entropy < 1.0);
        assert!(
            (c.claimed_min_entropy - 0.5).abs() < 0.01,
            "64-bit blocks at eps 2^-32 claim ~0.5/bit, got {}",
            c.claimed_min_entropy
        );
        assert!(c.bytes_extracted >= 8192);
        // 8192 bytes clear the measurement floor; the MCV estimate of
        // the extracted stream must dominate the claim.
        assert!(
            c.claimed_min_entropy <= c.measured_min_entropy,
            "claimed {} > measured {}",
            c.claimed_min_entropy,
            c.measured_min_entropy
        );
        // The composed stream is a pure function of the configuration.
        let mut again = EntropyPool::new(composed()).expect("pool");
        let mut replay = vec![0u8; 8192];
        again.fill_bytes(&mut replay).expect("fill");
        assert_eq!(stream, replay, "composed stream must replay");
        // A different pool-level extractor seed diverges over the same
        // underlying shards.
        let mut other = EntropyPool::new(
            small_pool(2)
                .with_conditioning(Conditioning::Raw)
                .with_composed_extract(ComposedExtract::new(32, 8)),
        )
        .expect("pool");
        let mut diverged = vec![0u8; 8192];
        other.fill_bytes(&mut diverged).expect("fill");
        assert_ne!(stream, diverged);
    }

    #[test]
    fn conditioning_label_republishes_after_fault_rebuild() {
        // A transient stuck fault quarantines shard 0, forces a
        // rebuild and a fresh start-up gate; the readmitted shard must
        // still advertise its conditioning label.
        let fault = FaultInjection {
            shard: 0,
            after_bytes: 256,
            fault: ShardFault::Stuck,
            transient: true,
        };
        let config = small_pool(2)
            .with_conditioning(Conditioning::Toeplitz { ratio: 5, seed: 9 })
            .with_fault(fault);
        let mut pool = EntropyPool::new(config).expect("pool");
        let mut sink = vec![0u8; 8192];
        pool.fill_bytes(&mut sink).expect("fill");
        let stats = pool.stats();
        assert!(
            stats.shards[0].readmissions >= 1,
            "stuck fault must force a rebuild: {stats}"
        );
        for s in &stats.shards {
            assert_eq!(s.conditioning, "toeplitz:5", "shard {} label lost", s.id);
        }
    }

    /// FNV-1a over `bytes`: a compact fingerprint for pinned streams.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn composed_stream_digest_is_pinned() {
        // Scalar noise pins the interleaved input; the digest then pins
        // how the composed stage turns it into output bytes.
        let config = PoolConfig {
            base: TrngConfig::paper_k1().with_noise_backend(NoiseBackend::Scalar),
            ..small_pool(2)
        }
        .with_conditioning(Conditioning::Raw)
        .with_composed_extract(ComposedExtract::new(32, 7));
        let mut pool = EntropyPool::new(config).expect("pool");
        let mut stream = vec![0u8; 4096];
        // Uneven requests leave composed bytes buffered between fills.
        for chunk in stream.chunks_mut(1000) {
            pool.fill_bytes(chunk).expect("fill");
        }
        assert_eq!(fnv1a(&stream), 0x1ebe_3ea9_c8af_7307);
    }

    #[test]
    fn composed_absorb_matches_the_per_bit_extractor() {
        let input: Vec<u8> = (0..997u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        let mut stage = ComposedStage::new(ComposedExtract::new(32, 7).with_ratio(3), 2015, 0.5);
        let mut oracle = stage.extractor.clone();
        // Each 13-byte piece ends in a 5-byte tail word.
        for piece in input.chunks(13) {
            stage.absorb(piece);
        }
        let mut expected = Vec::new();
        for &byte in &input {
            for j in 0..8 {
                if let Some(y) = oracle.push(byte >> (7 - j) & 1 == 1) {
                    expected.extend((0..8).map(|k| ((y >> (8 * k)) as u8).reverse_bits()));
                }
            }
        }
        assert_eq!(expected.len(), 997 * 8 / 192 * 8);
        assert_eq!(stage.out.iter().copied().collect::<Vec<_>>(), expected);
        assert_eq!(stage.bytes_extracted, expected.len() as u64);
        assert_eq!(
            stage.extractor.pending_input_bits(),
            oracle.pending_input_bits()
        );
    }

    #[test]
    fn composed_exhaustion_keeps_the_partial_prefix_contract() {
        let fault = dead_fault(0, 4096, false);
        let config = small_pool(1)
            .with_conditioning(Conditioning::Raw)
            .with_composed_extract(ComposedExtract::new(32, 3))
            .with_fault(fault)
            .with_max_readmissions(0);
        let mut pool = EntropyPool::new(config).expect("pool");
        let mut sink = vec![0xAAu8; 1 << 20];
        match pool.fill_bytes(&mut sink) {
            Err(PoolError::SourcesExhausted { filled }) => {
                assert!(filled > 0, "healthy prefix must still be extracted");
                assert!(filled < sink.len());
                // `filled` counts *composed* bytes and only that prefix
                // may have been written.
                assert!(
                    sink[filled..].iter().all(|&b| b == 0xAA),
                    "bytes written past the reported composed fill of {filled}"
                );
                assert_eq!(pool.stats().bytes_delivered, filled as u64);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn initial_spawns_are_journaled() {
        let pool = EntropyPool::new(small_pool(3)).expect("pool");
        let stats = pool.stats();
        let spawns: Vec<_> = stats
            .journal
            .iter()
            .filter(|e| e.kind == IncidentKind::Spawn)
            .map(|e| e.shard)
            .collect();
        assert_eq!(spawns, [0, 1, 2]);
        assert_eq!(stats.journal_recorded, 3);
    }
}
