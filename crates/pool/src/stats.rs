//! Pool observability: per-shard lifecycle state and counters,
//! published lock-free so [`PoolStats`] snapshots
//! never stall the producers.

use core::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Duration;

use trng_fpga_sim::noise::NoiseBackend;
use trng_sources::SourceKind;
use trng_testkit::json::Json;

use crate::coherence::{CoherenceStats, ResidualSeries};
use crate::journal::IncidentEvent;
use crate::shard::Conditioning;

/// Lifecycle state of one shard.
///
/// ```text
///             startup passed
///  Starting ------------------> Online
///     |                        ^     |
///     | startup failed         |     | continuous-test alarm
///     v        re-admitted     |     v
///  Retired <------------------ Quarantined
///     ^     startup failed or        |
///     |     alarm budget spent       |
///     +------------------------------+
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardState {
    /// Built, start-up self-test not passed yet; contributes nothing.
    Starting,
    /// Healthy and feeding the pool.
    Online,
    /// A continuous test alarmed; the shard is isolated and must pass
    /// a fresh start-up test before re-admission.
    Quarantined,
    /// Permanently out of service (start-up failure or alarm budget
    /// exhausted).
    Retired,
}

impl ShardState {
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            ShardState::Starting => 0,
            ShardState::Online => 1,
            ShardState::Quarantined => 2,
            ShardState::Retired => 3,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            0 => ShardState::Starting,
            1 => ShardState::Online,
            2 => ShardState::Quarantined,
            _ => ShardState::Retired,
        }
    }
}

impl fmt::Display for ShardState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardState::Starting => "starting",
            ShardState::Online => "online",
            ShardState::Quarantined => "quarantined",
            ShardState::Retired => "retired",
        })
    }
}

/// How a shard came to exist in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardOrigin {
    /// Part of the pool's initial complement.
    Initial,
    /// Spawned by the respawn supervisor to supersede a retired shard.
    Respawn {
        /// Id of the retired shard this one replaces.
        replaces: usize,
    },
}

impl fmt::Display for ShardOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardOrigin::Initial => f.write_str("initial"),
            ShardOrigin::Respawn { replaces } => write!(f, "respawn of {replaces}"),
        }
    }
}

/// Lock-free shared counters one shard publishes into.
#[derive(Debug, Default)]
pub(crate) struct ShardShared {
    state: AtomicU8,
    alarms: AtomicU64,
    readmissions: AtomicU64,
    startup_runs: AtomicU64,
    bytes_produced: AtomicU64,
    raw_bits: AtomicU64,
    sim_ns: AtomicU64,
    ring_high_water: AtomicUsize,
    /// 0 = initial shard; `replaced_id + 1` for a respawned one.
    replaces_plus1: AtomicU64,
    /// `true` once a replacement shard has taken over for this one.
    superseded: AtomicBool,
    monitor_measurements: AtomicU64,
    jitter_fs: AtomicU64,
    jitter_baseline_fs: AtomicU64,
    monitor_drift_events: AtomicU64,
    /// `SourceKind::as_u8` of the backend feeding this shard.
    source_kind: AtomicU8,
    /// `f64::to_bits` of the backend's per-raw-bit min-entropy claim.
    claim_bits: AtomicU64,
    /// `NoiseBackend::as_u8` of the live instance's noise synthesis.
    noise_backend: AtomicU8,
    /// `Conditioning::encode_label` of the shard's conditioning stage.
    conditioning: AtomicU64,
    /// Period-probe residual ring the coherence detector scans; fed by
    /// the shard's monitor, read lock-free from consumer threads.
    residuals: ResidualSeries,
    /// Set by the coherence detector under `CoherenceResponse::AlarmAll`;
    /// the shard consumes it at the top of its next production call and
    /// raises its normal alarm.
    alarm_requested: AtomicBool,
}

impl ShardShared {
    pub fn set_state(&self, s: ShardState) {
        self.state.store(s.as_u8(), Ordering::Release);
    }

    pub fn state(&self) -> ShardState {
        ShardState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Marks this shard as a supervisor-spawned replacement.
    pub fn mark_respawned(&self, replaces: usize) {
        self.replaces_plus1
            .store(replaces as u64 + 1, Ordering::Release);
    }

    /// Marks this (retired) shard as superseded by a replacement.
    pub fn set_superseded(&self) {
        self.superseded.store(true, Ordering::Release);
    }

    pub fn superseded(&self) -> bool {
        self.superseded.load(Ordering::Acquire)
    }

    pub fn count_alarm(&self) {
        self.alarms.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count_readmission(&self) {
        self.readmissions.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count_startup_run(&self) {
        self.startup_runs.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_bytes(&self, n: u64) {
        self.bytes_produced.fetch_add(n, Ordering::Relaxed);
    }

    pub fn set_raw_bits(&self, n: u64) {
        self.raw_bits.store(n, Ordering::Relaxed);
    }

    pub fn set_sim_ns(&self, ns: u64) {
        self.sim_ns.store(ns, Ordering::Relaxed);
    }

    pub fn set_ring_high_water(&self, n: usize) {
        self.ring_high_water.fetch_max(n, Ordering::Relaxed);
    }

    /// Publishes one jitter-monitor observation: the latest estimated
    /// per-LUT differential sigma and the baseline it is judged
    /// against, both in femtoseconds.
    pub fn record_monitor(&self, jitter_fs: u64, baseline_fs: u64) {
        self.monitor_measurements.fetch_add(1, Ordering::Relaxed);
        self.jitter_fs.store(jitter_fs, Ordering::Relaxed);
        self.jitter_baseline_fs
            .store(baseline_fs, Ordering::Relaxed);
    }

    pub fn count_monitor_drift(&self) {
        self.monitor_drift_events.fetch_add(1, Ordering::Relaxed);
    }

    /// The shard's period-probe residual series (coherence detector input).
    pub fn residuals(&self) -> &ResidualSeries {
        &self.residuals
    }

    /// Ask the shard to raise an alarm on its next production call
    /// (coherence-detector escalation under `AlarmAll`).
    pub fn request_alarm(&self) {
        self.alarm_requested.store(true, Ordering::Release);
    }

    /// Consume a pending externally-requested alarm, if any. Called by
    /// the owning shard; returns `true` at most once per request.
    pub fn take_alarm_request(&self) -> bool {
        self.alarm_requested.swap(false, Ordering::AcqRel)
    }

    /// Labels this shard with its entropy backend, the min-entropy
    /// claim that parameterises its health tests, and the noise
    /// backend the live instance actually synthesises with.
    pub fn set_source(&self, kind: SourceKind, claim: f64, backend: NoiseBackend) {
        self.source_kind.store(kind.as_u8(), Ordering::Release);
        self.claim_bits.store(claim.to_bits(), Ordering::Release);
        self.noise_backend.store(backend.as_u8(), Ordering::Release);
    }

    /// Labels this shard's conditioning stage
    /// ([`Conditioning::encode_label`]); re-published together with the
    /// source label after fault rebuilds.
    pub fn set_conditioning(&self, encoded: u64) {
        self.conditioning.store(encoded, Ordering::Release);
    }

    pub fn snapshot(&self, id: usize) -> ShardStats {
        let origin = match self.replaces_plus1.load(Ordering::Acquire) {
            0 => ShardOrigin::Initial,
            n => ShardOrigin::Respawn {
                replaces: (n - 1) as usize,
            },
        };
        ShardStats {
            id,
            state: self.state(),
            origin,
            superseded: self.superseded(),
            alarms: self.alarms.load(Ordering::Relaxed),
            readmissions: self.readmissions.load(Ordering::Relaxed),
            startup_runs: self.startup_runs.load(Ordering::Relaxed),
            bytes_produced: self.bytes_produced.load(Ordering::Relaxed),
            raw_bits: self.raw_bits.load(Ordering::Relaxed),
            sim_elapsed: Duration::from_nanos(self.sim_ns.load(Ordering::Relaxed)),
            ring_high_water: self.ring_high_water.load(Ordering::Relaxed),
            monitor_measurements: self.monitor_measurements.load(Ordering::Relaxed),
            jitter_fs: self.jitter_fs.load(Ordering::Relaxed),
            jitter_baseline_fs: self.jitter_baseline_fs.load(Ordering::Relaxed),
            monitor_drift_events: self.monitor_drift_events.load(Ordering::Relaxed),
            source: SourceKind::from_u8(self.source_kind.load(Ordering::Acquire)),
            claimed_min_entropy: f64::from_bits(self.claim_bits.load(Ordering::Acquire)),
            noise_backend: NoiseBackend::from_u8(self.noise_backend.load(Ordering::Acquire)),
            conditioning: Conditioning::decode_label(self.conditioning.load(Ordering::Acquire)),
        }
    }
}

/// Point-in-time view of one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index within the pool.
    pub id: usize,
    /// Lifecycle state at snapshot time.
    pub state: ShardState,
    /// Whether the shard is initial complement or a respawned
    /// replacement.
    pub origin: ShardOrigin,
    /// `true` once a replacement has taken over for this (retired)
    /// shard; superseded shards are excluded from health
    /// classification.
    pub superseded: bool,
    /// Continuous-test alarms raised over the shard's lifetime.
    pub alarms: u64,
    /// Successful re-admissions after quarantine.
    pub readmissions: u64,
    /// Start-up test executions (initial admission + re-admissions).
    pub startup_runs: u64,
    /// Healthy conditioned bytes handed to the pool.
    pub bytes_produced: u64,
    /// Raw bits drawn from the underlying generator.
    pub raw_bits: u64,
    /// Elapsed *simulated* time of the shard's TRNG — the hardware
    /// clock domain, in which throughput scales with shard count.
    pub sim_elapsed: Duration,
    /// Peak occupancy of the shard's ring buffer, in bytes.
    pub ring_high_water: usize,
    /// Jitter-monitor observations completed (0 when the monitor is
    /// disabled).
    pub monitor_measurements: u64,
    /// Latest per-LUT differential jitter sigma estimated by the
    /// online monitor, in femtoseconds (0 before the first
    /// observation).
    pub jitter_fs: u64,
    /// The monitor's frozen healthy baseline for `jitter_fs`, in
    /// femtoseconds (0 until the baseline window completes).
    pub jitter_baseline_fs: u64,
    /// Drift events the monitor has journaled for this shard.
    pub monitor_drift_events: u64,
    /// Which entropy backend feeds this shard.
    pub source: SourceKind,
    /// The backend's per-raw-bit min-entropy claim — the figure the
    /// shard's SP 800-90B continuous tests are parameterised with.
    pub claimed_min_entropy: f64,
    /// How the shard's live instance synthesises noise variates —
    /// [`NoiseBackend::Scalar`] for replay-exact streams, or the
    /// statistically-equivalent batched engine. Always `Scalar` for
    /// every backend but the carry chain.
    pub noise_backend: NoiseBackend,
    /// Label of the shard's conditioning stage (`design_xor`,
    /// `xor:<rate>`, `raw`, `toeplitz:<ratio>`).
    pub conditioning: String,
}

impl ShardStats {
    /// Renders the shard snapshot as a JSON object. Field names match
    /// the struct fields; durations are serialized in nanoseconds.
    /// `origin` renders as `"initial"` or `"respawn"`, with the
    /// superseded shard's id in `replaces` for respawned shards.
    pub fn to_json(&self) -> Json {
        let (origin, replaces) = match self.origin {
            ShardOrigin::Initial => ("initial", None),
            ShardOrigin::Respawn { replaces } => ("respawn", Some(replaces)),
        };
        let mut fields = vec![
            ("id", Json::u64(self.id as u64)),
            ("state", Json::str(self.state.to_string())),
            ("origin", Json::str(origin)),
        ];
        if let Some(replaces) = replaces {
            fields.push(("replaces", Json::u64(replaces as u64)));
        }
        fields.extend([
            ("superseded", Json::Bool(self.superseded)),
            ("alarms", Json::u64(self.alarms)),
            ("readmissions", Json::u64(self.readmissions)),
            ("startup_runs", Json::u64(self.startup_runs)),
            ("bytes_produced", Json::u64(self.bytes_produced)),
            ("raw_bits", Json::u64(self.raw_bits)),
            (
                "sim_elapsed_ns",
                Json::u64(self.sim_elapsed.as_nanos() as u64),
            ),
            ("ring_high_water", Json::u64(self.ring_high_water as u64)),
            ("monitor_measurements", Json::u64(self.monitor_measurements)),
            ("jitter_fs", Json::u64(self.jitter_fs)),
            ("jitter_baseline_fs", Json::u64(self.jitter_baseline_fs)),
            ("monitor_drift_events", Json::u64(self.monitor_drift_events)),
            ("source", Json::str(self.source.as_str())),
            ("claimed_min_entropy", Json::num(self.claimed_min_entropy)),
            ("noise_backend", Json::str(self.noise_backend.as_str())),
            ("conditioning", Json::str(self.conditioning.clone())),
        ]);
        Json::obj(fields)
    }
}

/// Point-in-time view of the pool-level composed extract stage
/// (interleave-then-Toeplitz across independent shards; see
/// [`PoolConfig::with_composed_extract`](crate::pool::PoolConfig::with_composed_extract)).
#[derive(Debug, Clone, PartialEq)]
pub struct ComposedStats {
    /// Interleaved input bits consumed per output bit (input block =
    /// `ratio · 64` bits).
    pub ratio: u32,
    /// The stage's statistical-distance target: `ε = 2^−epsilon_log2`.
    pub epsilon_log2: u32,
    /// The *minimum* per-raw-bit min-entropy claim across the pool's
    /// input shards at construction — the eq. (7)-derived figure the
    /// leftover-hash sizing consumed.
    pub input_claim_min_entropy: f64,
    /// Claimed per-bit min-entropy of the composed output under the
    /// leftover hash lemma
    /// ([`extracted_min_entropy_per_bit`](trng_extract::extracted_min_entropy_per_bit)):
    /// ≈ 0.5 for 64-bit blocks at ε = 2^−32.
    pub claimed_min_entropy: f64,
    /// Measured per-bit min-entropy of the composed output — a byte
    /// most-common-value estimate with a 99% confidence penalty, 0.0
    /// until enough output has accumulated (4 KiB). The acceptance
    /// invariant is `claimed ≤ measured`: the lemma's conservative
    /// bound must under-promise what the stream empirically delivers.
    pub measured_min_entropy: f64,
    /// Composed output bytes extracted over the pool's lifetime.
    pub bytes_extracted: u64,
}

impl ComposedStats {
    /// Renders the composed-stage snapshot as a JSON object; field
    /// names match the struct fields.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("ratio", Json::u64(u64::from(self.ratio))),
            ("epsilon_log2", Json::u64(u64::from(self.epsilon_log2))),
            (
                "input_claim_min_entropy",
                Json::num(self.input_claim_min_entropy),
            ),
            ("claimed_min_entropy", Json::num(self.claimed_min_entropy)),
            ("measured_min_entropy", Json::num(self.measured_min_entropy)),
            ("bytes_extracted", Json::u64(self.bytes_extracted)),
        ])
    }
}

/// Coarse service health derived from the shard lifecycle states —
/// the classification a load balancer or health probe acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolHealth {
    /// Every live shard is online.
    Healthy,
    /// Not every live shard is online (starting, quarantined, or
    /// retired): the pool serves at reduced — possibly zero —
    /// capacity, but at least one shard may still come (back) online.
    Degraded,
    /// A respawn is in flight: a supervisor-spawned replacement shard
    /// is running its admission gate, or every live shard has retired
    /// but respawn budget remains so a replacement is imminent.
    Recovering,
    /// Every live shard is retired and no respawn budget remains; the
    /// pool can never serve again.
    Exhausted,
}

impl fmt::Display for PoolHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PoolHealth::Healthy => "healthy",
            PoolHealth::Degraded => "degraded",
            PoolHealth::Recovering => "recovering",
            PoolHealth::Exhausted => "exhausted",
        })
    }
}

/// Point-in-time view of the whole pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolStats {
    /// One entry per shard, in shard order (respawned replacements
    /// follow the initial complement).
    pub shards: Vec<ShardStats>,
    /// Bytes delivered to consumers over the pool's lifetime.
    pub bytes_delivered: u64,
    /// Completed `fill_bytes`/`try_fill_bytes` calls.
    pub fill_calls: u64,
    /// Longest time a single fill call spent waiting for bytes.
    pub max_refill_wait: Duration,
    /// Replacement shards spawned by the respawn supervisor.
    pub respawns: u32,
    /// Respawn budget still available (0 when no policy is set).
    pub respawns_available: u32,
    /// Retired shard worker threads the supervisor has joined
    /// (threaded backend only).
    pub workers_joined: u64,
    /// The retained incident-journal window, oldest first.
    pub journal: Vec<IncidentEvent>,
    /// Total incidents ever recorded; when it exceeds `journal.len()`
    /// the bounded log has evicted its oldest events.
    pub journal_recorded: u64,
    /// The pool-level composed extract stage, when configured.
    pub composed: Option<ComposedStats>,
    /// The cross-shard coherence detector, when configured.
    pub coherence: Option<CoherenceStats>,
}

impl PoolStats {
    /// Number of shards currently online.
    pub fn online_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.state == ShardState::Online)
            .count()
    }

    /// Total alarms across all shards.
    pub fn total_alarms(&self) -> u64 {
        self.shards.iter().map(|s| s.alarms).sum()
    }

    /// The *live* shard set: every shard except retired ones that a
    /// replacement has superseded. Health classification runs over
    /// this set, so a healed pool (dead shard + online replacement)
    /// reads healthy, not permanently degraded.
    pub fn live_shards(&self) -> impl Iterator<Item = &ShardStats> {
        self.shards
            .iter()
            .filter(|s| !(s.state == ShardState::Retired && s.superseded))
    }

    /// Coarse health classification over the live shard set:
    ///
    /// * [`PoolHealth::Exhausted`] — every live shard is retired and
    ///   no respawn budget remains;
    /// * [`PoolHealth::Recovering`] — a respawned replacement is still
    ///   in its admission gate, or every live shard retired but budget
    ///   remains (a respawn is imminent);
    /// * [`PoolHealth::Healthy`] — every live shard is online;
    /// * [`PoolHealth::Degraded`] — anything in between.
    pub fn health(&self) -> PoolHealth {
        let all_retired = self.live_shards().all(|s| s.state == ShardState::Retired);
        if all_retired {
            return if self.respawns_available > 0 {
                PoolHealth::Recovering
            } else {
                PoolHealth::Exhausted
            };
        }
        let respawn_in_flight = self.live_shards().any(|s| {
            s.state == ShardState::Starting && matches!(s.origin, ShardOrigin::Respawn { .. })
        });
        if respawn_in_flight {
            PoolHealth::Recovering
        } else if self.live_shards().all(|s| s.state == ShardState::Online) {
            PoolHealth::Healthy
        } else {
            PoolHealth::Degraded
        }
    }

    /// Renders the pool snapshot as a JSON object, one entry per
    /// pool-level counter plus the per-shard array — the payload the
    /// metrics endpoint of a serving layer exposes, and the
    /// [`Display`](fmt::Display) form.
    /// Field names match the struct fields; durations are serialized
    /// in nanoseconds.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("bytes_delivered", Json::u64(self.bytes_delivered)),
            ("fill_calls", Json::u64(self.fill_calls)),
            (
                "max_refill_wait_ns",
                Json::u64(self.max_refill_wait.as_nanos() as u64),
            ),
            ("online_shards", Json::u64(self.online_shards() as u64)),
            ("total_alarms", Json::u64(self.total_alarms())),
            ("respawns", Json::u64(u64::from(self.respawns))),
            (
                "respawns_available",
                Json::u64(u64::from(self.respawns_available)),
            ),
            ("workers_joined", Json::u64(self.workers_joined)),
            ("health", Json::str(self.health().to_string())),
            ("sim_throughput_bps", Json::num(self.sim_throughput_bps())),
            (
                "shards",
                Json::Arr(self.shards.iter().map(ShardStats::to_json).collect()),
            ),
            ("sources", self.source_mix()),
            ("journal_recorded", Json::u64(self.journal_recorded)),
            (
                "journal_evicted",
                Json::u64(
                    self.journal_recorded
                        .saturating_sub(self.journal.len() as u64),
                ),
            ),
            (
                "journal",
                Json::Arr(self.journal.iter().map(IncidentEvent::to_json).collect()),
            ),
        ];
        // Additive: pools without the composed stage or coherence
        // detector keep their exact pre-existing payload shape.
        if let Some(composed) = &self.composed {
            fields.push(("composed", composed.to_json()));
        }
        if let Some(coherence) = &self.coherence {
            fields.push(("coherence", coherence.to_json()));
        }
        Json::obj(fields)
    }

    /// Per-backend aggregate rendered into the JSON `sources` object:
    /// one entry per [`SourceKind`] present in the pool, keyed by its
    /// metrics label, with shard/online counts, produced bytes, alarm
    /// totals and the *worst* (lowest) min-entropy claim across the
    /// kind's shards. All keys are additive over the per-shard array —
    /// the endpoint grows no information, only convenient grouping.
    pub fn source_mix(&self) -> Json {
        Json::obj(
            SourceKind::all()
                .iter()
                .filter_map(|&kind| {
                    let members: Vec<&ShardStats> =
                        self.shards.iter().filter(|s| s.source == kind).collect();
                    if members.is_empty() {
                        return None;
                    }
                    let online = members
                        .iter()
                        .filter(|s| s.state == ShardState::Online)
                        .count();
                    Some((
                        kind.as_str(),
                        Json::obj(vec![
                            ("shards", Json::u64(members.len() as u64)),
                            ("online", Json::u64(online as u64)),
                            (
                                "bytes_produced",
                                Json::u64(members.iter().map(|s| s.bytes_produced).sum()),
                            ),
                            ("alarms", Json::u64(members.iter().map(|s| s.alarms).sum())),
                            (
                                "claimed_min_entropy",
                                Json::num(
                                    members
                                        .iter()
                                        .map(|s| s.claimed_min_entropy)
                                        .fold(f64::INFINITY, f64::min),
                                ),
                            ),
                        ]),
                    ))
                })
                .collect::<Vec<_>>(),
        )
    }

    /// Aggregate throughput in the *simulated* clock domain, in bits
    /// per simulated second: total healthy bits produced divided by
    /// the longest per-shard simulated elapsed time. This is the
    /// paper's Table-2 metric — parallel instances produce their bytes
    /// in the *same* simulated window, so N healthy shards deliver
    /// ~N× the single-instance rate.
    ///
    /// With a composed extract stage the shards produce its input, so
    /// their bits are divided by the stage's `ratio`: the rate is the
    /// stage's output, not the raw bits it consumes.
    ///
    /// Returns 0.0 before any shard has produced bytes.
    pub fn sim_throughput_bps(&self) -> f64 {
        let produced: u64 = self.shards.iter().map(|s| s.bytes_produced * 8).sum();
        let ratio = self.composed.as_ref().map_or(1, |c| c.ratio);
        let bits = produced as f64 / f64::from(ratio);
        let window = self
            .shards
            .iter()
            .map(|s| s.sim_elapsed)
            .max()
            .unwrap_or_default();
        if window.is_zero() {
            0.0
        } else {
            bits / window.as_secs_f64()
        }
    }
}

/// Renders [`PoolStats::to_json`], pretty-printed: one form for
/// humans, logs and the metrics endpoint.
impl fmt::Display for PoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json().to_string_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_round_trips_through_u8() {
        for s in [
            ShardState::Starting,
            ShardState::Online,
            ShardState::Quarantined,
            ShardState::Retired,
        ] {
            assert_eq!(ShardState::from_u8(s.as_u8()), s);
        }
    }

    #[test]
    fn shared_counters_snapshot() {
        let shared = ShardShared::default();
        shared.set_state(ShardState::Online);
        shared.count_alarm();
        shared.count_startup_run();
        shared.count_startup_run();
        shared.count_readmission();
        shared.add_bytes(100);
        shared.add_bytes(28);
        shared.set_raw_bits(1024);
        shared.set_sim_ns(5_000);
        shared.set_ring_high_water(64);
        shared.set_ring_high_water(32); // max() keeps 64
        shared.record_monitor(2650, 2600);
        shared.record_monitor(2700, 2600);
        shared.count_monitor_drift();
        let s = shared.snapshot(3);
        assert_eq!(s.id, 3);
        assert_eq!(s.state, ShardState::Online);
        assert_eq!(s.alarms, 1);
        assert_eq!(s.readmissions, 1);
        assert_eq!(s.startup_runs, 2);
        assert_eq!(s.bytes_produced, 128);
        assert_eq!(s.raw_bits, 1024);
        assert_eq!(s.sim_elapsed, Duration::from_nanos(5_000));
        assert_eq!(s.ring_high_water, 64);
        assert_eq!(s.monitor_measurements, 2);
        assert_eq!(s.jitter_fs, 2700, "latest observation wins");
        assert_eq!(s.jitter_baseline_fs, 2600);
        assert_eq!(s.monitor_drift_events, 1);
    }

    #[test]
    fn sim_throughput_uses_slowest_shard_window() {
        let mk = |bytes: u64, sim_ms: u64| ShardStats {
            id: 0,
            state: ShardState::Online,
            origin: ShardOrigin::Initial,
            superseded: false,
            alarms: 0,
            readmissions: 0,
            startup_runs: 1,
            bytes_produced: bytes,
            raw_bits: 0,
            sim_elapsed: Duration::from_millis(sim_ms),
            ring_high_water: 0,
            monitor_measurements: 0,
            jitter_fs: 0,
            jitter_baseline_fs: 0,
            monitor_drift_events: 0,
            source: SourceKind::CarryChain,
            claimed_min_entropy: 0.05,
            noise_backend: NoiseBackend::Scalar,
            conditioning: "design_xor".to_string(),
        };
        let stats = PoolStats {
            shards: vec![mk(1000, 10), mk(1000, 10), mk(1000, 10), mk(1000, 10)],
            bytes_delivered: 4000,
            fill_calls: 1,
            max_refill_wait: Duration::ZERO,
            respawns: 0,
            respawns_available: 0,
            workers_joined: 0,
            journal: Vec::new(),
            journal_recorded: 0,
            composed: None,
            coherence: None,
        };
        // 4 shards x 8000 bits over the same 10 ms window: 3.2 Mb/s,
        // 4x what a single shard would report.
        assert!((stats.sim_throughput_bps() - 3.2e6).abs() < 1.0);
        let single = PoolStats {
            shards: vec![mk(1000, 10)],
            bytes_delivered: 1000,
            fill_calls: 1,
            max_refill_wait: Duration::ZERO,
            respawns: 0,
            respawns_available: 0,
            workers_joined: 0,
            journal: Vec::new(),
            journal_recorded: 0,
            composed: None,
            coherence: None,
        };
        assert!((single.sim_throughput_bps() - 0.8e6).abs() < 1.0);

        // A composed stage turns `ratio` raw bits into one output bit:
        // the same 4 shards at ratio 5 deliver 3.2 / 5 = 0.64 Mb/s.
        let composed = PoolStats {
            composed: Some(ComposedStats {
                ratio: 5,
                epsilon_log2: 32,
                input_claim_min_entropy: 0.42,
                claimed_min_entropy: 0.49999,
                measured_min_entropy: 0.0,
                bytes_extracted: 800,
            }),
            ..stats
        };
        assert!((composed.sim_throughput_bps() - 0.64e6).abs() < 1.0);
    }

    fn sample_stats() -> PoolStats {
        let shard = |id: usize, state: ShardState| ShardStats {
            id,
            state,
            origin: ShardOrigin::Initial,
            superseded: false,
            alarms: id as u64,
            readmissions: 1,
            startup_runs: 2,
            bytes_produced: 4096 + id as u64,
            raw_bits: 32768,
            sim_elapsed: Duration::from_nanos(123_456),
            ring_high_water: 512,
            monitor_measurements: 9,
            jitter_fs: 2600,
            jitter_baseline_fs: 2500,
            monitor_drift_events: id as u64,
            source: if id == 0 {
                SourceKind::CarryChain
            } else {
                SourceKind::DualOscillator
            },
            claimed_min_entropy: 0.05 + id as f64 * 0.4,
            noise_backend: if id == 0 {
                NoiseBackend::Batched
            } else {
                NoiseBackend::Scalar
            },
            conditioning: if id == 0 {
                "design_xor".to_string()
            } else {
                "toeplitz:5".to_string()
            },
        };
        PoolStats {
            shards: vec![
                shard(0, ShardState::Online),
                shard(1, ShardState::Quarantined),
            ],
            bytes_delivered: 8190,
            fill_calls: 17,
            max_refill_wait: Duration::from_micros(250),
            respawns: 1,
            respawns_available: 2,
            workers_joined: 1,
            journal: vec![IncidentEvent {
                seq: 0,
                shard: 1,
                kind: crate::journal::IncidentKind::Alarm,
                sim_ns: 123,
                at_bytes: 456,
                detail: 0,
            }],
            journal_recorded: 5,
            composed: None,
            coherence: None,
        }
    }

    #[test]
    fn json_form_matches_struct_field_for_field() {
        let stats = sample_stats();
        let json = stats.to_json();
        let f = |k: &str| json.get(k).and_then(Json::as_f64).expect(k);
        assert_eq!(f("bytes_delivered"), stats.bytes_delivered as f64);
        assert_eq!(f("fill_calls"), stats.fill_calls as f64);
        assert_eq!(
            f("max_refill_wait_ns"),
            stats.max_refill_wait.as_nanos() as f64
        );
        assert_eq!(f("online_shards"), stats.online_shards() as f64);
        assert_eq!(f("total_alarms"), stats.total_alarms() as f64);
        assert_eq!(f("respawns"), f64::from(stats.respawns));
        assert_eq!(f("respawns_available"), f64::from(stats.respawns_available));
        assert_eq!(f("workers_joined"), stats.workers_joined as f64);
        assert_eq!(f("journal_recorded"), stats.journal_recorded as f64);
        assert_eq!(
            f("journal_evicted"),
            (stats.journal_recorded - stats.journal.len() as u64) as f64
        );
        let journal = json.get("journal").and_then(Json::as_arr).expect("journal");
        assert_eq!(journal.len(), stats.journal.len());
        assert_eq!(f("sim_throughput_bps"), stats.sim_throughput_bps());
        assert_eq!(
            json.get("health").and_then(Json::as_str),
            Some(stats.health().to_string().as_str())
        );
        let shards = json.get("shards").and_then(Json::as_arr).expect("shards");
        assert_eq!(shards.len(), stats.shards.len());
        for (j, s) in shards.iter().zip(&stats.shards) {
            let f = |k: &str| j.get(k).and_then(Json::as_f64).expect(k);
            assert_eq!(f("id"), s.id as f64);
            assert_eq!(
                j.get("state").and_then(Json::as_str),
                Some(s.state.to_string().as_str())
            );
            assert_eq!(j.get("origin").and_then(Json::as_str), Some("initial"));
            assert!(j.get("replaces").is_none());
            assert_eq!(j.get("superseded").and_then(Json::as_bool), Some(false));
            assert_eq!(f("alarms"), s.alarms as f64);
            assert_eq!(f("readmissions"), s.readmissions as f64);
            assert_eq!(f("startup_runs"), s.startup_runs as f64);
            assert_eq!(f("bytes_produced"), s.bytes_produced as f64);
            assert_eq!(f("raw_bits"), s.raw_bits as f64);
            assert_eq!(f("sim_elapsed_ns"), s.sim_elapsed.as_nanos() as f64);
            assert_eq!(f("ring_high_water"), s.ring_high_water as f64);
            assert_eq!(f("monitor_measurements"), s.monitor_measurements as f64);
            assert_eq!(f("jitter_fs"), s.jitter_fs as f64);
            assert_eq!(f("jitter_baseline_fs"), s.jitter_baseline_fs as f64);
            assert_eq!(f("monitor_drift_events"), s.monitor_drift_events as f64);
            assert_eq!(
                j.get("source").and_then(Json::as_str),
                Some(s.source.as_str())
            );
            assert_eq!(f("claimed_min_entropy"), s.claimed_min_entropy);
            assert_eq!(
                j.get("noise_backend").and_then(Json::as_str),
                Some(s.noise_backend.as_str())
            );
            assert_eq!(
                j.get("conditioning").and_then(Json::as_str),
                Some(s.conditioning.as_str())
            );
        }
    }

    #[test]
    fn composed_stage_renders_additively() {
        // Without the stage the payload has no `composed` key at all —
        // pre-existing consumers see the exact old shape.
        let mut stats = sample_stats();
        assert!(stats.to_json().get("composed").is_none());
        stats.composed = Some(ComposedStats {
            ratio: 5,
            epsilon_log2: 32,
            input_claim_min_entropy: 0.42,
            claimed_min_entropy: 0.49999,
            measured_min_entropy: 0.97,
            bytes_extracted: 1 << 20,
        });
        let json = stats.to_json();
        let c = json.get("composed").expect("composed object");
        let expect = stats.composed.as_ref().unwrap();
        let f = |k: &str| c.get(k).and_then(Json::as_f64).expect(k);
        assert_eq!(f("ratio"), f64::from(expect.ratio));
        assert_eq!(f("epsilon_log2"), f64::from(expect.epsilon_log2));
        assert_eq!(f("input_claim_min_entropy"), expect.input_claim_min_entropy);
        assert_eq!(f("claimed_min_entropy"), expect.claimed_min_entropy);
        assert_eq!(f("measured_min_entropy"), expect.measured_min_entropy);
        assert_eq!(f("bytes_extracted"), expect.bytes_extracted as f64);
    }

    #[test]
    fn source_mix_groups_shards_by_backend() {
        // sample_stats mixes one carry-chain and one dual-oscillator
        // shard; the aggregate must key on each kind's metrics label
        // and report the *lowest* claim per kind.
        let mut stats = sample_stats();
        stats.shards.push(ShardStats {
            source: SourceKind::CarryChain,
            claimed_min_entropy: 0.02,
            ..stats.shards[0].clone()
        });
        let mix = stats.to_json();
        let mix = mix.get("sources").expect("sources object");
        let cc = mix.get("carry_chain").expect("carry_chain entry");
        assert_eq!(cc.get("shards").and_then(Json::as_f64), Some(2.0));
        assert_eq!(cc.get("online").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            cc.get("claimed_min_entropy").and_then(Json::as_f64),
            Some(0.02)
        );
        let dual = mix.get("dual_osc").expect("dual_osc entry");
        assert_eq!(dual.get("shards").and_then(Json::as_f64), Some(1.0));
        assert_eq!(dual.get("online").and_then(Json::as_f64), Some(0.0));
        assert!(mix.get("trace_replay").is_none(), "absent kinds omitted");
        assert!(mix.get("os_entropy").is_none());
        // Additivity: per-kind bytes sum to the per-shard total.
        let total: u64 = stats.shards.iter().map(|s| s.bytes_produced).sum();
        let grouped = cc.get("bytes_produced").and_then(Json::as_f64).unwrap()
            + dual.get("bytes_produced").and_then(Json::as_f64).unwrap();
        assert_eq!(grouped as u64, total);
    }

    #[test]
    fn display_and_json_agree_on_shared_fields() {
        // The Display form is the JSON form, so every field the JSON
        // test checks is printed with the same value.
        let stats = sample_stats();
        assert_eq!(stats.to_string(), stats.to_json().to_string_pretty());
    }

    #[test]
    fn health_classifies_lifecycle_mixtures() {
        let mut stats = sample_stats();
        stats.respawns_available = 0;
        stats.shards[1].state = ShardState::Online;
        assert_eq!(stats.health(), PoolHealth::Healthy);
        for state in [
            ShardState::Starting,
            ShardState::Quarantined,
            ShardState::Retired,
        ] {
            stats.shards[1].state = state;
            assert_eq!(stats.health(), PoolHealth::Degraded, "{state}");
        }
        stats.shards[0].state = ShardState::Retired;
        stats.shards[1].state = ShardState::Retired;
        assert_eq!(stats.health(), PoolHealth::Exhausted);
        assert_eq!(PoolHealth::Healthy.to_string(), "healthy");
        assert_eq!(PoolHealth::Degraded.to_string(), "degraded");
        assert_eq!(PoolHealth::Recovering.to_string(), "recovering");
        assert_eq!(PoolHealth::Exhausted.to_string(), "exhausted");
    }

    #[test]
    fn health_recovering_while_respawn_in_flight() {
        // A replacement shard in its admission gate reads recovering,
        // not degraded.
        let mut stats = sample_stats();
        stats.shards[0].state = ShardState::Online;
        stats.shards[1].state = ShardState::Starting;
        stats.shards[1].origin = ShardOrigin::Respawn { replaces: 0 };
        assert_eq!(stats.health(), PoolHealth::Recovering);
        // All live shards retired but budget remains: a respawn is
        // imminent, still recovering.
        stats.shards[0].state = ShardState::Retired;
        stats.shards[1].state = ShardState::Retired;
        stats.respawns_available = 1;
        assert_eq!(stats.health(), PoolHealth::Recovering);
        // Budget spent: exhausted.
        stats.respawns_available = 0;
        assert_eq!(stats.health(), PoolHealth::Exhausted);
    }

    #[test]
    fn superseded_retirees_leave_the_live_set() {
        // A healed pool — dead shard plus online replacement — reads
        // healthy once the retiree is marked superseded.
        let mut stats = sample_stats();
        stats.shards[0].state = ShardState::Retired;
        stats.shards[0].superseded = true;
        stats.shards[1].state = ShardState::Online;
        stats.shards[1].origin = ShardOrigin::Respawn { replaces: 0 };
        assert_eq!(stats.live_shards().count(), 1);
        assert_eq!(stats.health(), PoolHealth::Healthy);
        // A respawned shard's JSON names its predecessor.
        let json = stats.to_json();
        let shards = json.get("shards").and_then(Json::as_arr).expect("shards");
        assert_eq!(
            shards[0].get("superseded").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            shards[1].get("origin").and_then(Json::as_str),
            Some("respawn")
        );
        assert_eq!(shards[1].get("replaces").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn display_renders_every_shard() {
        // A fresh snapshot, before its shard has published anything,
        // still renders in full.
        let stats = PoolStats {
            shards: vec![ShardShared::default().snapshot(0)],
            bytes_delivered: 0,
            fill_calls: 0,
            max_refill_wait: Duration::ZERO,
            respawns: 0,
            respawns_available: 0,
            workers_joined: 0,
            journal: Vec::new(),
            journal_recorded: 0,
            composed: None,
            coherence: None,
        };
        let json = stats.to_json();
        let shards = json.get("shards").and_then(Json::as_arr).expect("shards");
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].get("id").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            shards[0].get("state").and_then(Json::as_str),
            Some("starting")
        );
        assert!(json.get("journal").is_some());
    }

    #[test]
    fn shared_source_label_round_trips() {
        let shared = ShardShared::default();
        shared.set_source(SourceKind::TraceReplay, 0.93, NoiseBackend::Batched);
        let s = shared.snapshot(0);
        assert_eq!(s.source, SourceKind::TraceReplay);
        assert_eq!(s.claimed_min_entropy, 0.93);
        assert_eq!(s.noise_backend, NoiseBackend::Batched);
        // Unset conditioning decodes to the pool's default label.
        assert_eq!(s.conditioning, "design_xor");
    }

    #[test]
    fn shared_conditioning_label_round_trips() {
        let shared = ShardShared::default();
        for (mode, label) in [
            (Conditioning::DesignXor, "design_xor"),
            (Conditioning::Xor(3), "xor:3"),
            (Conditioning::Raw, "raw"),
            (Conditioning::Toeplitz { ratio: 5, seed: 9 }, "toeplitz:5"),
        ] {
            shared.set_conditioning(mode.encode_label());
            assert_eq!(shared.snapshot(0).conditioning, label);
            // Display agrees with the published label; the Toeplitz
            // seed is configuration, not telemetry.
            assert_eq!(mode.to_string(), label);
        }
    }

    #[test]
    fn shard_shared_respawn_marks_round_trip() {
        let shared = ShardShared::default();
        assert_eq!(shared.snapshot(5).origin, ShardOrigin::Initial);
        shared.mark_respawned(2);
        shared.set_superseded();
        let s = shared.snapshot(5);
        assert_eq!(s.origin, ShardOrigin::Respawn { replaces: 2 });
        assert!(s.superseded);
        assert_eq!(s.origin.to_string(), "respawn of 2");
    }
}
