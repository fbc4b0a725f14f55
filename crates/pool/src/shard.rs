//! One pool shard: an [`EntropySource`] backend wrapped in its own
//! health gate and conditioning stage, driven through the lifecycle
//! state machine of [`ShardState`].
//!
//! A shard only contributes bytes while `Online`. Admission (and
//! *re*-admission after a quarantine) is gated by the AIS-31-style
//! start-up self-test ([`run_source_startup`], the backend-agnostic form
//! of [`trng_core::selftest::run_startup_test`]); while online, every raw bit feeds the SP 800-90B continuous
//! tests *before* it may enter the conditioning stage, and a block is
//! only released to the pool once every bit in it passed. An alarm
//! therefore discards the whole in-flight block — no byte derived from
//! a suspect stretch of the raw stream can reach a consumer.
//!
//! The shard is backend-agnostic: it owns a `Box<dyn EntropySource>`
//! and parameterises its health tests with the backend's
//! `claimed_min_entropy()`, so a carry-chain TDC, a dual-oscillator
//! sampler, a recorded trace or the OS pool all run through identical
//! gating.

use core::fmt;
use std::sync::Arc;

use trng_core::health::{HealthStatus, OnlineHealth};
use trng_core::postprocess::XorCompressor;
use trng_core::von_neumann::VonNeumann;
use trng_extract::{leftover_hash_ratio, ToeplitzExtractor};
use trng_fpga_sim::rng::SimRng;
use trng_sources::{run_source_startup, EntropySource};

use crate::journal::{IncidentKind, Journal, RETIRE_WORKER_PANIC};
use crate::monitor::JitterMonitor;
use crate::pool::ShardRecipe;
use crate::stats::{ShardShared, ShardState};

/// How an injected fault replaces a shard's entropy source — the
/// [`SourceFault`](trng_sources::SourceFault) contract, re-exported
/// under the pool's historical name. Backends that cannot express a
/// requested fault reject it with a typed error, which the shard
/// converts into an alarm during block production.
pub use trng_sources::SourceFault as ShardFault;

/// Deterministically derives a per-shard / per-rebuild simulation seed
/// (re-exported from `trng-sources`, where every backend draws its
/// lanes from the same function).
pub(crate) use trng_sources::mix_seed;

/// Conditioning applied between the raw source and the pool's byte
/// stream, reusing the post-processors from `trng-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conditioning {
    /// XOR compression at the source's own natural rate (`np` for the
    /// carry-chain design — the paper's Section 4.5 choice — or the
    /// backend's [`native_xor_rate`](EntropySource::native_xor_rate)).
    DesignXor,
    /// XOR compression at an explicit rate.
    Xor(u32),
    /// Von Neumann extraction (unbiased output, variable rate).
    VonNeumann,
    /// Raw bits, packed into bytes unconditioned.
    Raw,
    /// Seeded Toeplitz strong extraction
    /// ([`ToeplitzExtractor`]):
    /// every `ratio · 64` raw bits hash to one 64-bit output block,
    /// carrying the leftover-hash-lemma uniformity guarantee the XOR
    /// modes lack. Each shard derives its own matrix via
    /// [`mix_seed`] from `seed` and the
    /// shard's lane, so deterministic replay stays a pure function of
    /// the configuration.
    Toeplitz {
        /// Raw input bits consumed per output bit (the input block is
        /// `ratio · 64` bits wide); size it with
        /// [`leftover_hash_ratio`]
        /// or [`Conditioning::toeplitz_sized`]. Must be at least 1.
        ratio: u32,
        /// Matrix seed lane, mixed with the shard seed.
        seed: u64,
    },
}

impl Conditioning {
    /// A [`Conditioning::Toeplitz`] whose ratio is sized by the
    /// leftover hash lemma from a per-raw-bit min-entropy claim at
    /// statistical distance `ε = 2^−epsilon_log2` — the same
    /// calculation the composed pool stage applies across shards.
    ///
    /// # Panics
    ///
    /// When `claimed_min_entropy` is not a positive claim (see
    /// [`leftover_hash_ratio`]).
    pub fn toeplitz_sized(claimed_min_entropy: f64, epsilon_log2: u32, seed: u64) -> Self {
        Conditioning::Toeplitz {
            ratio: leftover_hash_ratio(claimed_min_entropy, epsilon_log2, 64),
            seed,
        }
    }

    /// Compact metrics label: `design_xor`, `xor:<rate>`,
    /// `von_neumann`, `raw`, or `toeplitz:<ratio>` (the matrix seed is
    /// configuration, not telemetry).
    pub(crate) fn encode_label(self) -> u64 {
        let (tag, param) = match self {
            Conditioning::DesignXor => (0u64, 0u32),
            Conditioning::Xor(rate) => (1, rate),
            Conditioning::VonNeumann => (2, 0),
            Conditioning::Raw => (3, 0),
            Conditioning::Toeplitz { ratio, .. } => (4, ratio),
        };
        tag << 32 | u64::from(param)
    }

    /// Decodes [`encode_label`](Conditioning::encode_label) back to
    /// the label string; unknown tags (never stored) read as the
    /// default `design_xor`.
    pub(crate) fn decode_label(encoded: u64) -> String {
        let param = encoded as u32;
        match encoded >> 32 {
            1 => format!("xor:{param}"),
            2 => "von_neumann".to_string(),
            3 => "raw".to_string(),
            4 => format!("toeplitz:{param}"),
            _ => "design_xor".to_string(),
        }
    }
}

impl fmt::Display for Conditioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&Conditioning::decode_label(self.encode_label()))
    }
}

#[derive(Debug, Clone)]
enum Conditioner {
    FixedRate(FixedRate),
    /// Consumption is data-dependent, so raw bits are gated and
    /// conditioned one at a time.
    VonNeumann(VonNeumann),
}

/// Conditioners that consume a *fixed* number of raw bits per output
/// bit, making a block's raw demand exactly computable up front
/// (enables whole-byte batch fetching). The Toeplitz extractor is
/// fixed-rate at block granularity: its 64-bit emissions divide the
/// block exactly because block sizes are validated to a multiple of 8
/// bytes. Every block therefore ends on an output boundary, and an
/// alarm resets the conditioner, so no raw bits carry across blocks.
#[derive(Debug, Clone)]
enum FixedRate {
    Xor(XorCompressor),
    Raw,
    Toeplitz(ToeplitzExtractor),
}

impl Conditioner {
    /// `shard_seed` derives the per-shard Toeplitz matrix lane; the
    /// other modes ignore it.
    fn new(mode: Conditioning, native_rate: u32, shard_seed: u64) -> Self {
        let fixed = match mode {
            Conditioning::DesignXor => FixedRate::Xor(XorCompressor::new(native_rate)),
            Conditioning::Xor(np) => FixedRate::Xor(XorCompressor::new(np)),
            Conditioning::VonNeumann => return Conditioner::VonNeumann(VonNeumann::new()),
            Conditioning::Raw => FixedRate::Raw,
            Conditioning::Toeplitz { ratio, seed } => FixedRate::Toeplitz(
                ToeplitzExtractor::from_seed(64, ratio as usize * 64, mix_seed(seed, shard_seed)),
            ),
        };
        Conditioner::FixedRate(fixed)
    }

    fn reset(&mut self) {
        match self {
            Conditioner::FixedRate(FixedRate::Xor(c)) => c.reset(),
            Conditioner::FixedRate(FixedRate::Raw) => {}
            // Drops the partial input window; the seeded matrix is
            // configuration and survives so replay stays pure.
            Conditioner::FixedRate(FixedRate::Toeplitz(t)) => t.reset(),
            Conditioner::VonNeumann(v) => *v = VonNeumann::new(),
        }
    }
}

impl FixedRate {
    /// Conditions the first `nbits` raw bits of `word` (stream-first
    /// bit at bit 63) and appends the output through `packer`.
    fn push_word(&mut self, word: u64, nbits: u32, packer: &mut BitPacker, out: &mut Vec<u8>) {
        match self {
            FixedRate::Raw => packer.push(word, nbits, out),
            FixedRate::Xor(c) => {
                let (bits, n) = c.push_word(word, nbits);
                packer.push(bits, n, out);
            }
            // A Toeplitz emission carries the stream-first output bit
            // `y_0` at word bit 0; reversed, it takes the MSB of the
            // first byte and the block lands as 8 whole bytes.
            FixedRate::Toeplitz(t) => {
                if let Some(y) = t.push_word(word, nbits) {
                    packer.push(y.reverse_bits(), 64, out);
                }
            }
        }
    }

    /// Raw bits per output bit.
    fn rate(&self) -> u64 {
        match self {
            FixedRate::Xor(c) => u64::from(c.rate()),
            FixedRate::Raw => 1,
            FixedRate::Toeplitz(t) => (t.input_block_bits() / t.output_block_bits()) as u64,
        }
    }

    /// Raw bits already absorbed toward the next output; zero between
    /// blocks.
    fn pending_raw_bits(&self) -> u64 {
        match self {
            FixedRate::Xor(c) => u64::from(c.pending()),
            FixedRate::Raw => 0,
            FixedRate::Toeplitz(t) => t.pending_input_bits() as u64,
        }
    }
}

/// Assembles conditioned output bits into bytes, MSB-first, a word at
/// a time.
#[derive(Debug, Default)]
struct BitPacker {
    /// Pending output bits, first at bit 63.
    acc: u64,
    len: u32,
}

impl BitPacker {
    /// Appends the top `n` bits of `bits` (the rest zero), writing
    /// out each completed 64-bit word.
    fn push(&mut self, bits: u64, n: u32, out: &mut Vec<u8>) {
        let free = 64 - self.len;
        self.acc |= bits.checked_shr(self.len).unwrap_or(0);
        if n < free {
            self.len += n;
            return;
        }
        out.extend_from_slice(&self.acc.to_be_bytes());
        self.acc = bits.checked_shl(free).unwrap_or(0);
        self.len = n - free;
    }

    /// Writes out the whole bytes still pending; a fixed-rate block
    /// always ends on a byte boundary.
    fn finish(&mut self, out: &mut Vec<u8>) {
        debug_assert_eq!(self.len % 8, 0);
        out.extend_from_slice(&self.acc.to_be_bytes()[..(self.len / 8) as usize]);
        *self = BitPacker::default();
    }
}

/// Fixed-rate conditioning (XOR / raw / Toeplitz): the block consumes
/// exactly `block_bytes · 8 · rate` raw bits, so they are drawn
/// through the batch API in chunks of up to 64 bytes and handled as
/// `u64` words. Each chunk passes the health gate in full, word by
/// word in stream order, before any of it enters the conditioner,
/// which copies raw words, folds XOR groups or hashes Toeplitz blocks
/// a word at a time. The per-bit [`OnlineHealth::push`] stays the
/// oracle the word gate is differentially tested against. Returns
/// `false` on an alarm.
fn produce_fixed_rate(
    conditioner: &mut FixedRate,
    source: &mut dyn EntropySource,
    health: &mut OnlineHealth,
    out: &mut Vec<u8>,
    block_bytes: usize,
) -> bool {
    debug_assert_eq!(conditioner.pending_raw_bits(), 0);
    let mut chunk = [0u8; 64];
    let mut words = [0u64; 8];
    let mut packer = BitPacker::default();
    let mut remaining = block_bytes * conditioner.rate() as usize;
    while remaining > 0 {
        let nbytes = remaining.min(chunk.len());
        source.fill_raw(&mut chunk[..nbytes]);
        for (word, part) in words.iter_mut().zip(chunk[..nbytes].chunks(8)) {
            let mut be = [0u8; 8];
            be[..part.len()].copy_from_slice(part);
            *word = u64::from_be_bytes(be);
        }
        let nwords = nbytes.div_ceil(8);
        let width = |i: usize| ((nbytes - 8 * i).min(8) * 8) as u32;
        for (i, &word) in words[..nwords].iter().enumerate() {
            if health.push_word(word, width(i)).is_some() {
                return false;
            }
        }
        for (i, &word) in words[..nwords].iter().enumerate() {
            conditioner.push_word(word, width(i), &mut packer, out);
        }
        remaining -= nbytes;
    }
    packer.finish(out);
    debug_assert_eq!(out.len(), block_bytes);
    true
}

/// Variable-rate conditioning (Von Neumann): consumption is
/// data-dependent, so bits are drawn, gated and conditioned one at a
/// time until the block fills or the raw-spend bound trips (a
/// health-passing source that still starves the extractor, as
/// adversarial patterns can, is itself an entropy failure). The bound
/// is 64 times the fair-source expectation of 4 raw bits per output
/// bit. Returns `false` on an alarm.
fn produce_von_neumann(
    vn: &mut VonNeumann,
    source: &mut dyn EntropySource,
    health: &mut OnlineHealth,
    out: &mut Vec<u8>,
    block_bytes: usize,
) -> bool {
    let max_raw = (block_bytes as u64 * 8).saturating_mul(4 * 64);
    let mut raw_spent = 0u64;
    let (mut byte, mut nbits) = (0u8, 0u32);
    while out.len() < block_bytes {
        let raw = source.next_raw_bit();
        raw_spent += 1;
        if raw_spent > max_raw || health.push(raw) == HealthStatus::Alarm {
            return false;
        }
        if let Some(bit) = vn.push(raw) {
            byte = byte << 1 | u8::from(bit);
            nbits += 1;
            if nbits == 8 {
                out.push(byte);
                (byte, nbits) = (0, 0);
            }
        }
    }
    true
}

/// Deterministic mid-stream fault injection for tests and drills: once
/// shard `shard` has produced `after_bytes` healthy bytes, its source
/// is swapped per `fault`.
#[derive(Debug, Clone)]
pub struct FaultInjection {
    /// Index of the shard to sabotage.
    pub shard: usize,
    /// Healthy bytes the shard must produce before the fault fires.
    pub after_bytes: u64,
    /// The fault to apply.
    pub fault: ShardFault,
    /// `true` models a transient disturbance: when the quarantined
    /// shard is rebuilt for its re-admission attempt the fault is
    /// gone, so the startup test passes and the shard rejoins.
    /// `false` models a persistent fault: the rebuilt shard still
    /// carries it, fails re-admission and is retired.
    pub transient: bool,
}

#[derive(Debug, Clone)]
struct PendingFault {
    after_bytes: u64,
    fault: ShardFault,
    transient: bool,
    applied: bool,
}

/// A single pooled entropy source with its health gate.
#[derive(Debug)]
pub(crate) struct Shard {
    id: usize,
    source: Box<dyn EntropySource>,
    /// The backend's natural XOR rate, frozen at construction so the
    /// startup compressor and `DesignXor` conditioning agree.
    native_rate: u32,
    /// The configured conditioning mode, kept for label re-publication
    /// after fault rebuilds.
    conditioning: Conditioning,
    health: OnlineHealth,
    conditioner: Conditioner,
    state: ShardState,
    alarms: u64,
    max_readmissions: u32,
    /// Scheduled faults for this shard (pre-filtered by the pool),
    /// in submission order.
    faults: Vec<PendingFault>,
    /// Index into `faults` of the fault currently corrupting the live
    /// instance, if any.
    active_fault: Option<usize>,
    bytes_produced: u64,
    shared: Arc<ShardShared>,
    journal: Arc<Journal>,
    /// Online jitter monitor, if enabled. Draws from its own rng lane
    /// derived from the shard seed, so enabling it never changes the
    /// shard's byte stream. Only observes backends that expose a
    /// carry-chain [`monitor_view`](EntropySource::monitor_view).
    monitor: Option<JitterMonitor>,
}

impl Shard {
    /// Wraps shard `id`'s built entropy source in the lifecycle
    /// machine, with the conditioning, alarm budget, faults and monitor
    /// of `recipe`. The shard seed only derives the Toeplitz matrix and
    /// the jitter monitor's rng lane — the source itself was seeded by
    /// whoever built it.
    pub fn new(
        id: usize,
        source: Box<dyn EntropySource>,
        recipe: &ShardRecipe,
        shared: Arc<ShardShared>,
        journal: Arc<Journal>,
    ) -> Self {
        let seed = recipe.shard_seed(id);
        let conditioning = recipe.conditioning;
        let native_rate = source.native_xor_rate();
        let claim = source.claimed_min_entropy();
        let conditioner = Conditioner::new(conditioning, native_rate, seed);
        let monitor = recipe
            .monitor
            .clone()
            .map(|m| JitterMonitor::new(m, SimRng::seed_from(mix_seed(seed, 0x4_D017))));
        shared.set_state(ShardState::Starting);
        shared.set_source(source.kind(), claim, source.noise_backend());
        shared.set_conditioning(conditioning.encode_label());
        Shard {
            id,
            source,
            conditioning,
            native_rate,
            health: OnlineHealth::new(claim),
            conditioner,
            state: ShardState::Starting,
            alarms: 0,
            max_readmissions: recipe.max_readmissions,
            faults: recipe
                .faults
                .iter()
                .filter(|f| f.shard == id)
                .map(|f| PendingFault {
                    after_bytes: f.after_bytes,
                    fault: f.fault.clone(),
                    transient: f.transient,
                    applied: false,
                })
                .collect(),
            active_fault: None,
            bytes_produced: 0,
            shared,
            journal,
            monitor,
        }
    }

    pub fn state(&self) -> ShardState {
        self.state
    }

    fn set_state(&mut self, s: ShardState) {
        self.state = s;
        self.shared.set_state(s);
    }

    fn publish_progress(&self) {
        self.shared.set_sim_ns(self.source.sim_now_ns());
        self.shared.set_raw_bits(self.source.raw_bits());
    }

    /// Re-publishes the source and conditioning labels after a rebuild
    /// swapped the live instance: the kind, claim and conditioning are
    /// stable across rebuilds, but the active noise backend can change
    /// (e.g. a faulted configuration whose layout the batched engine
    /// refuses falls back to scalar).
    fn publish_source_label(&self) {
        self.shared.set_source(
            self.source.kind(),
            self.source.claimed_min_entropy(),
            self.source.noise_backend(),
        );
        self.shared
            .set_conditioning(self.conditioning.encode_label());
    }

    /// Records a lifecycle incident stamped with the shard's current
    /// simulated time and healthy-byte offset.
    fn journal_event(&self, kind: IncidentKind, detail: u64) {
        self.journal.record(
            self.id,
            kind,
            self.source.sim_now_ns(),
            self.bytes_produced,
            detail,
        );
    }

    /// Advances the lifecycle by one step: an `Online` shard produces
    /// one block, a `Starting` or `Quarantined` one runs its admission
    /// attempt, and a `Retired` one does nothing. Leaves `out` holding
    /// the step's healthy bytes — a clean block of `block_bytes`, or
    /// nothing. Returns `false` only for a retired shard, which has
    /// nothing left to do.
    pub fn step(&mut self, out: &mut Vec<u8>, block_bytes: usize) -> bool {
        match self.state {
            ShardState::Online => {
                self.produce_block(out, block_bytes);
            }
            ShardState::Starting | ShardState::Quarantined => {
                out.clear();
                self.recover();
            }
            ShardState::Retired => {
                out.clear();
                return false;
            }
        }
        true
    }

    /// Drives one admission or re-admission attempt. Call while the
    /// shard is `Starting` or `Quarantined`; transitions to `Online`
    /// or `Retired`.
    fn recover(&mut self) {
        debug_assert!(matches!(
            self.state,
            ShardState::Starting | ShardState::Quarantined
        ));
        // A coherence alarm request that raced this shard into
        // quarantine is stale by the time readmission starts: consume
        // it so the readmitted shard is not immediately re-alarmed.
        self.shared.take_alarm_request();
        if self.state == ShardState::Quarantined {
            // Rebuild the source for a from-scratch validation run. A
            // transient fault is gone after the rebuild; a persistent
            // one follows the shard into its re-admission test.
            let fault = match self.active_fault {
                Some(i) if self.faults[i].transient => {
                    self.active_fault = None;
                    None
                }
                Some(i) => Some(self.faults[i].fault.clone()),
                None => None,
            };
            self.health.reset();
            self.conditioner.reset();
            if self.source.rebuild(fault.as_ref()).is_err() {
                self.set_state(ShardState::Retired);
                self.journal_event(IncidentKind::Retire, 0);
                return;
            }
            self.publish_source_label();
        }
        let was_quarantined = self.state == ShardState::Quarantined;
        let mut compressor = XorCompressor::new(self.native_rate);
        self.shared.count_startup_run();
        let report = run_source_startup(self.source.as_mut(), &mut self.health, &mut compressor);
        self.publish_progress();
        if report.passed() {
            self.conditioner.reset();
            if was_quarantined {
                self.shared.count_readmission();
                self.journal_event(IncidentKind::Readmit, 0);
            }
            self.set_state(ShardState::Online);
        } else {
            self.set_state(ShardState::Retired);
            self.journal_event(IncidentKind::Retire, u64::from(report.failure_mask()));
        }
    }

    /// Takes the shard out of service after its worker panicked:
    /// `Retired`, journaled with [`RETIRE_WORKER_PANIC`] and stamped
    /// with the progress it last published, so nothing is asked of the
    /// source that may have panicked.
    pub fn retire_after_panic(&mut self) {
        self.set_state(ShardState::Retired);
        let sim_ns = self.shared.snapshot(self.id).sim_elapsed.as_nanos() as u64;
        self.journal.record(
            self.id,
            IncidentKind::Retire,
            sim_ns,
            self.bytes_produced,
            RETIRE_WORKER_PANIC,
        );
    }

    fn raise_alarm(&mut self) {
        self.alarms += 1;
        self.shared.count_alarm();
        self.conditioner.reset();
        self.publish_progress();
        self.journal_event(IncidentKind::Alarm, self.alarms);
        if self.alarms > u64::from(self.max_readmissions) {
            self.set_state(ShardState::Retired);
            self.journal_event(IncidentKind::Retire, 0);
        } else {
            self.set_state(ShardState::Quarantined);
            self.journal_event(IncidentKind::Quarantine, 0);
        }
    }

    /// Produces one block of `block_bytes` conditioned bytes into
    /// `out` (cleared first). Returns `true` on a clean block; on any
    /// continuous-test alarm the whole block is discarded, the shard
    /// transitions per the lifecycle rules and `false` is returned.
    fn produce_block(&mut self, out: &mut Vec<u8>, block_bytes: usize) -> bool {
        debug_assert_eq!(self.state, ShardState::Online);
        out.clear();
        // An externally requested alarm (coherence-detector escalation
        // under `AlarmAll`) pre-empts production: the shard takes its
        // normal alarm path so quarantine and readmission work as for
        // any continuous-test trip.
        if self.shared.take_alarm_request() {
            self.raise_alarm();
            return false;
        }
        // Apply the earliest-scheduled ripe fault, if any. A ripe fault
        // supersedes an already-active one — campaign phases escalate
        // without waiting for a quarantine to clear the predecessor —
        // but a fault whose offset passed while a *noisier* fault was
        // corrupting the instance fires only after a transient
        // predecessor clears at re-admission (its offset is measured in
        // healthy bytes, which the corrupted stretch did not add to).
        let ripe = self
            .faults
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.applied && self.bytes_produced >= f.after_bytes)
            .min_by_key(|(_, f)| f.after_bytes)
            .map(|(i, _)| i);
        if let Some(i) = ripe {
            let fault = self.faults[i].fault.clone();
            // A mid-stream fault does not reset the health gate:
            // the attack hits a running, trusted source and the
            // continuous tests must catch it. A backend that cannot
            // express the requested fault rejects it, which burns an
            // alarm here — a drill targeting the wrong source kind is
            // itself an operational incident, not a silent no-op.
            if self.source.rebuild(Some(&fault)).is_err() {
                self.raise_alarm();
                return false;
            }
            self.faults[i].applied = true;
            self.active_fault = Some(i);
            self.publish_source_label();
        }
        let (source, health) = (self.source.as_mut(), &mut self.health);
        let clean = match &mut self.conditioner {
            Conditioner::FixedRate(c) => produce_fixed_rate(c, source, health, out, block_bytes),
            Conditioner::VonNeumann(v) => produce_von_neumann(v, source, health, out, block_bytes),
        };
        if !clean {
            out.clear();
            self.raise_alarm();
            return false;
        }
        // End-of-block total-failure check on the raw capture quality.
        let stats = self.source.capture_stats();
        if self
            .health
            .report_missed_edges(stats.missed_edges, stats.samples)
            == HealthStatus::Alarm
        {
            out.clear();
            self.raise_alarm();
            return false;
        }
        self.bytes_produced += out.len() as u64;
        self.shared.add_bytes(out.len() as u64);
        self.publish_progress();
        self.run_monitor();
        true
    }

    /// Runs the online jitter monitor if one is configured, an
    /// observation is due and the backend exposes a carry-chain view
    /// to measure. A drift rising edge is journaled as
    /// [`IncidentKind::JitterDrift`]; the shard's lifecycle state is
    /// never touched — the monitor warns, the health gates act.
    fn run_monitor(&mut self) {
        let due = self
            .monitor
            .as_ref()
            .is_some_and(|m| m.due(self.bytes_produced));
        if !due {
            return;
        }
        let observed = {
            let Some((config, now)) = self.source.monitor_view() else {
                return;
            };
            let monitor = self.monitor.as_mut().expect("due implies present");
            monitor.observe(config, now)
        };
        let Some(obs) = observed else { return };
        self.shared.record_monitor(obs.jitter_fs, obs.baseline_fs);
        if let Some(ppm) = obs.period_residual_ppm {
            self.shared.residuals().push(ppm);
        }
        if let Some(drift) = obs.drift {
            self.shared.count_monitor_drift();
            self.journal_event(IncidentKind::JitterDrift, drift.encode());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{build_source, PoolConfig};
    use crate::testing::{dead_config, dead_fault};
    use trng_core::trng::TrngConfig;
    use trng_sources::CarryChainSource;

    fn shared() -> Arc<ShardShared> {
        Arc::new(ShardShared::default())
    }

    fn journal() -> Arc<Journal> {
        Arc::new(Journal::new(64))
    }

    fn src(config: TrngConfig, seed: u64) -> Box<dyn EntropySource> {
        Box::new(CarryChainSource::new(config, seed).expect("build"))
    }

    /// A one-shard pool configuration conditioning with `conditioning`.
    fn pool(conditioning: Conditioning) -> PoolConfig {
        PoolConfig::new(TrngConfig::paper_k1(), 1).with_conditioning(conditioning)
    }

    /// Shard 0 of a pool built from `config`, running on `source`.
    fn start(
        source: Box<dyn EntropySource>,
        config: PoolConfig,
        shared: &Arc<ShardShared>,
        journal: &Arc<Journal>,
    ) -> Shard {
        let recipe = ShardRecipe::new(&config, build_source);
        Shard::new(0, source, &recipe, Arc::clone(shared), Arc::clone(journal))
    }

    #[test]
    fn healthy_shard_comes_online_and_produces() {
        let s = shared();
        let mut shard = start(
            src(TrngConfig::paper_k1(), 42),
            pool(Conditioning::DesignXor),
            &s,
            &journal(),
        );
        assert_eq!(shard.state(), ShardState::Starting);
        shard.recover();
        assert_eq!(shard.state(), ShardState::Online);
        let mut block = Vec::new();
        assert!(shard.produce_block(&mut block, 64));
        assert_eq!(block.len(), 64);
        let snap = s.snapshot(0);
        assert_eq!(snap.state, ShardState::Online);
        assert_eq!(snap.bytes_produced, 64);
        assert_eq!(snap.startup_runs, 1);
        assert_eq!(snap.alarms, 0);
        assert!(snap.sim_elapsed.as_nanos() > 0);
        assert_eq!(snap.source, trng_sources::SourceKind::CarryChain);
        assert!(snap.claimed_min_entropy > 0.0);
    }

    #[test]
    fn dead_source_is_retired_at_admission() {
        let s = shared();
        let j = journal();
        let mut shard = start(src(dead_config(), 7), pool(Conditioning::Raw), &s, &j);
        shard.recover();
        assert_eq!(shard.state(), ShardState::Retired);
        assert_eq!(s.snapshot(0).startup_runs, 1);
        // The failed admission lands in the journal with the failing
        // startup checks encoded in `detail`.
        let (events, _) = j.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, IncidentKind::Retire);
        assert_ne!(events[0].detail, 0, "failure mask must name a check");
    }

    #[test]
    fn transient_fault_quarantines_then_readmits() {
        let s = shared();
        let j = journal();
        let fault = dead_fault(0, 128, true);
        let mut shard = start(
            src(TrngConfig::paper_k1(), 42),
            pool(Conditioning::DesignXor).with_fault(fault),
            &s,
            &j,
        );
        shard.recover();
        assert_eq!(shard.state(), ShardState::Online);
        let mut block = Vec::new();
        let mut clean_bytes = 0u64;
        let mut alarmed = false;
        for _ in 0..64 {
            if shard.produce_block(&mut block, 64) {
                clean_bytes += block.len() as u64;
            } else {
                assert!(block.is_empty(), "alarmed block must be discarded");
                alarmed = true;
                break;
            }
        }
        assert!(alarmed, "fault never tripped the continuous tests");
        assert_eq!(shard.state(), ShardState::Quarantined);
        // The fault fired only after the promised clean run-up.
        assert!(clean_bytes >= 128, "clean bytes {clean_bytes}");
        // Re-admission: the transient fault is gone after the rebuild.
        shard.recover();
        assert_eq!(shard.state(), ShardState::Online);
        assert!(shard.produce_block(&mut block, 64));
        let snap = s.snapshot(0);
        assert_eq!(snap.alarms, 1);
        assert_eq!(snap.readmissions, 1);
        assert_eq!(snap.startup_runs, 2);
        // Journal tells the full story: alarm, quarantine, readmit.
        let kinds: Vec<_> = j.snapshot().0.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                IncidentKind::Alarm,
                IncidentKind::Quarantine,
                IncidentKind::Readmit,
            ]
        );
        let (events, _) = j.snapshot();
        assert!(
            events[0].at_bytes >= 128,
            "alarm stamped before the promised clean run-up"
        );
        assert!(events[0].sim_ns > 0);
    }

    #[test]
    fn persistent_fault_retires_at_readmission() {
        let s = shared();
        let fault = dead_fault(0, 0, false);
        let j = journal();
        let mut shard = start(
            src(TrngConfig::paper_k1(), 42),
            pool(Conditioning::DesignXor).with_fault(fault),
            &s,
            &j,
        );
        shard.recover();
        assert_eq!(shard.state(), ShardState::Online);
        let mut block = Vec::new();
        assert!(!shard.produce_block(&mut block, 64), "fault must alarm");
        assert_eq!(shard.state(), ShardState::Quarantined);
        shard.recover();
        assert_eq!(shard.state(), ShardState::Retired);
        let snap = s.snapshot(0);
        assert_eq!(snap.alarms, 1);
        assert_eq!(snap.readmissions, 0);
        assert_eq!(snap.startup_runs, 2);
        let kinds: Vec<_> = j.snapshot().0.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                IncidentKind::Alarm,
                IncidentKind::Quarantine,
                IncidentKind::Retire,
            ]
        );
    }

    #[test]
    fn alarm_budget_exhaustion_retires_without_retest() {
        let s = shared();
        let fault = dead_fault(0, 0, false);
        // Zero re-admissions allowed: first alarm retires outright.
        let mut shard = start(
            src(TrngConfig::paper_k1(), 42),
            pool(Conditioning::DesignXor)
                .with_fault(fault)
                .with_max_readmissions(0),
            &s,
            &journal(),
        );
        shard.recover();
        let mut block = Vec::new();
        assert!(!shard.produce_block(&mut block, 64));
        assert_eq!(shard.state(), ShardState::Retired);
    }

    #[test]
    fn fault_schedule_fires_each_fault_in_byte_order() {
        // Two transient faults on one shard: each trips the continuous
        // tests, quarantines, clears at re-admission, and the next one
        // fires at its own offset.
        let s = shared();
        let j = journal();
        let mk_fault = |after_bytes| dead_fault(0, after_bytes, true);
        let mut shard = start(
            src(TrngConfig::paper_k1(), 42),
            pool(Conditioning::DesignXor)
                .with_faults(vec![mk_fault(256), mk_fault(0)])
                .with_max_readmissions(4),
            &s,
            &j,
        );
        shard.recover();
        let mut block = Vec::new();
        let mut alarms_seen = 0;
        while alarms_seen < 2 {
            match shard.state() {
                ShardState::Online => {
                    if !shard.produce_block(&mut block, 64) {
                        alarms_seen += 1;
                    }
                }
                ShardState::Quarantined => shard.recover(),
                other => panic!("unexpected state {other}"),
            }
        }
        shard.recover();
        assert_eq!(shard.state(), ShardState::Online);
        let snap = s.snapshot(0);
        assert_eq!(snap.alarms, 2);
        assert_eq!(snap.readmissions, 2);
        // The out-of-order schedule still fires lowest offset first:
        // first alarm before 256 clean bytes, second after.
        let (events, _) = j.snapshot();
        let alarms: Vec<_> = events
            .iter()
            .filter(|e| e.kind == IncidentKind::Alarm)
            .collect();
        assert_eq!(alarms.len(), 2);
        assert!(alarms[0].at_bytes < 256);
        assert!(alarms[1].at_bytes >= 256);
    }

    #[test]
    fn conditioning_rates_differ() {
        // Raw packs every raw bit; DesignXor consumes np per bit.
        let mk = |mode| {
            let s = shared();
            let mut shard = start(src(TrngConfig::paper_k1(), 9), pool(mode), &s, &journal());
            shard.recover();
            assert_eq!(shard.state(), ShardState::Online);
            let mut block = Vec::new();
            assert!(shard.produce_block(&mut block, 32));
            s.snapshot(0).raw_bits
        };
        let raw = mk(Conditioning::Raw);
        let xor = mk(Conditioning::DesignXor);
        // Both include the 14336-raw-bit startup; the xor run then
        // needs 7x the raw bits of the raw run for its 32 bytes.
        assert_eq!(xor - raw, 32 * 8 * 6);
        let vn = mk(Conditioning::VonNeumann);
        assert!(vn > raw, "Von Neumann discards pairs");
    }

    #[test]
    fn unsupported_fault_burns_an_alarm_not_a_silent_pass() {
        // A trace-replay backend cannot express a Config fault; the
        // drill degrades to an alarm so the schedule is never silently
        // dropped.
        let trace = std::sync::Arc::new(
            trng_sources::RecordedTrace::record(&TrngConfig::paper_k1(), 3, 2048).expect("capture"),
        );
        let s = shared();
        let fault = dead_fault(0, 0, true);
        let mut shard = start(
            Box::new(trng_sources::TraceReplaySource::new(trace).expect("valid")),
            pool(Conditioning::Raw).with_fault(fault),
            &s,
            &journal(),
        );
        shard.recover();
        assert_eq!(shard.state(), ShardState::Online);
        let mut block = Vec::new();
        assert!(!shard.produce_block(&mut block, 32));
        assert_eq!(shard.state(), ShardState::Quarantined);
        assert_eq!(s.snapshot(0).alarms, 1);
    }

    #[test]
    fn mix_seed_separates_lanes() {
        assert_ne!(mix_seed(0, 0), mix_seed(0, 1));
        assert_ne!(mix_seed(0, 1), mix_seed(1, 0));
        assert_eq!(mix_seed(5, 9), mix_seed(5, 9));
    }
}
