//! The [`EntropySource`] contract: what a shard backend must provide
//! for the pool's health gates, conditioning, replay and elastic
//! supervision to run unchanged on top of it.
//!
//! The trait is object-safe on purpose — a pool holds
//! `Box<dyn EntropySource>` per shard so one pool mixes heterogeneous
//! backends. The contract has four obligations:
//!
//! 1. **Raw bits.** [`next_raw_bit`](EntropySource::next_raw_bit) /
//!    [`fill_raw`](EntropySource::fill_raw) yield the *unconditioned*
//!    stream, MSB-first when packed. Batching must never change the
//!    stream position (fetch granularity, not semantics).
//! 2. **Entropy claim.**
//!    [`claimed_min_entropy`](EntropySource::claimed_min_entropy) is
//!    the backend's worst-case min-entropy per raw bit in `(0, 1]`,
//!    already derated for non-i.i.d. structure. It parameterizes the
//!    SP 800-90B continuous tests and is published per shard.
//! 3. **Replay.** Identical construction inputs yield identical raw
//!    streams, and [`rebuild`](EntropySource::rebuild) derives each
//!    successive instance deterministically (a fresh seed lane per
//!    rebuild) while banking elapsed simulated time and raw-bit
//!    counts so lifetime totals stay monotonic.
//! 4. **Fault hook.** [`rebuild`](EntropySource::rebuild) with
//!    `Some(fault)` swaps the live instance for a sabotaged one
//!    *without* resetting any health state the caller holds; a fault
//!    shape the backend cannot express is a typed
//!    [`SourceError::UnsupportedFault`], which the pool surfaces
//!    through its alarm/retire lifecycle.

use core::fmt;
use std::error::Error;

use trng_core::health::OnlineHealth;
use trng_core::postprocess::XorCompressor;
use trng_core::selftest::{run_startup, StartupReport, StartupSource};
use trng_core::trng::{BuildTrngError, TrngConfig};
use trng_fpga_sim::noise::{AttackInjection, NoiseBackend};
use trng_fpga_sim::scenario::NoiseEnvironment;
use trng_fpga_sim::time::Ps;
use trng_model::params::ParamError;

/// Deterministically derives a per-shard / per-rebuild / per-lane
/// simulation seed (splitmix-style avalanche over both inputs).
pub fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which backend family a source belongs to — the per-source label on
/// pool statistics and serve metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// The DAC'15 carry-chain TDC simulator.
    CarryChain,
    /// Slow ring oscillators sampled on a divided fast-RO clock.
    DualOscillator,
    /// A recorded trace replayed through the live stack.
    TraceReplay,
    /// The operating system's entropy pool.
    OsEntropy,
}

impl SourceKind {
    /// Stable metrics label (also the CLI spelling).
    pub fn as_str(self) -> &'static str {
        match self {
            SourceKind::CarryChain => "carry_chain",
            SourceKind::DualOscillator => "dual_osc",
            SourceKind::TraceReplay => "trace_replay",
            SourceKind::OsEntropy => "os_entropy",
        }
    }

    /// Compact encoding for lock-free publication.
    pub fn as_u8(self) -> u8 {
        match self {
            SourceKind::CarryChain => 0,
            SourceKind::DualOscillator => 1,
            SourceKind::TraceReplay => 2,
            SourceKind::OsEntropy => 3,
        }
    }

    /// Inverse of [`SourceKind::as_u8`] (unknown values decode as the
    /// carry chain, the historical default).
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => SourceKind::DualOscillator,
            2 => SourceKind::TraceReplay,
            3 => SourceKind::OsEntropy,
            _ => SourceKind::CarryChain,
        }
    }

    /// Every kind, in `as_u8` order (for per-kind aggregation).
    pub fn all() -> [SourceKind; 4] {
        [
            SourceKind::CarryChain,
            SourceKind::DualOscillator,
            SourceKind::TraceReplay,
            SourceKind::OsEntropy,
        ]
    }
}

impl fmt::Display for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How an injected fault replaces a source's live instance.
#[derive(Debug, Clone)]
pub enum SourceFault {
    /// Keep the configuration but enable this attack on the noise
    /// input (the simulator's manipulative-influence hook).
    Attack(AttackInjection),
    /// Replace the carry-chain configuration outright — e.g. an
    /// attacked *and* drift-frozen design whose entropy collapse is
    /// guaranteed to be visible to the continuous tests. Only the
    /// carry-chain backend can express this shape.
    Config(Box<TrngConfig>),
    /// Apply a scenario [`NoiseEnvironment`] over the base
    /// configuration — the campaign compiler's fault shape. Unlike
    /// [`SourceFault::Attack`], an environment can also modulate
    /// global conditions, flicker and the white-sigma budget.
    Env(NoiseEnvironment),
    /// Freeze the output: every subsequent raw bit reads 0 and the
    /// source's clock stops, modelling a latched-up or disconnected
    /// generator. Supported by every backend, so per-backend
    /// quarantine/readmission drills do not depend on simulator
    /// internals.
    Stuck,
}

/// Why a source could not be built or rebuilt.
#[derive(Debug, Clone)]
pub enum SourceError {
    /// Constructing the underlying generator failed.
    Build(String),
    /// The requested fault shape is not meaningful for this backend
    /// (e.g. a carry-chain [`SourceFault::Config`] aimed at the OS
    /// pool). The pool turns this into an alarm so the shard walks
    /// the ordinary quarantine/retire lifecycle.
    UnsupportedFault {
        /// The backend that rejected the fault.
        kind: SourceKind,
        /// The rejected fault shape's name.
        fault: &'static str,
    },
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Build(why) => write!(f, "source build failed: {why}"),
            SourceError::UnsupportedFault { kind, fault } => {
                write!(f, "{kind} source does not support {fault} faults")
            }
        }
    }
}

impl Error for SourceError {}

impl From<BuildTrngError> for SourceError {
    fn from(e: BuildTrngError) -> Self {
        SourceError::Build(e.to_string())
    }
}

impl From<ParamError> for SourceError {
    fn from(e: ParamError) -> Self {
        SourceError::Build(e.to_string())
    }
}

/// Capture-quality counters of the *live* instance (since the last
/// rebuild): total samples drawn and how many edges the capture
/// mechanism missed. Backends without a capture mechanism report zero
/// missed edges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// Samples drawn since the last rebuild.
    pub samples: u64,
    /// Edges the capture mechanism missed since the last rebuild.
    pub missed_edges: u64,
}

/// One shard backend: a raw-bit generator with an entropy claim, a
/// deterministic rebuild/replay contract and a fault-injection hook.
/// See the [module docs](self) for the full contract.
pub trait EntropySource: fmt::Debug + Send {
    /// Which backend family this is.
    fn kind(&self) -> SourceKind;

    /// Worst-case min-entropy per raw bit in `(0, 1]`, already derated
    /// for non-i.i.d. structure; parameterizes the continuous tests.
    fn claimed_min_entropy(&self) -> f64;

    /// The backend's natural XOR-compression rate — what
    /// `Conditioning::DesignXor` resolves to, and the rate the AIS-31
    /// startup compressor runs at. 1 for sources whose raw bits are
    /// already near full entropy.
    fn native_xor_rate(&self) -> u32;

    /// Draws the next raw (unconditioned) bit.
    fn next_raw_bit(&mut self) -> bool;

    /// Draws `out.len() * 8` raw bits, packed MSB-first. Batching must
    /// not change the stream position relative to per-bit draws; the
    /// default simply loops [`next_raw_bit`](EntropySource::next_raw_bit).
    fn fill_raw(&mut self, out: &mut [u8]) {
        for byte in out.iter_mut() {
            let mut b = 0u8;
            for _ in 0..8 {
                b = b << 1 | u8::from(self.next_raw_bit());
            }
            *byte = b;
        }
    }

    /// Lifetime raw bits drawn, across rebuilds (monotonic).
    fn raw_bits(&self) -> u64;

    /// Lifetime elapsed source time in nanoseconds, across rebuilds
    /// (monotonic). Simulated backends report their simulation clock;
    /// backends without one report a documented nominal clock.
    fn sim_now_ns(&self) -> u64;

    /// Capture-quality counters of the live instance, for the pool's
    /// end-of-block total-failure check.
    fn capture_stats(&self) -> CaptureStats;

    /// Replaces the live instance: `None` rebuilds the healthy base
    /// (clearing any active fault, next deterministic seed lane),
    /// `Some(fault)` rebuilds a sabotaged instance. Elapsed time and
    /// raw-bit counts of the retired instance are banked so lifetime
    /// totals stay monotonic.
    ///
    /// # Errors
    ///
    /// [`SourceError::Build`] when the replacement cannot be
    /// constructed, [`SourceError::UnsupportedFault`] when the fault
    /// shape is not meaningful for this backend.
    fn rebuild(&mut self, fault: Option<&SourceFault>) -> Result<(), SourceError>;

    /// A view for the carry-chain online jitter monitor: the live
    /// configuration and current simulated time. `None` (the default)
    /// for backends the monitor's differential sigma probe cannot
    /// model; the pool then skips monitoring for that shard.
    fn monitor_view(&self) -> Option<(&TrngConfig, Ps)> {
        None
    }

    /// The noise-synthesis backend the live instance actually runs —
    /// published per shard so operators can tell replay-exact scalar
    /// streams from batched ones. Only the carry chain runs the
    /// batched engine; the dual-oscillator rings draw scalar normals,
    /// and backends without simulated noise (trace replay, the OS
    /// pool) report `Scalar` too.
    fn noise_backend(&self) -> NoiseBackend {
        NoiseBackend::Scalar
    }
}

impl StartupSource for dyn EntropySource + '_ {
    fn next_raw_bit(&mut self) -> bool {
        EntropySource::next_raw_bit(self)
    }

    fn fill_raw(&mut self, out: &mut [u8]) {
        EntropySource::fill_raw(self, out);
    }

    fn capture_counts(&self) -> (u64, u64) {
        let stats = self.capture_stats();
        (stats.samples, stats.missed_edges)
    }
}

/// Runs the AIS-31-style start-up self-test against any
/// [`EntropySource`], gating every raw bit drawn through `health` and
/// compressing with `compressor` — [`trng_core::selftest::run_startup`]
/// on the backend, so every backend admits through the same checks,
/// thresholds and draw order as the bare carry-chain generator (and
/// the carry-chain adapter on exactly the bits the generator would).
pub fn run_source_startup(
    source: &mut dyn EntropySource,
    health: &mut OnlineHealth,
    compressor: &mut XorCompressor,
) -> StartupReport {
    run_startup(source, health, compressor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_separates_lanes() {
        assert_ne!(mix_seed(0, 0), mix_seed(0, 1));
        assert_ne!(mix_seed(0, 1), mix_seed(1, 0));
        assert_eq!(mix_seed(5, 9), mix_seed(5, 9));
    }

    #[test]
    fn kind_round_trips_and_labels() {
        for kind in SourceKind::all() {
            assert_eq!(SourceKind::from_u8(kind.as_u8()), kind);
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert_eq!(SourceKind::from_u8(200), SourceKind::CarryChain);
    }

    #[test]
    fn errors_display_their_cause() {
        let e = SourceError::Build("no carry chain".into());
        assert!(e.to_string().contains("no carry chain"));
        let e = SourceError::UnsupportedFault {
            kind: SourceKind::OsEntropy,
            fault: "config",
        };
        assert!(e.to_string().contains("os_entropy"));
        assert!(e.to_string().contains("config"));
    }
}
