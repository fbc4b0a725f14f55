//! # trng-pool — sharded, health-gated entropy service layer
//!
//! Production consumers of the carry-chain TRNG (the DAC'15 design
//! reproduced by this workspace) need more than a single simulated
//! instance: they need aggregate throughput, failure isolation, and a
//! hard guarantee that a failing source degrades *availability*, never
//! output *quality*. This crate provides that layer:
//!
//! * An [`EntropyPool`] runs N shards, each an
//!   [`EntropySource`](trng_sources::EntropySource) backend wrapped in
//!   its own SP 800-90B continuous-health gate parameterised by the
//!   backend's declared min-entropy claim. The default backend is the
//!   paper's [`CarryChainTrng`] placed on disjoint fabric regions via
//!   [`TrngConfig::for_shard`](trng_core::trng::TrngConfig::for_shard);
//!   [`PoolConfig::with_sources`] mixes in dual-oscillator samplers,
//!   recorded-trace replay, and the OS entropy pool per shard
//!   ([`SourceSpec`]).
//! * A shard must pass the AIS-31-style start-up self-test before it
//!   contributes a single byte; a continuous-test alarm quarantines it,
//!   discards its in-flight block, and forces a fresh start-up test
//!   before re-admission. Shards that fail re-admission, or exhaust
//!   their alarm budget, are retired.
//! * Healthy conditioned bytes flow through bounded lock-free
//!   single-producer/single-consumer rings ([`ring`]) with
//!   backpressure; consumers block in
//!   [`fill_bytes`](EntropyPool::fill_bytes) or bound their wait with
//!   [`try_fill_bytes`](EntropyPool::try_fill_bytes).
//! * Total source failure surfaces as
//!   [`PoolError::SourcesExhausted`] — a typed error, never silently
//!   biased bytes.
//! * [`PoolConfig::deterministic`] selects a single-threaded replay
//!   backend whose byte stream and [`PoolStats`] are a pure function of
//!   the configuration and seed, including scripted shard failures via
//!   [`FaultInjection`].
//! * With a [`RespawnPolicy`], the pool is *self-healing*: when
//!   retirements drop the online count below the policy's floor, a
//!   supervisor spawns a replacement shard on a fresh disjoint fabric
//!   placement. Replacements pass the same start-up gate before
//!   contributing, respawn storms are bounded by budget and backoff,
//!   and every lifecycle transition lands in a bounded lock-free
//!   incident [`journal`] that [`PoolStats`] snapshots for after-the-
//!   fact audit.
//! * [`PoolHandle`] ([`EntropyPool::into_shared`]) is a cheaply
//!   clonable, thread-safe handle serializing many consumers onto one
//!   pool — the request interface a network serving layer (such as
//!   `trng-serve`) dispatches its connections through. [`PoolStats`]
//!   additionally renders as JSON ([`PoolStats::to_json`]) with a
//!   coarse [`PoolHealth`] classification for metrics endpoints.
//!
//! ```
//! use std::time::Duration;
//! use trng_core::trng::TrngConfig;
//! use trng_pool::{Conditioning, EntropyPool, PoolConfig};
//!
//! let config = PoolConfig::new(TrngConfig::paper_k1(), 2)
//!     .with_conditioning(Conditioning::DesignXor)
//!     .deterministic(true);
//! let mut pool = EntropyPool::new(config)?;
//! assert_eq!(pool.wait_online(Duration::from_secs(30))?, 2);
//! let mut buf = [0u8; 64];
//! pool.fill_bytes(&mut buf)?;
//! println!("{}", pool.stats());
//! # Ok::<(), trng_pool::PoolError>(())
//! ```
//!
//! [`CarryChainTrng`]: trng_core::trng::CarryChainTrng

#![warn(missing_docs)]

pub mod campaign;
pub mod coherence;
pub mod handle;
pub mod journal;
pub mod monitor;
pub mod pool;
pub mod ring;
pub mod shard;
pub mod stats;
pub mod testing;

pub use campaign::{compile_campaign, compile_common_mode, onset_bytes};
pub use coherence::{
    decode_coherence_detail, goertzel_magnitude, CoherenceConfig, CoherenceResponse, CoherenceStats,
};
pub use handle::PoolHandle;
pub use journal::{IncidentEvent, IncidentKind, Journal, ProbeCode, RETIRE_WORKER_PANIC};
pub use monitor::{DriftProbe, MonitorConfig};
pub use pool::{ComposedExtract, EntropyPool, PoolConfig, PoolError, RespawnPolicy, SourceSpec};
pub use shard::{Conditioning, FaultInjection, ShardFault};
pub use stats::{ComposedStats, PoolHealth, PoolStats, ShardOrigin, ShardState, ShardStats};
// The extractor-sizing calculators, re-exported so pool consumers
// size `Conditioning::Toeplitz` / [`ComposedExtract`] ratios without
// naming `trng-extract` themselves.
pub use trng_extract::{
    extracted_min_entropy_per_bit, leftover_hash_output_bits, leftover_hash_ratio,
};
// Source-building vocabulary re-exported so pool consumers configure
// heterogeneous mixes without naming `trng-sources` themselves.
pub use trng_sources::{DualOscConfig, RecordedTrace, SourceError, SourceKind};
// The noise-engine label every shard publishes, re-exported for the
// same reason.
pub use trng_fpga_sim::noise::NoiseBackend;
