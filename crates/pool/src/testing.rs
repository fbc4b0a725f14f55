//! Shared fixtures for this workspace's tests and benches: the
//! scripted dead-source configuration, a source that panics on cue,
//! and the delivered-stream checks every soak applies.
//!
//! Nothing in the pool itself calls these; they live here so the soaks
//! (`tests/*_soak.rs`, `tests/serve_e2e.rs`), the unit tests and the
//! benches share one definition instead of a copy each.

use trng_core::health::{HealthStatus, OnlineHealth};
use trng_core::trng::TrngConfig;
use trng_fpga_sim::noise::NoiseBackend;
use trng_model::params::{DesignParams, PlatformParams};
use trng_sources::{CaptureStats, EntropySource, SourceError, SourceFault, SourceKind};

use crate::shard::{FaultInjection, ShardFault};

/// Drift-frozen configuration: near-zero LUT jitter and a sampling
/// clock at an exact multiple of the ring period, so the edge position
/// freezes. Start-up reliably fails on it, and a running shard swapped
/// onto it ([`dead_fault`]) reliably trips the continuous tests.
pub fn dead_config() -> TrngConfig {
    let mut config = TrngConfig::ideal();
    config.platform = PlatformParams::new(480.0, 17.0, 0.05).expect("valid platform");
    config.design = DesignParams {
        k: 4,
        n_a: 1,
        np: 1,
        f_clk_hz: (1e12f64 / (21.0 * 480.0)).round() as u64,
        ..DesignParams::paper_k4()
    };
    config
}

/// Swaps shard `shard` onto [`dead_config`] once it has contributed
/// `after_bytes`; `transient` rebuilds the healthy source on
/// re-admission, otherwise the shard stays dead and retires.
pub fn dead_fault(shard: usize, after_bytes: u64, transient: bool) -> FaultInjection {
    FaultInjection {
        shard,
        after_bytes,
        fault: ShardFault::Config(Box::new(dead_config())),
        transient,
    }
}

/// A backend that behaves exactly like `inner` until a draw would take
/// its lifetime raw-bit count past `panic_after`, and then panics: the
/// scripted crash of a shard worker.
#[derive(Debug)]
pub struct PanickingSource {
    inner: Box<dyn EntropySource>,
    panic_after: u64,
}

impl PanickingSource {
    /// Wraps `inner`, arming the panic at `panic_after` raw bits.
    pub fn new(inner: Box<dyn EntropySource>, panic_after: u64) -> Self {
        PanickingSource { inner, panic_after }
    }

    fn draw(&self, bits: u64) {
        if self.inner.raw_bits() + bits > self.panic_after {
            panic!("scripted source panic at {} raw bits", self.panic_after);
        }
    }
}

impl EntropySource for PanickingSource {
    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }

    fn claimed_min_entropy(&self) -> f64 {
        self.inner.claimed_min_entropy()
    }

    fn native_xor_rate(&self) -> u32 {
        self.inner.native_xor_rate()
    }

    fn next_raw_bit(&mut self) -> bool {
        self.draw(1);
        self.inner.next_raw_bit()
    }

    fn fill_raw(&mut self, out: &mut [u8]) {
        self.draw(out.len() as u64 * 8);
        self.inner.fill_raw(out);
    }

    fn raw_bits(&self) -> u64 {
        self.inner.raw_bits()
    }

    fn sim_now_ns(&self) -> u64 {
        self.inner.sim_now_ns()
    }

    fn capture_stats(&self) -> CaptureStats {
        self.inner.capture_stats()
    }

    fn rebuild(&mut self, fault: Option<&SourceFault>) -> Result<(), SourceError> {
        self.inner.rebuild(fault)
    }

    fn noise_backend(&self) -> NoiseBackend {
        self.inner.noise_backend()
    }
}

/// Replays delivered bytes (MSB first) through a fresh continuous-test
/// gate at claim 0.5: if any stretch of the stream carried an injected
/// failure, the tests that guard the shards would alarm here too — the
/// zero-unhealthy-bytes guarantee, checked on the output.
///
/// # Panics
///
/// On the first alarm.
pub fn assert_stream_health_clean(bytes: &[u8]) {
    let mut gate = OnlineHealth::new(0.5);
    for (i, &byte) in bytes.iter().enumerate() {
        for bit in (0..8).rev().map(|k| byte >> k & 1 == 1) {
            assert_eq!(
                gate.push(bit),
                HealthStatus::Ok,
                "delivered stream alarmed the continuous tests at byte {i}"
            );
        }
    }
}

/// Asserts the ones fraction of a conditioned stream lies within
/// 0.5 ± 0.015. Raw packing keeps the source's inherent bias, so only
/// conditioned streams take this check.
///
/// # Panics
///
/// When the stream is biased beyond the band.
pub fn assert_unbiased(bytes: &[u8]) {
    let ones: u64 = bytes.iter().map(|b| u64::from(b.count_ones())).sum();
    let frac = ones as f64 / (bytes.len() as f64 * 8.0);
    assert!(
        (frac - 0.5).abs() < 0.015,
        "delivered stream is biased: ones fraction {frac}"
    );
}

/// Asserts at least 200 of the 256 byte values occur: a stuck or
/// grossly biased source cannot cover the alphabet over a few KiB.
///
/// # Panics
///
/// When fewer than 200 distinct values occur.
pub fn assert_covers_byte_alphabet(bytes: &[u8]) {
    let mut seen = [false; 256];
    for &b in bytes {
        seen[usize::from(b)] = true;
    }
    let distinct = seen.iter().filter(|&&s| s).count();
    assert!(
        distinct >= 200,
        "only {distinct}/256 distinct byte values in {} bytes",
        bytes.len()
    );
}
