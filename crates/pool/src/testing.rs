//! Shared fixtures for this workspace's tests and benches: the
//! scripted dead-source configuration and the delivered-stream checks
//! every soak applies.
//!
//! Nothing in the pool itself calls these; they live here so the soaks
//! (`tests/*_soak.rs`, `tests/serve_e2e.rs`), the unit tests and the
//! benches share one definition instead of a copy each.

use trng_core::health::{HealthStatus, OnlineHealth};
use trng_core::trng::TrngConfig;
use trng_model::params::{DesignParams, PlatformParams};

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
