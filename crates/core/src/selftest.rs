//! Embedded self-tests — the paper's stated future work ("developing
//! embedded tests for on-the-fly evaluation") as concrete components.
//!
//! AIS-31-class TRNGs gate their output behind two mechanisms:
//!
//! * a **start-up test** executed once after reset, before any bit is
//!   released (here: [`run_startup`], the FIPS 140-2-style quartet
//!   on the first post-processed sample, plus a missed-edge check on
//!   the raw stream);
//! * **continuous online tests** on the raw (pre-conditioning) bits
//!   (here: [`OnlineHealth`] — repetition count + adaptive proportion
//!   at [`claimed_min_entropy`]).
//!
//! The `trng-pool` shards wire both around every entropy source: a
//! shard contributes bytes only after its start-up test passed, and an
//! online alarm quarantines it until a fresh start-up test re-admits it.

use crate::health::{HealthStatus, OnlineHealth};
use crate::postprocess::XorCompressor;
use crate::trng::{CarryChainTrng, TrngConfig};

use core::fmt;
use trng_model::params::ParamError;

/// Number of post-processed bits consumed by the start-up test.
pub const STARTUP_BITS: usize = 2_048;

/// The claimed min-entropy per raw bit used to parameterize the
/// online tests for `config`.
///
/// The claim is the stochastic model's worst-case min-entropy *derated
/// by half*: the raw stream is not i.i.d. — deterministic phase drift
/// and flicker wander produce longer same-bit runs than an i.i.d.
/// source of equal entropy, so thresholds derived straight from the
/// worst-case bound cause percent-level false alarms while embedded
/// tests target `~2^-20` (SP 800-90B). Halving the claim widens the
/// repetition cutoff to cover the drift patterns while still catching
/// order-of-magnitude entropy loss. Floored at 0.05 so heavily biased
/// configurations still get working (if strict) tests.
///
/// # Errors
///
/// Returns [`ParamError`] if the design is inconsistent with the
/// platform.
pub fn claimed_min_entropy(config: &TrngConfig) -> Result<f64, ParamError> {
    let point = trng_model::design_space::evaluate(&config.platform, &config.design)?;
    Ok((point.h_min_raw * 0.5).clamp(0.05, 1.0))
}

/// Detailed outcome of one start-up test run.
///
/// Produced by [`run_startup`]; a source may only go online when
/// [`passed`](StartupReport::passed) holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartupReport {
    /// Ones counted among the [`STARTUP_BITS`] post-processed bits.
    pub ones: usize,
    /// Longest same-bit run in the post-processed sample.
    pub longest_run: usize,
    /// Monobit band held (5.5 sigma for 2048 bits: 1024 ± 125).
    pub monobit_ok: bool,
    /// Longest run stayed below 34 (AIS-31 T4's bound).
    pub long_run_ok: bool,
    /// Missed-edge rate over the startup window stayed below 1 %.
    pub missed_edge_ok: bool,
    /// The continuous online tests saw no alarm during startup.
    pub online_ok: bool,
}

/// Bit set in [`StartupReport::failure_mask`] when the monobit band
/// check failed.
pub const STARTUP_FAIL_MONOBIT: u8 = 1 << 0;
/// Bit set in [`StartupReport::failure_mask`] when the longest-run
/// check failed.
pub const STARTUP_FAIL_LONG_RUN: u8 = 1 << 1;
/// Bit set in [`StartupReport::failure_mask`] when the missed-edge
/// rate check failed.
pub const STARTUP_FAIL_MISSED_EDGE: u8 = 1 << 2;
/// Bit set in [`StartupReport::failure_mask`] when a continuous
/// online test alarmed during the startup run.
pub const STARTUP_FAIL_ONLINE: u8 = 1 << 3;

impl StartupReport {
    /// `true` when every sub-check passed and the source may go online.
    pub fn passed(&self) -> bool {
        self.monobit_ok && self.long_run_ok && self.missed_edge_ok && self.online_ok
    }

    /// Compact bitmask of the failed sub-checks (0 when the report
    /// passed): [`STARTUP_FAIL_MONOBIT`] | [`STARTUP_FAIL_LONG_RUN`] |
    /// [`STARTUP_FAIL_MISSED_EDGE`] | [`STARTUP_FAIL_ONLINE`].
    ///
    /// Multi-instance supervisors (e.g. the `trng-pool` respawn path)
    /// persist this mask in their incident records so an evaluator can
    /// see *which* startup check rejected a retired or respawned
    /// instance, not just that one did.
    pub fn failure_mask(&self) -> u8 {
        let mut mask = 0;
        if !self.monobit_ok {
            mask |= STARTUP_FAIL_MONOBIT;
        }
        if !self.long_run_ok {
            mask |= STARTUP_FAIL_LONG_RUN;
        }
        if !self.missed_edge_ok {
            mask |= STARTUP_FAIL_MISSED_EDGE;
        }
        if !self.online_ok {
            mask |= STARTUP_FAIL_ONLINE;
        }
        mask
    }

    /// Names of the failed sub-checks, in mask-bit order (empty when
    /// the report passed).
    pub fn failed_checks(&self) -> Vec<&'static str> {
        let mask = self.failure_mask();
        [
            (STARTUP_FAIL_MONOBIT, "monobit"),
            (STARTUP_FAIL_LONG_RUN, "long-run"),
            (STARTUP_FAIL_MISSED_EDGE, "missed-edge"),
            (STARTUP_FAIL_ONLINE, "online-alarm"),
        ]
        .into_iter()
        .filter(|(bit, _)| mask & bit != 0)
        .map(|(_, name)| name)
        .collect()
    }
}

impl fmt::Display for StartupReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.passed() {
            write!(
                f,
                "startup passed ({} ones, longest run {})",
                self.ones, self.longest_run
            )
        } else {
            write!(
                f,
                "startup failed [{}] ({} ones, longest run {})",
                self.failed_checks().join(", "),
                self.ones,
                self.longest_run
            )
        }
    }
}

/// A raw bit stream the start-up test can draw from: the carry-chain
/// generator itself, or any pool backend (`trng-sources` implements it
/// for every `EntropySource`).
pub trait StartupSource {
    /// Draws the next raw bit.
    fn next_raw_bit(&mut self) -> bool;

    /// Draws `out.len() * 8` raw bits, packed MSB-first, leaving the
    /// stream where as many [`next_raw_bit`](Self::next_raw_bit) calls
    /// would.
    fn fill_raw(&mut self, out: &mut [u8]);

    /// Samples drawn and edges the capture mechanism missed so far, as
    /// `(samples, missed_edges)`; only their change across the test is
    /// read.
    fn capture_counts(&self) -> (u64, u64);
}

impl StartupSource for CarryChainTrng {
    fn next_raw_bit(&mut self) -> bool {
        CarryChainTrng::next_raw_bit(self)
    }

    fn fill_raw(&mut self, out: &mut [u8]) {
        CarryChainTrng::fill_raw(self, out);
    }

    fn capture_counts(&self) -> (u64, u64) {
        (self.stats().samples, self.stats().missed_edges)
    }
}

/// The start-up self-test on any [`StartupSource`]: draws raw bits
/// until `compressor` has emitted [`STARTUP_BITS`] output bits, gating
/// every raw bit through `health`, then judges the output sample and
/// the capture quality.
///
/// The test runs on the word path. Its raw demand is known up front
/// (`STARTUP_BITS · rate` less the compressor's pending bits), so the
/// bits are drawn with [`fill_raw`](StartupSource::fill_raw) in chunks
/// of at most 64 bytes, gated with [`OnlineHealth::push_word`] and
/// folded with [`XorCompressor::push_word`]; the monobit count and the
/// longest run are read off the packed output words. Only a compressor
/// handed over mid-group makes the demand end off a byte boundary, and
/// those few leading bits are drawn one at a time. The source, the
/// gate and the compressor end in exactly the state a bit-at-a-time
/// loop over `next_raw_bit`, `OnlineHealth::push` and
/// `XorCompressor::push` leaves; that loop is kept as the oracle of a
/// differential test.
///
/// Multi-instance deployments (e.g. the `trng-pool` crate) gate shard
/// admission and *re*-admission after a quarantine through this test.
/// The caller owns `health`: alarms raised during the run stay latched,
/// so a defective source is visible both through the returned report
/// and through `health.status()`.
///
/// # Examples
///
/// ```
/// use trng_core::health::OnlineHealth;
/// use trng_core::postprocess::XorCompressor;
/// use trng_core::selftest::{claimed_min_entropy, run_startup};
/// use trng_core::trng::{CarryChainTrng, TrngConfig};
///
/// let config = TrngConfig::paper_k1();
/// let mut health = OnlineHealth::new(claimed_min_entropy(&config)?);
/// let mut compressor = XorCompressor::new(config.design.np);
/// let mut trng = CarryChainTrng::new(config, 7)?;
/// let report = run_startup(&mut trng, &mut health, &mut compressor);
/// assert!(report.passed(), "{report}");
/// # Ok::<(), trng_core::trng::BuildTrngError>(())
/// ```
pub fn run_startup<S: StartupSource + ?Sized>(
    source: &mut S,
    health: &mut OnlineHealth,
    compressor: &mut XorCompressor,
) -> StartupReport {
    let (samples_before, missed_before) = source.capture_counts();
    let mut remaining = STARTUP_BITS * compressor.rate() as usize - compressor.pending() as usize;
    let mut runs = RunTally::default();
    let mut feed = |word: u64, nbits: u32| {
        let _ = health.push_word(word, nbits);
        let (out, emitted) = compressor.push_word(word, nbits);
        runs.push(out, emitted);
    };
    let head = remaining % 8;
    if head > 0 {
        let word = (0..head).fold(0u64, |w, i| {
            w | u64::from(source.next_raw_bit()) << (63 - i)
        });
        feed(word, head as u32);
        remaining -= head;
    }
    let mut chunk = [0u8; 64];
    while remaining > 0 {
        let nbytes = (remaining / 8).min(chunk.len());
        source.fill_raw(&mut chunk[..nbytes]);
        for part in chunk[..nbytes].chunks(8) {
            let mut be = [0u8; 8];
            be[..part.len()].copy_from_slice(part);
            feed(u64::from_be_bytes(be), part.len() as u32 * 8);
        }
        remaining -= nbytes * 8;
    }
    let (samples_after, missed_after) = source.capture_counts();
    let samples = samples_after - samples_before;
    let missed = missed_after - missed_before;
    let missed_rate = if samples == 0 {
        0.0
    } else {
        missed as f64 / samples as f64
    };
    StartupReport {
        ones: runs.ones,
        longest_run: runs.longest,
        monobit_ok: (899..=1149).contains(&runs.ones),
        long_run_ok: runs.longest < 34,
        missed_edge_ok: missed_rate < 0.01 || samples < 1000,
        online_ok: health.status() == HealthStatus::Ok,
    }
}

/// Ones count and longest same-bit run over a bit stream fed as packed
/// words, a run at a time.
#[derive(Debug, Default)]
struct RunTally {
    ones: usize,
    longest: usize,
    run: usize,
    prev: Option<bool>,
}

impl RunTally {
    /// Feeds the top `nbits` bits of `word`, stream-first at bit 63;
    /// the rest of the word is zero, as [`XorCompressor::push_word`]
    /// leaves it.
    fn push(&mut self, mut word: u64, mut nbits: u32) {
        self.ones += word.count_ones() as usize;
        while nbits > 0 {
            let bit = word >> 63 == 1;
            let same = if bit { !word } else { word }.leading_zeros().min(nbits);
            if self.prev == Some(bit) {
                self.run += same as usize;
            } else {
                self.run = same as usize;
                self.prev = Some(bit);
            }
            self.longest = self.longest.max(self.run);
            word = word.checked_shl(same).unwrap_or(0);
            nbits -= same;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trng_fpga_sim::noise::AttackInjection;
    use trng_model::params::{DesignParams, PlatformParams};

    /// σ_LUT ~ 0 and huge bins with a zero-drift clock: the raw stream
    /// is essentially deterministic.
    fn dead_config() -> TrngConfig {
        let mut config = TrngConfig::ideal();
        config.platform = PlatformParams::new(480.0, 17.0, 0.05).expect("valid");
        config.design = DesignParams {
            k: 4,
            n_a: 1,
            np: 1,
            f_clk_hz: (1e12f64 / (21.0 * 480.0)).round() as u64,
            ..DesignParams::paper_k4()
        };
        config
    }

    /// Builds `config` at `seed` and runs the start-up test on it.
    fn start(config: TrngConfig, seed: u64) -> (CarryChainTrng, OnlineHealth, StartupReport) {
        let claim = claimed_min_entropy(&config).expect("valid");
        let mut compressor = XorCompressor::new(config.design.np);
        let mut trng = CarryChainTrng::new(config, seed).expect("build");
        let mut health = OnlineHealth::new(claim);
        let report = run_startup(&mut trng, &mut health, &mut compressor);
        (trng, health, report)
    }

    /// Pushes up to `limit` raw bits through `health`; `true` once it
    /// alarms.
    fn trips_within(trng: &mut CarryChainTrng, health: &mut OnlineHealth, limit: usize) -> bool {
        (0..limit).any(|_| health.push(trng.next_raw_bit()) == HealthStatus::Alarm)
    }

    #[test]
    fn healthy_source_comes_online_and_generates() {
        let (mut trng, mut health, report) = start(TrngConfig::paper_k1(), 1);
        assert!(report.passed(), "{report:?}");
        assert_eq!(health.status(), HealthStatus::Ok);
        // Post-start-up bits flow through the same gate and compressor.
        let mut compressor = XorCompressor::new(TrngConfig::paper_k1().design.np);
        let mut ones = 0;
        let mut bits = 0;
        while bits < 256 {
            let raw = trng.next_raw_bit();
            assert_eq!(health.push(raw), HealthStatus::Ok);
            if let Some(bit) = compressor.push(raw) {
                ones += usize::from(bit);
                bits += 1;
            }
        }
        assert!((64..192).contains(&ones), "ones {ones}");
    }

    #[test]
    fn dead_source_fails_startup() {
        // The frozen edge position must trip the start-up monobit or
        // long-run check, not only the online tests.
        let (_, _, report) = start(dead_config(), 2);
        assert!(!report.passed(), "{report:?}");
        assert!(!report.monobit_ok || !report.long_run_ok, "{report:?}");
    }

    #[test]
    fn online_alarm_latches_under_total_failure_attack() {
        // A locking attack with overwhelming strength and a frozen
        // clock: either start-up already catches it, or the online
        // tests do within a bounded number of raw bits, and the alarm
        // stays latched.
        let mut config = TrngConfig::ideal();
        config.platform = PlatformParams::new(480.0, 17.0, 2.6).expect("valid");
        config.design = DesignParams {
            np: 1,
            f_clk_hz: (1e12f64 / (21.0 * 480.0)).round() as u64,
            ..DesignParams::paper_k1()
        };
        config.attack = Some(AttackInjection::locking(1e12 / 480.0, 0.95));
        let (mut trng, mut health, report) = start(config, 4);
        if report.passed() {
            assert!(
                trips_within(&mut trng, &mut health, 50_000),
                "embedded tests never caught the locked source"
            );
            let _ = health.push(trng.next_raw_bit());
            assert_eq!(health.status(), HealthStatus::Alarm, "alarm must latch");
        }
    }

    #[test]
    fn reset_clears_the_latch() {
        let (mut trng, mut health, report) = start(dead_config(), 5);
        assert!(!report.passed());
        assert_eq!(health.status(), HealthStatus::Alarm);
        health.reset();
        assert_eq!(health.status(), HealthStatus::Ok);
        // The defective source trips again quickly.
        assert!(trips_within(&mut trng, &mut health, 20_000));
    }

    #[test]
    fn startup_report_matches_wrapper_verdict() {
        // The report's verdict must agree with the caller's health
        // monitor, which is what a wrapper (e.g. a pool shard) reads,
        // and must be reproducible at a fixed seed.
        let (_, health, report) = start(TrngConfig::paper_k1(), 1);
        assert!(report.passed(), "{report:?}");
        assert!(report.monobit_ok && report.long_run_ok);
        assert_eq!(report.online_ok, health.status() == HealthStatus::Ok);
        let (_, _, again) = start(TrngConfig::paper_k1(), 1);
        assert_eq!(report, again);

        let (_, health, dead) = start(dead_config(), 2);
        assert!(!dead.passed(), "{dead:?}");
        assert_eq!(dead.online_ok, health.status() == HealthStatus::Ok);
    }

    #[test]
    fn startup_report_flags_dead_source() {
        let (_, health, report) = start(dead_config(), 2);
        assert!(!report.passed(), "{report:?}");
        // The caller's health monitor keeps the latched alarm.
        assert_eq!(health.status(), HealthStatus::Alarm);
    }

    #[test]
    fn claimed_entropy_is_derated_and_floored() {
        let claim = claimed_min_entropy(&TrngConfig::paper_k1()).expect("valid");
        assert!((0.05..=0.5).contains(&claim), "claim {claim}");
    }

    #[test]
    fn failure_mask_names_every_failed_check() {
        let passed = StartupReport {
            ones: 1024,
            longest_run: 9,
            monobit_ok: true,
            long_run_ok: true,
            missed_edge_ok: true,
            online_ok: true,
        };
        assert_eq!(passed.failure_mask(), 0);
        assert!(passed.failed_checks().is_empty());
        assert!(passed.to_string().contains("startup passed"));

        let mut failed = passed;
        failed.monobit_ok = false;
        failed.online_ok = false;
        assert_eq!(
            failed.failure_mask(),
            STARTUP_FAIL_MONOBIT | STARTUP_FAIL_ONLINE
        );
        assert_eq!(failed.failed_checks(), vec!["monobit", "online-alarm"]);
        let text = failed.to_string();
        assert!(text.contains("startup failed"), "{text}");
        assert!(text.contains("monobit") && text.contains("online-alarm"));

        let mut edge = passed;
        edge.long_run_ok = false;
        edge.missed_edge_ok = false;
        assert_eq!(
            edge.failure_mask(),
            STARTUP_FAIL_LONG_RUN | STARTUP_FAIL_MISSED_EDGE
        );
        assert_eq!(edge.failed_checks(), vec!["long-run", "missed-edge"]);
    }
}
