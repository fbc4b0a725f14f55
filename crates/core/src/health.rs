//! Embedded on-the-fly health tests.
//!
//! The paper's conclusion names "developing embedded tests for
//! on-the-fly evaluation" as future work; AIS-31 (the evaluation
//! framework of Section 2) requires a total-failure test and online
//! tests in a certified TRNG. This module implements the standard
//! continuous health tests used for that purpose:
//!
//! * [`RepetitionCountTest`] — SP 800-90B §4.4.1: catches a source
//!   stuck at one value (total failure of the oscillator or sampler);
//! * [`AdaptiveProportionTest`] — SP 800-90B §4.4.2: catches large
//!   bias developing over a window;
//! * [`OnlineHealth`] — combines both plus a missed-edge-rate alarm
//!   fed from [`TrngStats`](crate::trng::TrngStats).
//!
//! Cutoffs are derived from the claimed min-entropy `H` at a false
//! positive rate of `2^-20` per test evaluation, per the SP 800-90B
//! formulas.

use core::fmt;

/// Outcome of feeding a sample to a health test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthStatus {
    /// No defect detected.
    Ok,
    /// The test's cutoff was exceeded — the source must be considered
    /// failed until re-validated.
    Alarm,
}

impl fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Alarm => "ALARM",
        })
    }
}

/// SP 800-90B repetition count test for a binary source.
///
/// Alarms when the same bit repeats `C = 1 + ceil(20 / H)` times,
/// where `H` is the claimed min-entropy per bit and 20 = −log2 of the
/// target false-positive rate.
///
/// # Examples
///
/// ```
/// use trng_core::health::{HealthStatus, RepetitionCountTest};
///
/// let mut t = RepetitionCountTest::new(0.9);
/// let status = (0..100).map(|_| t.push(true)).last().unwrap();
/// assert_eq!(status, HealthStatus::Alarm); // a stuck source trips it
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepetitionCountTest {
    cutoff: u32,
    last: Option<bool>,
    run: u32,
    alarmed: bool,
}

impl RepetitionCountTest {
    /// Creates the test for a claimed min-entropy `h` per bit.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not in `(0, 1]`.
    pub fn new(h: f64) -> Self {
        assert!(
            h > 0.0 && h <= 1.0,
            "min-entropy must be in (0, 1], got {h}"
        );
        let cutoff = 1 + (20.0 / h).ceil() as u32;
        RepetitionCountTest {
            cutoff,
            last: None,
            run: 0,
            alarmed: false,
        }
    }

    /// The repetition cutoff `C`.
    pub fn cutoff(&self) -> u32 {
        self.cutoff
    }

    /// Feeds one bit.
    pub fn push(&mut self, bit: bool) -> HealthStatus {
        if self.last == Some(bit) {
            self.run += 1;
        } else {
            self.last = Some(bit);
            self.run = 1;
        }
        if self.run >= self.cutoff {
            self.alarmed = true;
        }
        self.status()
    }

    /// Feeds the first `nbits` bits of `word`, stream-first bit at
    /// bit 63, leaving the test in exactly the state `nbits` calls to
    /// [`push`](Self::push) would. Returns the offset within the word
    /// of the first bit whose `push` would have reported `Alarm`, or
    /// `None` when every bit passed.
    ///
    /// Runs are read from the boundary mask `x ^ (x >> 1)` (with the
    /// carried bit shifted in on top): its leading zeros extend the
    /// carried run and its trailing zeros give the run left open at
    /// the end of the word. Interior runs are walked boundary by
    /// boundary only when the mask has a 16-bit boundary-free stretch,
    /// since the cutoff is never below 21.
    ///
    /// # Panics
    ///
    /// When `nbits` is not in `1..=64`.
    pub fn push_word(&mut self, word: u64, nbits: u32) -> Option<u32> {
        assert!((1..=64).contains(&nbits), "word of {nbits} bits");
        let valid = top_bits(nbits);
        let x = word & valid;
        // Bit 63 of `d` flags a boundary before the word's first bit: a
        // flip from the carried bit, or no carried run at all.
        let carry = match self.last {
            Some(bit) => u64::from(bit) << 63,
            None => !x & 1 << 63,
        };
        let d = (x ^ (x >> 1 | carry)) & valid;
        // The first `lead` bits extend the carried run, which is below
        // the cutoff unless the test is already latched.
        let lead = d.leading_zeros().min(nbits);
        let latched = self.alarmed;
        let first = if latched {
            None
        } else if self.run + lead >= self.cutoff {
            Some(self.cutoff - self.run - 1)
        } else {
            self.interior_alarm(d, lead, nbits)
        };
        if d == 0 {
            self.run += nbits;
        } else {
            self.run = nbits - (63 - d.trailing_zeros());
            self.last = Some(x >> (64 - nbits) & 1 == 1);
        }
        self.alarmed |= first.is_some();
        if latched {
            Some(0)
        } else {
            first
        }
    }

    /// Offset of the bit completing the first run of `cutoff` equal
    /// bits that starts at or after position `lead` of the boundary
    /// mask `d` (position `i` is bit `63 − i`; `lead` is a boundary,
    /// or `nbits` when the word has none).
    fn interior_alarm(&self, d: u64, lead: u32, nbits: u32) -> Option<u32> {
        // Boundary-free positions after `lead`: a run of length `L`
        // leaves `L − 1` of them in a row, so without 16 in a row no
        // run reaches the cutoff of at least 21.
        let mut z = !d & top_bits(nbits) & u64::MAX.checked_shr(lead + 1).unwrap_or(0);
        z &= z << 1;
        z &= z << 2;
        z &= z << 4;
        z &= z << 8;
        if z == 0 {
            return None;
        }
        let mut start = lead;
        while start < nbits {
            let later = d & u64::MAX.checked_shr(start + 1).unwrap_or(0);
            let next = if later == 0 {
                nbits
            } else {
                later.leading_zeros()
            };
            if next - start >= self.cutoff {
                return Some(start + self.cutoff - 1);
            }
            start = next;
        }
        None
    }

    /// Latched status: once alarmed, stays alarmed until reset.
    pub fn status(&self) -> HealthStatus {
        if self.alarmed {
            HealthStatus::Alarm
        } else {
            HealthStatus::Ok
        }
    }

    /// Clears the latch and run state.
    pub fn reset(&mut self) {
        self.last = None;
        self.run = 0;
        self.alarmed = false;
    }
}

/// SP 800-90B adaptive proportion test for a binary source
/// (window 1024).
///
/// Counts occurrences of the first bit of each window within that
/// window; alarms if the count reaches the cutoff
/// `C = 1 + ceil(W·p + z·sqrt(W·p·(1−p)))` with `p = 2^−H` and
/// `z = 5.3` (normal approximation of the binomial `2^−20` quantile —
/// within ±2 of the exact SP 800-90B table values for binary sources).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveProportionTest {
    cutoff: u32,
    window: u32,
    reference: Option<bool>,
    count: u32,
    seen: u32,
    alarmed: bool,
}

/// Window size of the adaptive proportion test for binary sources.
pub const ADAPTIVE_PROPORTION_WINDOW: u32 = 1024;

impl AdaptiveProportionTest {
    /// Creates the test for a claimed min-entropy `h` per bit.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not in `(0, 1]`.
    pub fn new(h: f64) -> Self {
        assert!(
            h > 0.0 && h <= 1.0,
            "min-entropy must be in (0, 1], got {h}"
        );
        let w = f64::from(ADAPTIVE_PROPORTION_WINDOW);
        let p = 2f64.powf(-h);
        let cutoff = 1.0 + (w * p + 5.3 * (w * p * (1.0 - p)).sqrt()).ceil();
        AdaptiveProportionTest {
            cutoff: (cutoff as u32).min(ADAPTIVE_PROPORTION_WINDOW),
            window: ADAPTIVE_PROPORTION_WINDOW,
            reference: None,
            count: 0,
            seen: 0,
            alarmed: false,
        }
    }

    /// The proportion cutoff `C`.
    pub fn cutoff(&self) -> u32 {
        self.cutoff
    }

    /// Feeds one bit.
    pub fn push(&mut self, bit: bool) -> HealthStatus {
        match self.reference {
            None => {
                self.reference = Some(bit);
                self.count = 1;
                self.seen = 1;
            }
            Some(r) => {
                self.seen += 1;
                if bit == r {
                    self.count += 1;
                }
                if self.count >= self.cutoff {
                    self.alarmed = true;
                }
                if self.seen == self.window {
                    self.reference = None;
                }
            }
        }
        self.status()
    }

    /// Feeds the first `nbits` bits of `word`, stream-first bit at
    /// bit 63, leaving the test in exactly the state `nbits` calls to
    /// [`push`](Self::push) would. Returns the offset within the word
    /// of the first bit whose `push` would have reported `Alarm`, or
    /// `None` when every bit passed.
    ///
    /// Each stretch of the word that falls inside one window costs a
    /// single masked popcount; only the alarm itself is located bit by
    /// bit.
    ///
    /// # Panics
    ///
    /// When `nbits` is not in `1..=64`.
    pub fn push_word(&mut self, word: u64, nbits: u32) -> Option<u32> {
        assert!((1..=64).contains(&nbits), "word of {nbits} bits");
        let latched = self.alarmed;
        let mut first = None;
        let mut pos = 0;
        while pos < nbits {
            let x = word << pos;
            let Some(reference) = self.reference else {
                self.reference = Some(x >> 63 == 1);
                self.count = 1;
                self.seen = 1;
                pos += 1;
                continue;
            };
            let len = (self.window - self.seen).min(nbits - pos);
            let mask = top_bits(len);
            let hits = if reference { x & mask } else { !x & mask };
            let n = hits.count_ones();
            if !latched && first.is_none() && self.count + n >= self.cutoff {
                first = Some(pos + nth_set_from_top(hits, self.cutoff - self.count));
            }
            self.count += n;
            self.seen += len;
            if self.seen == self.window {
                self.reference = None;
            }
            pos += len;
        }
        self.alarmed |= first.is_some();
        if latched {
            Some(0)
        } else {
            first
        }
    }

    /// Latched status.
    pub fn status(&self) -> HealthStatus {
        if self.alarmed {
            HealthStatus::Alarm
        } else {
            HealthStatus::Ok
        }
    }

    /// Clears the latch and window state.
    pub fn reset(&mut self) {
        self.reference = None;
        self.count = 0;
        self.seen = 0;
        self.alarmed = false;
    }
}

/// Combined online health monitor: repetition count + adaptive
/// proportion + missed-edge-rate alarm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineHealth {
    repetition: RepetitionCountTest,
    proportion: AdaptiveProportionTest,
    /// Maximum tolerated missed-edge rate before alarm.
    max_missed_edge_rate: f64,
    missed_alarm: bool,
}

impl OnlineHealth {
    /// Creates the monitor for a claimed min-entropy `h` per raw bit.
    ///
    /// The missed-edge alarm trips at a 1 % rate, comfortably above the
    /// paper's measured 0.8 % failure signature for undersized `m`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not in `(0, 1]`.
    pub fn new(h: f64) -> Self {
        OnlineHealth {
            repetition: RepetitionCountTest::new(h),
            proportion: AdaptiveProportionTest::new(h),
            max_missed_edge_rate: 0.01,
            missed_alarm: false,
        }
    }

    /// Feeds one raw bit to both continuous tests.
    pub fn push(&mut self, bit: bool) -> HealthStatus {
        let r = self.repetition.push(bit);
        let p = self.proportion.push(bit);
        if r == HealthStatus::Alarm || p == HealthStatus::Alarm {
            HealthStatus::Alarm
        } else {
            self.status()
        }
    }

    /// Feeds the first `nbits` bits of `word` — the stream-first bit
    /// at bit 63, so a big-endian load of raw bytes keeps stream
    /// order — to both continuous tests. Equivalent to `nbits` calls
    /// to [`push`](Self::push), which stays the reference it is
    /// differentially tested against: the state afterwards is
    /// identical, and the return value is the offset of the first bit
    /// whose `push` would have reported `Alarm` (`Some(0)` when the
    /// monitor was already latched), or `None` when every bit passed.
    ///
    /// # Panics
    ///
    /// When `nbits` is not in `1..=64`.
    pub fn push_word(&mut self, word: u64, nbits: u32) -> Option<u32> {
        let latched = self.status() == HealthStatus::Alarm;
        let repetition = self.repetition.push_word(word, nbits);
        let proportion = self.proportion.push_word(word, nbits);
        if latched {
            Some(0)
        } else {
            repetition.into_iter().chain(proportion).min()
        }
    }

    /// Reports the observed missed-edge statistics (e.g. from
    /// [`TrngStats`](crate::trng::TrngStats)).
    pub fn report_missed_edges(&mut self, missed: u64, samples: u64) -> HealthStatus {
        if samples >= 1000 && (missed as f64 / samples as f64) > self.max_missed_edge_rate {
            self.missed_alarm = true;
        }
        self.status()
    }

    /// Combined latched status.
    pub fn status(&self) -> HealthStatus {
        if self.missed_alarm
            || self.repetition.status() == HealthStatus::Alarm
            || self.proportion.status() == HealthStatus::Alarm
        {
            HealthStatus::Alarm
        } else {
            HealthStatus::Ok
        }
    }

    /// Clears all latches.
    pub fn reset(&mut self) {
        self.repetition.reset();
        self.proportion.reset();
        self.missed_alarm = false;
    }
}

/// A mask of the top `n` bits of a word (`n` in `0..=64`).
pub(crate) fn top_bits(n: u32) -> u64 {
    !u64::MAX.checked_shr(n).unwrap_or(0)
}

/// Offset from the top of the `n`-th set bit of `bits` (`n >= 1`,
/// and `bits` has at least `n` set bits).
fn nth_set_from_top(mut bits: u64, n: u32) -> u32 {
    for _ in 1..n {
        bits ^= 1 << (63 - bits.leading_zeros());
    }
    bits.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetition_cutoff_formula() {
        assert_eq!(RepetitionCountTest::new(1.0).cutoff(), 21);
        assert_eq!(RepetitionCountTest::new(0.5).cutoff(), 41);
        assert_eq!(RepetitionCountTest::new(0.99).cutoff(), 1 + 21);
    }

    #[test]
    fn repetition_trips_on_stuck_source() {
        let mut t = RepetitionCountTest::new(1.0);
        for i in 0..20 {
            assert_eq!(t.push(true), HealthStatus::Ok, "bit {i}");
        }
        assert_eq!(t.push(true), HealthStatus::Alarm); // 21st repeat
    }

    #[test]
    fn repetition_tolerates_alternating_bits() {
        let mut t = RepetitionCountTest::new(0.5);
        for i in 0..10_000 {
            assert_eq!(t.push(i % 2 == 0), HealthStatus::Ok);
        }
    }

    #[test]
    fn repetition_latches_until_reset() {
        let mut t = RepetitionCountTest::new(1.0);
        for _ in 0..21 {
            let _ = t.push(false);
        }
        assert_eq!(t.status(), HealthStatus::Alarm);
        assert_eq!(t.push(true), HealthStatus::Alarm); // still latched
        t.reset();
        assert_eq!(t.push(true), HealthStatus::Ok);
    }

    #[test]
    fn proportion_cutoff_is_sane() {
        // H = 1: p = 0.5, C ~ 1 + 512 + 5.3*16 = ~598.
        let t = AdaptiveProportionTest::new(1.0);
        assert!((590..=610).contains(&t.cutoff()), "cutoff {}", t.cutoff());
        // Lower entropy -> larger allowed proportion.
        assert!(AdaptiveProportionTest::new(0.3).cutoff() > t.cutoff());
    }

    #[test]
    fn proportion_passes_balanced_stream() {
        let mut t = AdaptiveProportionTest::new(0.9);
        // A pseudo-balanced pattern.
        for i in 0..20_000u32 {
            let bit = (i.wrapping_mul(2654435761) >> 16) & 1 == 1;
            assert_eq!(t.push(bit), HealthStatus::Ok, "at {i}");
        }
    }

    #[test]
    fn proportion_trips_on_heavy_bias() {
        let mut t = AdaptiveProportionTest::new(0.9);
        let mut tripped = false;
        for i in 0..2048 {
            // 95 % ones.
            let bit = i % 20 != 0;
            if t.push(bit) == HealthStatus::Alarm {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "adaptive proportion should catch 95 % bias");
    }

    #[test]
    fn online_health_combines_tests() {
        let mut h = OnlineHealth::new(0.9);
        for _ in 0..100 {
            let _ = h.push(true);
        }
        assert_eq!(h.status(), HealthStatus::Alarm); // repetition tripped
        h.reset();
        assert_eq!(h.status(), HealthStatus::Ok);
    }

    #[test]
    fn missed_edge_alarm() {
        let mut h = OnlineHealth::new(0.9);
        // Below threshold and below minimum sample count: no alarm.
        assert_eq!(h.report_missed_edges(5, 100), HealthStatus::Ok);
        assert_eq!(h.report_missed_edges(5, 1000), HealthStatus::Ok);
        // 2 % missed edges over enough samples: alarm.
        assert_eq!(h.report_missed_edges(20, 1000), HealthStatus::Alarm);
    }

    #[test]
    fn alarm_recovery_requires_explicit_reset() {
        // A stuck-source burst must latch the alarm, and feeding
        // arbitrarily many healthy post-alarm samples must NOT clear
        // it — recovery is an explicit supervisory decision (AIS-31
        // requires re-validation, not self-healing).
        let mut h = OnlineHealth::new(0.9);
        for _ in 0..40 {
            let _ = h.push(true); // stuck burst
        }
        assert_eq!(h.status(), HealthStatus::Alarm);
        for i in 0..20_000u32 {
            let healthy = (i.wrapping_mul(2654435761) >> 16) & 1 == 1;
            assert_eq!(h.push(healthy), HealthStatus::Alarm, "post-alarm bit {i}");
        }
        // Reset re-arms; a healthy stream then stays clean.
        h.reset();
        for i in 0..20_000u32 {
            let healthy = (i.wrapping_mul(2654435761) >> 16) & 1 == 1;
            assert_eq!(h.push(healthy), HealthStatus::Ok, "post-reset bit {i}");
        }
    }

    #[test]
    fn post_alarm_samples_do_not_corrupt_rearmed_state() {
        // Samples fed while alarmed must not poison the run/window
        // counters in a way that causes a spurious alarm after reset:
        // reset clears *all* accumulated state, so a fresh stuck run
        // needs the full cutoff again to trip.
        let mut t = RepetitionCountTest::new(1.0);
        for _ in 0..21 {
            let _ = t.push(false);
        }
        assert_eq!(t.status(), HealthStatus::Alarm);
        // Keep feeding the stuck value while latched.
        for _ in 0..100 {
            let _ = t.push(false);
        }
        t.reset();
        // 20 repeats after reset: one short of the cutoff — still Ok.
        for i in 0..20 {
            assert_eq!(t.push(false), HealthStatus::Ok, "repeat {i}");
        }
        assert_eq!(t.push(false), HealthStatus::Alarm);
    }

    #[test]
    fn adaptive_proportion_recovers_after_reset() {
        let mut t = AdaptiveProportionTest::new(0.9);
        let mut tripped = false;
        for _ in 0..2048 {
            if t.push(true) == HealthStatus::Alarm {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        t.reset();
        for i in 0..10_000u32 {
            let healthy = (i.wrapping_mul(2654435761) >> 16) & 1 == 1;
            assert_eq!(t.push(healthy), HealthStatus::Ok, "post-reset bit {i}");
        }
    }

    #[test]
    fn cutoff_derivation_at_claimed_entropy_boundaries() {
        // H = 1 (the upper boundary): C = 1 + ceil(20/1) = 21.
        assert_eq!(RepetitionCountTest::new(1.0).cutoff(), 21);
        // The 0.05 floor used by `claimed_min_entropy`: C = 401.
        assert_eq!(RepetitionCountTest::new(0.05).cutoff(), 401);
        // Cutoffs are monotonically non-increasing in H.
        let mut prev = u32::MAX;
        for h in [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let c = RepetitionCountTest::new(h).cutoff();
            assert!(c <= prev, "cutoff not monotone at h = {h}");
            prev = c;
        }
        // Adaptive proportion: the cutoff can never exceed the window
        // (at tiny H the binomial mean approaches W).
        for h in [0.01, 0.05, 0.5, 1.0] {
            let c = AdaptiveProportionTest::new(h).cutoff();
            assert!(
                c <= ADAPTIVE_PROPORTION_WINDOW,
                "cutoff {c} exceeds window at h = {h}"
            );
        }
        // And it is non-increasing in H as well.
        assert!(
            AdaptiveProportionTest::new(0.3).cutoff() >= AdaptiveProportionTest::new(1.0).cutoff()
        );
    }

    #[test]
    fn missed_edge_alarm_latches_like_the_others() {
        let mut h = OnlineHealth::new(0.9);
        assert_eq!(h.report_missed_edges(20, 1000), HealthStatus::Alarm);
        // Healthy reports afterwards do not unlatch.
        assert_eq!(h.report_missed_edges(0, 100_000), HealthStatus::Alarm);
        h.reset();
        assert_eq!(h.report_missed_edges(0, 100_000), HealthStatus::Ok);
    }

    #[test]
    fn status_display() {
        assert_eq!(format!("{}", HealthStatus::Ok), "ok");
        assert_eq!(format!("{}", HealthStatus::Alarm), "ALARM");
    }

    #[test]
    #[should_panic(expected = "min-entropy must be in (0, 1]")]
    fn rejects_bad_entropy_claim() {
        let _ = RepetitionCountTest::new(0.0);
    }
}
