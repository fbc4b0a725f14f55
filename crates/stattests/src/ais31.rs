//! AIS-31 statistical tests (procedure A core tests plus the Coron
//! entropy estimator of procedure B).
//!
//! Section 2 of the reproduced paper frames TRNG evaluation in the
//! AIS-31 methodology (Killmann & Schindler): statistical testing is
//! the *last* stage after stochastic modelling. These are the
//! standard tests the evaluation procedure applies to raw and
//! internal random numbers:
//!
//! * **T0** disjointness: 2^16 consecutive 48-bit blocks must be
//!   pairwise distinct;
//! * **T1** monobit, **T2** poker, **T3** runs, **T4** long run —
//!   the FIPS 140-1 quartet over 20 000 bits;
//! * **T5** autocorrelation over 10 000 bits;
//! * **T8** Coron's entropy estimator (procedure B), which must
//!   exceed 7.976 bits per byte.

use crate::bits::BitVec;

use core::fmt;
use std::collections::HashSet;

/// Verdict of one AIS-31 test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ais31Verdict {
    /// Test passed.
    Pass,
    /// Test failed.
    Fail,
    /// The sequence is too short to run this test.
    TooShort,
}

impl fmt::Display for Ais31Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Ais31Verdict::Pass => "pass",
            Ais31Verdict::Fail => "FAIL",
            Ais31Verdict::TooShort => "too short",
        })
    }
}

/// Number of bits T1–T4 evaluate.
pub const FIPS_BITS: usize = 20_000;

/// T0 — disjointness: the first 2^16 non-overlapping 48-bit words must
/// be pairwise distinct (needs 48·65536 = 3 145 728 bits).
pub fn t0_disjointness(bits: &BitVec) -> Ais31Verdict {
    const WORDS: usize = 1 << 16;
    const WIDTH: usize = 48;
    if bits.len() < WORDS * WIDTH {
        return Ais31Verdict::TooShort;
    }
    let mut seen = HashSet::with_capacity(WORDS);
    for i in 0..WORDS {
        if !seen.insert(bits.window_value(i * WIDTH, WIDTH)) {
            return Ais31Verdict::Fail;
        }
    }
    Ais31Verdict::Pass
}

/// T1 — monobit: the number of ones in 20 000 bits must lie in
/// `(9654, 10346)` (AIS-31 bound).
pub fn t1_monobit(bits: &BitVec) -> Ais31Verdict {
    if bits.len() < FIPS_BITS {
        return Ais31Verdict::TooShort;
    }
    let ones = bits.count_ones_in(0, FIPS_BITS);
    if (9655..10346).contains(&ones) {
        Ais31Verdict::Pass
    } else {
        Ais31Verdict::Fail
    }
}

/// T2 — poker: χ² of 4-bit nibble frequencies over 20 000 bits must
/// lie in `(1.03, 57.4)`.
pub fn t2_poker(bits: &BitVec) -> Ais31Verdict {
    if bits.len() < FIPS_BITS {
        return Ais31Verdict::TooShort;
    }
    let mut counts = [0u64; 16];
    for i in 0..FIPS_BITS / 4 {
        counts[bits.window_value(i * 4, 4) as usize] += 1;
    }
    let sum_sq: f64 = counts.iter().map(|&c| (c * c) as f64).sum();
    let x = 16.0 / 5000.0 * sum_sq - 5000.0;
    if x > 1.03 && x < 57.4 {
        Ais31Verdict::Pass
    } else {
        Ais31Verdict::Fail
    }
}

/// Run-length acceptance intervals of T3 (runs of each length 1..=6+,
/// for both zeros and ones, over 20 000 bits).
const T3_BOUNDS: [(u64, u64); 6] = [
    (2267, 2733),
    (1079, 1421),
    (502, 748),
    (223, 402),
    (90, 223),
    (90, 223),
];

/// T3 — runs: counts of runs of each length (1..5, ≥6) for both bit
/// values must each lie within the tabulated intervals.
pub fn t3_runs(bits: &BitVec) -> Ais31Verdict {
    if bits.len() < FIPS_BITS {
        return Ais31Verdict::TooShort;
    }
    let mut counts = [[0u64; 6]; 2]; // [bit value][length bucket]
    let mut run_val = bits.get(0);
    let mut run_len = 1usize;
    for i in 1..FIPS_BITS {
        let b = bits.get(i);
        if b == run_val {
            run_len += 1;
        } else {
            counts[usize::from(run_val)][run_len.min(6) - 1] += 1;
            run_val = b;
            run_len = 1;
        }
    }
    counts[usize::from(run_val)][run_len.min(6) - 1] += 1;
    for value_counts in &counts {
        for (bucket, &(lo, hi)) in T3_BOUNDS.iter().enumerate() {
            let c = value_counts[bucket];
            if c < lo || c > hi {
                return Ais31Verdict::Fail;
            }
        }
    }
    Ais31Verdict::Pass
}

/// T4 — long run: no run of length ≥ 34 may occur in 20 000 bits.
pub fn t4_long_run(bits: &BitVec) -> Ais31Verdict {
    if bits.len() < FIPS_BITS {
        return Ais31Verdict::TooShort;
    }
    let mut run_len = 1usize;
    for i in 1..FIPS_BITS {
        if bits.get(i) == bits.get(i - 1) {
            run_len += 1;
            if run_len >= 34 {
                return Ais31Verdict::Fail;
            }
        } else {
            run_len = 1;
        }
    }
    Ais31Verdict::Pass
}

/// T5 — autocorrelation: the statistic `Z_τ = Σ_{i<5000} ε_i ⊕ ε_{i+τ}`
/// must lie in `(2326, 2674)`. AIS-31 selects the most suspicious
/// shift on one half of the data and evaluates it on the other; here a
/// representative set of shifts is checked directly, each on 5000
/// bits.
pub fn t5_autocorrelation(bits: &BitVec) -> Ais31Verdict {
    const WINDOW: usize = 5_000;
    const MAX_TAU: usize = 100;
    if bits.len() < WINDOW + MAX_TAU {
        return Ais31Verdict::TooShort;
    }
    for tau in [1usize, 2, 3, 8, 16, MAX_TAU] {
        let z: usize = (0..WINDOW)
            .filter(|&i| bits.get(i) != bits.get(i + tau))
            .count();
        if !(2327..2674).contains(&z) {
            return Ais31Verdict::Fail;
        }
    }
    Ais31Verdict::Pass
}

/// T8 — Coron's entropy estimator over bytes (L = 8, Q = 2560,
/// K = 256 000 source words recommended; scaled to the available
/// data). The estimate must exceed 7.976 bits per byte.
pub fn t8_entropy(bits: &BitVec) -> Ais31Verdict {
    const L: usize = 8;
    const Q: usize = 2560;
    let total_words = bits.len() / L;
    if total_words < Q + 2560 {
        return Ais31Verdict::TooShort;
    }
    let k = total_words - Q;
    let mut last = [0usize; 256];
    for i in 0..Q {
        last[bits.window_value(i * L, L) as usize] = i + 1;
    }
    // Coron's g(i) coefficients: sum via the telescoping formula
    // g(d) = (1/ln 2) * sum_{k=1}^{d-1} 1/k  (approximately); the exact
    // estimator uses g(d) = (1/ln 2) * Σ_{k=1..d-1} 1/k.
    let harmonic =
        |d: usize| -> f64 { (1..d).map(|k| 1.0 / k as f64).sum::<f64>() / core::f64::consts::LN_2 };
    let mut sum = 0.0;
    for i in Q..total_words {
        let v = bits.window_value(i * L, L) as usize;
        let d = i + 1 - last[v];
        last[v] = i + 1;
        sum += harmonic(d);
    }
    let estimate = sum / k as f64;
    if estimate > 7.976 {
        Ais31Verdict::Pass
    } else {
        Ais31Verdict::Fail
    }
}

/// Summary of a full AIS-31 run.
///
/// Serializable but not deserializable: test names are static borrows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ais31Report {
    /// (test name, verdict) pairs, in procedure order.
    pub verdicts: Vec<(&'static str, Ais31Verdict)>,
}

impl Ais31Report {
    /// `true` when no applicable test failed.
    pub fn all_passed(&self) -> bool {
        self.verdicts.iter().all(|&(_, v)| v != Ais31Verdict::Fail)
    }
}

impl fmt::Display for Ais31Report {
    /// One line per test, then the verdict with the number of tests
    /// that ran and the names of those the sequence was too short for.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.verdicts {
            writeln!(f, "  {name:<20} {v}")?;
        }
        let too_short: Vec<&str> = self
            .verdicts
            .iter()
            .filter(|&&(_, v)| v == Ais31Verdict::TooShort)
            .map(|&(name, _)| name)
            .collect();
        write!(
            f,
            "  => {} ({} tests ran",
            if self.all_passed() { "PASS" } else { "FAIL" },
            self.verdicts.len() - too_short.len()
        )?;
        if !too_short.is_empty() {
            write!(f, "; too short: {}", too_short.join(", "))?;
        }
        f.write_str(")")
    }
}

/// Runs all implemented AIS-31 tests.
pub fn run_ais31(bits: &BitVec) -> Ais31Report {
    Ais31Report {
        verdicts: vec![
            ("T0 disjointness", t0_disjointness(bits)),
            ("T1 monobit", t1_monobit(bits)),
            ("T2 poker", t2_poker(bits)),
            ("T3 runs", t3_runs(bits)),
            ("T4 long run", t4_long_run(bits)),
            ("T5 autocorrelation", t5_autocorrelation(bits)),
            ("T8 entropy (Coron)", t8_entropy(bits)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_bits(n: usize, seed: u64) -> BitVec {
        use trng_testkit::prng::{Rng, SeedableRng};
        let mut rng = trng_testkit::prng::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen::<bool>()).collect()
    }

    #[test]
    fn random_data_passes_everything() {
        let bits = random_bits(3_200_000, 40);
        let report = run_ais31(&bits);
        assert!(report.all_passed(), "{report}");
        assert!(report
            .verdicts
            .iter()
            .all(|&(_, v)| v == Ais31Verdict::Pass));
    }

    #[test]
    fn constant_data_fails_t1_t3_t4() {
        let bits: BitVec = (0..25_000).map(|_| true).collect();
        assert_eq!(t1_monobit(&bits), Ais31Verdict::Fail);
        assert_eq!(t3_runs(&bits), Ais31Verdict::Fail);
        assert_eq!(t4_long_run(&bits), Ais31Verdict::Fail);
    }

    #[test]
    fn alternating_data_fails_t3_and_t5() {
        let bits: BitVec = (0..25_000).map(|i| i % 2 == 0).collect();
        // Monobit is perfect but runs are all length 1 and
        // autocorrelation at shift 1 is total.
        assert_eq!(t1_monobit(&bits), Ais31Verdict::Pass);
        assert_eq!(t3_runs(&bits), Ais31Verdict::Fail);
        assert_eq!(t5_autocorrelation(&bits), Ais31Verdict::Fail);
    }

    #[test]
    fn repeated_counter_fails_t0() {
        // 48-bit words that repeat with period 256.
        let mut bits = BitVec::new();
        for i in 0..(1usize << 16) {
            let w = (i % 256) as u64;
            for j in (0..48).rev() {
                bits.push(w >> j & 1 == 1);
            }
        }
        assert_eq!(t0_disjointness(&bits), Ais31Verdict::Fail);
    }

    #[test]
    fn unique_counter_passes_t0() {
        let mut bits = BitVec::new();
        for i in 0..(1usize << 16) {
            let w = i as u64;
            for j in (0..48).rev() {
                bits.push(w >> j & 1 == 1);
            }
        }
        assert_eq!(t0_disjointness(&bits), Ais31Verdict::Pass);
    }

    #[test]
    fn poker_detects_nibble_skew() {
        // Nibbles cycling over only 4 of 16 values.
        let bits: BitVec = (0..FIPS_BITS).map(|i| (i / 2) % 2 == 0).collect();
        assert_eq!(t2_poker(&bits), Ais31Verdict::Fail);
    }

    #[test]
    fn t8_low_entropy_source_fails() {
        // Bytes restricted to two values: entropy 1 bit/byte.
        let bits: BitVec = (0..400_000)
            .map(|i| (i / 8) % 2 == 0 && i % 8 == 7)
            .collect();
        assert_eq!(t8_entropy(&bits), Ais31Verdict::Fail);
    }

    #[test]
    fn short_input_reports_too_short() {
        let bits = random_bits(1_000, 41);
        assert_eq!(t0_disjointness(&bits), Ais31Verdict::TooShort);
        assert_eq!(t1_monobit(&bits), Ais31Verdict::TooShort);
        assert_eq!(t5_autocorrelation(&bits), Ais31Verdict::TooShort);
        assert_eq!(t8_entropy(&bits), Ais31Verdict::TooShort);
        // Too-short never fails the report.
        assert!(run_ais31(&bits).all_passed());
    }

    #[test]
    fn summary_counts_only_the_tests_that_ran() {
        // Long enough for T1–T8, too short for T0's 3 145 728 bits.
        let report = run_ais31(&random_bits(400_000, 43));
        assert_eq!(report.verdicts[0].1, Ais31Verdict::TooShort);
        let text = format!("{report}");
        let summary = text.lines().last().expect("summary line");
        assert_eq!(
            summary, "  => PASS (6 tests ran; too short: T0 disjointness)",
            "{text}"
        );

        let all_ran = Ais31Report {
            verdicts: vec![("T1 monobit", Ais31Verdict::Pass)],
        };
        assert_eq!(
            format!("{all_ran}"),
            "  T1 monobit           pass\n  => PASS (1 tests ran)"
        );
    }

    #[test]
    fn verdict_display() {
        assert_eq!(format!("{}", Ais31Verdict::Pass), "pass");
        assert_eq!(format!("{}", Ais31Verdict::Fail), "FAIL");
        assert_eq!(format!("{}", Ais31Verdict::TooShort), "too short");
    }
}
