//! The entropy extractor — Figure 5.
//!
//! Two combinational stages turn a raw [`Snippet`] into one random bit:
//!
//! 1. **XOR stage** — all `n` delay-line words are XORed bit-wise into
//!    one `m`-bit code; every ring transition inside the observation
//!    window shows up as one edge in this code.
//! 2. **Edge detector** — after optional down-sampling by `k` and
//!    bubble filtering, a priority encoder locates the *first* edge
//!    (the most recent ring transition; any second edge — Figure 4 (b)
//!    — is ignored) and outputs the LSB of its position: "odd positions
//!    are encoded as '0' and even positions as '1'".

use crate::bubble::BubbleFilter;
use crate::downsample::downsample_word;
use crate::snippet::Snippet;

/// Result of decoding one snippet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractedBit {
    /// The output bit: LSB-parity of the first-edge position
    /// (even position → 1, odd → 0).
    pub bit: bool,
    /// Position of the decoded edge boundary in the (down-sampled)
    /// code, 0-based.
    pub edge_position: usize,
}

/// The combinational entropy extractor.
///
/// # Examples
///
/// ```
/// use trng_core::extractor::EntropyExtractor;
/// use trng_core::snippet::Snippet;
///
/// let ext = EntropyExtractor::new(1, Default::default());
/// let s = Snippet::new(vec![vec![true, true, true, false, false, false, false, false]]);
/// let out = ext.extract(&s).expect("edge present");
/// assert_eq!(out.edge_position, 2);
/// assert!(out.bit); // even position -> 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntropyExtractor {
    k: u32,
    filter: BubbleFilter,
}

impl EntropyExtractor {
    /// Creates an extractor with down-sampling factor `k` and the given
    /// bubble filter.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u32, filter: BubbleFilter) -> Self {
        assert!(k >= 1, "down-sampling factor must be at least 1");
        EntropyExtractor { k, filter }
    }

    /// The down-sampling factor.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The bubble-filter strategy.
    pub fn filter(&self) -> BubbleFilter {
        self.filter
    }

    /// Decodes one snippet into a bit.
    ///
    /// Returns `None` when no edge is present in the down-sampled code
    /// (the missed-edge failure of `m = 32` in Section 5.2 — callers
    /// should count these).
    ///
    /// # Panics
    ///
    /// Panics if the snippet length is not a multiple of `k`
    /// (a configuration error, rejected earlier by
    /// [`DesignParams::validate`](trng_model::params::DesignParams::validate)).
    pub fn extract(&self, snippet: &Snippet) -> Option<ExtractedBit> {
        self.extract_word(snippet.xor_word(), snippet.taps_per_line() as u32)
    }

    /// Reference scalar pipeline over unpacked bit vectors: the test
    /// oracle of [`extract_word`](Self::extract_word).
    #[cfg(test)]
    fn extract_unpacked(&self, snippet: &Snippet) -> Option<ExtractedBit> {
        let combined = snippet.xor_vector();
        let coarse = crate::downsample::downsample(&combined, self.k);
        let code = self.filter.apply(&coarse);
        let first = code.windows(2).position(|w| w[0] != w[1])?;
        Some(ExtractedBit {
            bit: first.is_multiple_of(2),
            edge_position: first,
        })
    }

    /// Allocation-free decode of one XOR-combined code word of
    /// `m ≤ 64` taps (tap 0 in the LSB) — the one decode path, run by
    /// [`extract`](Self::extract) and the sampling hot path alike:
    /// down-sampling, bubble filter, first-edge priority encode.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not in `1..=64` or not a multiple of `k`.
    pub fn extract_word(&self, code: u64, m: u32) -> Option<ExtractedBit> {
        let (coarse, width) = downsample_word(code, m, self.k);
        let code = self.filter.apply_word(coarse, width);
        if width < 2 {
            return None;
        }
        // Edge word: bit j set iff code[j] != code[j+1], j < width-1.
        let edges = (code ^ (code >> 1)) & (u64::MAX >> (64 - (width - 1)));
        if edges == 0 {
            return None;
        }
        let first = edges.trailing_zeros() as usize;
        Some(ExtractedBit {
            bit: first.is_multiple_of(2),
            edge_position: first,
        })
    }
}

impl Default for EntropyExtractor {
    /// `k = 1` with the paper's priority bubble handling.
    fn default() -> Self {
        EntropyExtractor::new(1, BubbleFilter::Priority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    fn snip(s: &str) -> Snippet {
        Snippet::new(vec![bits(s)])
    }

    #[test]
    fn parity_encoding_matches_position() {
        let ext = EntropyExtractor::default();
        // Edge at boundary 0 -> bit 1.
        assert_eq!(
            ext.extract(&snip("10000000")).unwrap(),
            ExtractedBit {
                bit: true,
                edge_position: 0
            }
        );
        // Edge at boundary 1 -> bit 0.
        assert_eq!(
            ext.extract(&snip("11000000")).unwrap(),
            ExtractedBit {
                bit: false,
                edge_position: 1
            }
        );
        // Edge at boundary 2 -> bit 1.
        assert!(ext.extract(&snip("11100000")).unwrap().bit);
    }

    #[test]
    fn first_edge_wins_on_double_edge() {
        let ext = EntropyExtractor::default();
        // Edges at 1 and 5 (Figure 4 (b)): position 1 decoded.
        let out = ext.extract(&snip("11000011")).unwrap();
        assert_eq!(out.edge_position, 1);
        assert!(!out.bit);
    }

    #[test]
    fn polarity_does_not_matter() {
        let ext = EntropyExtractor::default();
        let a = ext.extract(&snip("11100000")).unwrap();
        let b = ext.extract(&snip("00011111")).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missed_edge_returns_none() {
        let ext = EntropyExtractor::default();
        assert_eq!(ext.extract(&snip("11111111")), None);
        assert_eq!(ext.extract(&snip("00000000")), None);
    }

    #[test]
    fn multi_line_snippet_xors_before_decoding() {
        let ext = EntropyExtractor::default();
        let s = Snippet::new(vec![bits("11110000"), bits("00011111")]);
        // XOR = 11101111: edges at 2 and 3 -> first edge at 2.
        let out = ext.extract(&s).unwrap();
        assert_eq!(out.edge_position, 2);
        assert!(out.bit);
    }

    #[test]
    fn downsampling_rescales_positions() {
        let ext = EntropyExtractor::new(4, BubbleFilter::Priority);
        // 36-bit code with edge between taps 19 and 20 -> combined code
        // (taps 3,7,11,15,19 | 23,27,31,35) = 11111 0000 -> boundary 4.
        let mut c = vec![true; 20];
        c.extend(vec![false; 16]);
        let out = ext.extract(&Snippet::new(vec![c])).unwrap();
        assert_eq!(out.edge_position, 4);
        assert!(out.bit);
    }

    #[test]
    fn downsampling_can_hide_a_bubble() {
        // A bubble at a tap that is dropped by down-sampling vanishes.
        let ext = EntropyExtractor::new(4, BubbleFilter::Priority);
        let mut c = vec![true; 20];
        c.extend(vec![false; 16]);
        c[4] = false; // bubble at tap 4 (not a multiple-of-4 boundary... tap 3 is kept)
        let out = ext.extract(&Snippet::new(vec![c])).unwrap();
        assert_eq!(out.edge_position, 4);
    }

    #[test]
    fn bubble_shifts_priority_decode_but_majority_repairs() {
        // Bubble at tap 2 before the true edge at 4.
        let code = "11011000";
        let prio = EntropyExtractor::new(1, BubbleFilter::Priority);
        let out = prio.extract(&snip(code)).unwrap();
        assert_eq!(out.edge_position, 1); // bubble decoded as the edge

        let maj = EntropyExtractor::new(1, BubbleFilter::Majority3);
        let out = maj.extract(&snip(code)).unwrap();
        assert_eq!(out.edge_position, 4); // repaired to the true edge
    }

    #[test]
    fn packed_word_path_matches_unpacked_reference() {
        // Every filter × every k over pseudo-random 36-tap captures of
        // one to three lines: the packed decode of the XOR word must
        // agree with the scalar reference pipeline in both presence and
        // value of the extracted bit.
        let filters = [
            BubbleFilter::Priority,
            BubbleFilter::Majority3,
            BubbleFilter::None,
        ];
        let word = |seed: u64| {
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left((seed % 61) as u32)
        };
        for &filter in &filters {
            for k in [1u32, 2, 4] {
                let ext = EntropyExtractor::new(k, filter);
                for seed in 0..200u64 {
                    let n = 1 + (seed % 3) as usize;
                    let lines: Vec<Vec<bool>> = (0..n as u64)
                        .map(|i| {
                            let w = word(seed + 1000 * i);
                            (0..36).map(|j| w >> j & 1 == 1).collect()
                        })
                        .collect();
                    let snippet = Snippet::new(lines);
                    let packed = ext.extract_word(snippet.xor_word(), 36);
                    let reference = ext.extract_unpacked(&snippet);
                    assert_eq!(packed, reference, "filter {filter:?} k {k} seed {seed}");
                    assert_eq!(ext.extract(&snippet), reference);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn mismatched_k_panics() {
        let ext = EntropyExtractor::new(4, BubbleFilter::Priority);
        let _ = ext.extract(&snip("110000")); // length 6 not divisible by 4
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_rejected() {
        let _ = EntropyExtractor::new(0, BubbleFilter::Priority);
    }
}
