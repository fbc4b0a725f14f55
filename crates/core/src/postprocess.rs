//! Run-time XOR post-processing — Section 4.5.
//!
//! The hardware compressor XORs `np` consecutive raw bits into one
//! output bit, improving entropy per bit (equations (6)–(7), modelled
//! in [`trng_model::postprocess`]) at the cost of `np`× throughput.
//! This module is the streaming implementation used on generated
//! bitstreams.

use crate::health::top_bits;

/// Streaming XOR compressor with rate `np`.
///
/// # Examples
///
/// ```
/// use trng_core::postprocess::XorCompressor;
///
/// let mut c = XorCompressor::new(3);
/// assert_eq!(c.push(true), None);
/// assert_eq!(c.push(true), None);
/// assert_eq!(c.push(false), Some(false)); // 1 ^ 1 ^ 0
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorCompressor {
    np: u32,
    acc: bool,
    count: u32,
}

impl XorCompressor {
    /// Creates a compressor with rate `np` (1 = pass-through).
    ///
    /// # Panics
    ///
    /// Panics if `np == 0`.
    pub fn new(np: u32) -> Self {
        assert!(np >= 1, "compression rate must be at least 1");
        XorCompressor {
            np,
            acc: false,
            count: 0,
        }
    }

    /// The compression rate.
    pub fn rate(&self) -> u32 {
        self.np
    }

    /// Raw bits currently accumulated toward the next output bit
    /// (always less than the rate). Lets batch producers compute the
    /// exact raw-bit demand for a given number of output bits.
    pub fn pending(&self) -> u32 {
        self.count
    }

    /// Feeds one raw bit; returns an output bit every `np` inputs.
    pub fn push(&mut self, bit: bool) -> Option<bool> {
        self.acc ^= bit;
        self.count += 1;
        if self.count == self.np {
            let out = self.acc;
            self.acc = false;
            self.count = 0;
            Some(out)
        } else {
            None
        }
    }

    /// Feeds the first `nbits` bits of `word` (stream-first bit at bit
    /// 63), folding each `np`-bit group with a mask and a popcount
    /// parity; a group left open at the end of the word carries over
    /// to the next call exactly as with [`push`](Self::push). Returns
    /// the output bits packed the same way — first output at bit 63 —
    /// and their count.
    ///
    /// # Panics
    ///
    /// When `nbits` is not in `1..=64`.
    pub fn push_word(&mut self, word: u64, nbits: u32) -> (u64, u32) {
        assert!((1..=64).contains(&nbits), "word of {nbits} bits");
        let (mut out, mut emitted) = (0u64, 0u32);
        let mut pos = 0;
        while pos < nbits {
            let take = (self.np - self.count).min(nbits - pos);
            let group = word << pos & top_bits(take);
            self.acc ^= group.count_ones() & 1 == 1;
            self.count += take;
            pos += take;
            if self.count == self.np {
                out |= u64::from(self.acc) << (63 - emitted);
                emitted += 1;
                self.acc = false;
                self.count = 0;
            }
        }
        (out, emitted)
    }

    /// Discards any partial accumulator state.
    pub fn reset(&mut self) {
        self.acc = false;
        self.count = 0;
    }

    /// Compresses a whole slice, discarding the trailing partial group.
    pub fn compress(np: u32, bits: &[bool]) -> Vec<bool> {
        let mut c = XorCompressor::new(np);
        bits.iter().filter_map(|&b| c.push(b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_one_is_passthrough() {
        let bits = [true, false, true, true];
        assert_eq!(XorCompressor::compress(1, &bits), bits.to_vec());
    }

    #[test]
    fn parity_groups() {
        // Groups of 2: (1,0) -> 1, (1,1) -> 0, trailing (1) dropped.
        let bits = [true, false, true, true, true];
        assert_eq!(XorCompressor::compress(2, &bits), vec![true, false]);
    }

    #[test]
    fn streaming_matches_batch() {
        let bits: Vec<bool> = (0..100).map(|i| (i * 7 + 3) % 5 < 2).collect();
        for np in [1u32, 2, 3, 7, 13] {
            let batch = XorCompressor::compress(np, &bits);
            let mut c = XorCompressor::new(np);
            let streamed: Vec<bool> = bits.iter().filter_map(|&b| c.push(b)).collect();
            assert_eq!(batch, streamed, "np = {np}");
        }
    }

    #[test]
    fn reset_discards_partial_group() {
        let mut c = XorCompressor::new(3);
        assert_eq!(c.push(true), None);
        c.reset();
        assert_eq!(c.push(false), None);
        assert_eq!(c.push(false), None);
        assert_eq!(c.push(false), Some(false));
    }

    #[test]
    fn compression_reduces_bias_statistically() {
        // Independent 70/30 biased bits: the piling-up lemma predicts
        // bias 2^2 * 0.2^3 = 0.032 after XOR-3, down from 0.2.
        use trng_fpga_sim::rng::SimRng;
        let mut rng = SimRng::seed_from(123);
        let bits: Vec<bool> = (0..90_000).map(|_| rng.bernoulli(0.7)).collect();
        let out = XorCompressor::compress(3, &bits);
        let ones_pp = out.iter().filter(|&&b| b).count() as f64 / out.len() as f64;
        assert!(
            (ones_pp - 0.5).abs() < 0.045,
            "post bias {}",
            (ones_pp - 0.5).abs()
        );
        assert!(
            (ones_pp - 0.5).abs() > 0.015,
            "post bias {}",
            (ones_pp - 0.5).abs()
        );
    }

    #[test]
    fn output_length_is_floor_division() {
        let bits = vec![true; 20];
        assert_eq!(XorCompressor::compress(7, &bits).len(), 2);
        assert_eq!(XorCompressor::compress(21, &bits).len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_rate() {
        let _ = XorCompressor::new(0);
    }
}
