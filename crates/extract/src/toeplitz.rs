//! The Toeplitz matrix in diagonal-reuse layout and its streaming
//! block extractor.

use trng_testkit::prng::{RngCore, SeedableRng, StdRng};

/// An `m×n` binary Toeplitz matrix `T[i][j] = d[i + (n−1) − j]`,
/// stored as its `m+n−1` diagonal bits `d` packed LSB-first into
/// `u64` words.
///
/// Every diagonal of a Toeplitz matrix is constant, so row `i` is row
/// `i−1` shifted right by one with a fresh bit entering on the left:
/// the whole matrix is one bit-string, and the GF(2) matrix–vector
/// product `y = T·x` becomes, per output bit, an AND of a shifted
/// `n`-bit window of `d` against the *reversed* input followed by a
/// popcount parity:
///
/// ```text
/// y_i = ⊕_j T[i][j]·x_j = ⊕_t d[i+t] · x[n−1−t] = parity(d[i .. i+n] & rev(x))
/// ```
///
/// With `d` and `rev(x)` packed into words, each output bit costs
/// `⌈n/64⌉` shift/AND/XOR word operations plus one `count_ones`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToeplitzMatrix {
    m: usize,
    n: usize,
    /// `m+n−1` diagonal bits, LSB-first; trailing bits of the last
    /// word are zero.
    diag: Vec<u64>,
}

impl ToeplitzMatrix {
    /// Draws the `m+n−1` diagonal bits from a seeded xoshiro256++
    /// stream: the same `(m, n, seed)` always yields the same matrix,
    /// so extractor output is replayable from configuration alone.
    ///
    /// # Panics
    ///
    /// When `m == 0` or `n == 0`.
    pub fn from_seed(m: usize, n: usize, seed: u64) -> Self {
        assert!(m > 0 && n > 0, "degenerate {m}x{n} Toeplitz matrix");
        let bits = m + n - 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut diag = vec![0u64; bits.div_ceil(64)];
        for word in &mut diag {
            *word = rng.next_u64();
        }
        // Zero the tail so equality/Debug depend only on live bits.
        let tail = bits % 64;
        if tail != 0 {
            if let Some(last) = diag.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        ToeplitzMatrix { m, n, diag }
    }

    /// Input bits per block.
    pub fn input_bits(&self) -> usize {
        self.n
    }

    /// The matrix entry `T[i][j]`.
    ///
    /// # Panics
    ///
    /// When `i >= m` or `j >= n`.
    pub fn entry(&self, i: usize, j: usize) -> bool {
        assert!(i < self.m && j < self.n, "entry ({i}, {j}) out of range");
        let k = i + (self.n - 1) - j;
        self.diag[k / 64] >> (k % 64) & 1 == 1
    }

    /// The `n`-bit window `d[i .. i+n]` of the diagonal string, packed
    /// LSB-first — row `i` read against the reversed input.
    #[inline]
    fn window_word(&self, i: usize, w: usize) -> u64 {
        let base = i / 64 + w;
        let s = i % 64;
        let lo = self.diag.get(base).copied().unwrap_or(0) >> s;
        if s == 0 {
            lo
        } else {
            lo | self.diag.get(base + 1).copied().unwrap_or(0) << (64 - s)
        }
    }

    /// GF(2) product `y = T·x` over packed words. `xrev` holds the
    /// input *reversed* — bit `t` of `xrev` is `x[n−1−t]` — with any
    /// bits past `n` zero; `out` receives the `m` output bits packed
    /// LSB-first.
    ///
    /// # Panics
    ///
    /// When `xrev` or `out` is shorter than the packed block demands.
    pub fn mul_packed(&self, xrev: &[u64], out: &mut [u64]) {
        let nw = self.n.div_ceil(64);
        assert!(xrev.len() >= nw, "input words {} < {nw}", xrev.len());
        assert!(
            out.len() >= self.m.div_ceil(64),
            "output words {} < {}",
            out.len(),
            self.m.div_ceil(64)
        );
        for word in out.iter_mut() {
            *word = 0;
        }
        for i in 0..self.m {
            let mut acc = 0u64;
            for (w, &x) in xrev.iter().enumerate().take(nw) {
                acc ^= self.window_word(i, w) & x;
            }
            out[i / 64] |= u64::from(acc.count_ones() & 1) << (i % 64);
        }
    }

    /// One output word of the product for matrices with `m <= 64` —
    /// the pool's block shape, avoiding any output allocation.
    ///
    /// # Panics
    ///
    /// When `m > 64` or `xrev` is too short.
    pub fn mul_packed_word(&self, xrev: &[u64]) -> u64 {
        assert!(
            self.m <= 64,
            "mul_packed_word needs m <= 64, got {}",
            self.m
        );
        let mut out = [0u64; 1];
        self.mul_packed(xrev, &mut out);
        out[0]
    }

    /// Naive bit-by-bit reference product over `entry(i, j)` — the
    /// specification the packed path is property-tested against.
    ///
    /// # Panics
    ///
    /// When `x.len() != n`.
    pub fn mul_naive(&self, x: &[bool]) -> Vec<bool> {
        assert_eq!(x.len(), self.n, "input length");
        (0..self.m)
            .map(|i| {
                (0..self.n)
                    .map(|j| self.entry(i, j) && x[j])
                    .fold(false, |a, b| a ^ b)
            })
            .collect()
    }
}

/// Streaming block extractor over a [`ToeplitzMatrix`] with `m <= 64`:
/// absorb input bits one at a time; every `n`-th bit completes a block
/// and emits the `m` output bits as one word (bit `i` of the word is
/// output bit `y_i`).
///
/// Only the input accumulator is stateful — the seeded matrix is
/// reused across blocks, which is what makes the construction a
/// *strong* extractor (output ε-close to uniform even given the seed).
/// [`reset`](ToeplitzExtractor::reset) drops a partial input block
/// (e.g. after an upstream health alarm discards the raw stretch it
/// came from) while keeping the matrix, so the seed→stream mapping
/// stays a pure function of configuration.
#[derive(Debug, Clone)]
pub struct ToeplitzExtractor {
    matrix: ToeplitzMatrix,
    /// Reversed packed input accumulator: arrival `j` lands at bit
    /// `n−1−j`, so a complete block is already in `mul_packed` form.
    xrev: Vec<u64>,
    filled: usize,
}

impl ToeplitzExtractor {
    /// Wraps an explicit matrix.
    ///
    /// # Panics
    ///
    /// When the matrix has more than 64 output bits.
    pub fn from_matrix(matrix: ToeplitzMatrix) -> Self {
        assert!(
            matrix.m <= 64,
            "streaming extractor emits one word per block; m = {} > 64",
            matrix.m
        );
        let words = matrix.n.div_ceil(64);
        ToeplitzExtractor {
            matrix,
            xrev: vec![0u64; words],
            filled: 0,
        }
    }

    /// Builds the extractor over [`ToeplitzMatrix::from_seed`].
    pub fn from_seed(m: usize, n: usize, seed: u64) -> Self {
        Self::from_matrix(ToeplitzMatrix::from_seed(m, n, seed))
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &ToeplitzMatrix {
        &self.matrix
    }

    /// Input bits per block (`n`).
    pub fn input_block_bits(&self) -> usize {
        self.matrix.n
    }

    /// Output bits per block (`m`).
    pub fn output_block_bits(&self) -> usize {
        self.matrix.m
    }

    /// Input bits absorbed toward the next emission (always `< n`).
    pub fn pending_input_bits(&self) -> usize {
        self.filled
    }

    /// Absorbs one input bit; returns the next `m`-bit output block
    /// (output bit `y_i` at word bit `i`) when this bit completes it.
    #[inline]
    pub fn push(&mut self, bit: bool) -> Option<u64> {
        let pos = self.matrix.n - 1 - self.filled;
        if bit {
            self.xrev[pos / 64] |= 1u64 << (pos % 64);
        }
        self.filled += 1;
        if self.filled < self.matrix.n {
            return None;
        }
        let word = self.matrix.mul_packed_word(&self.xrev);
        for w in &mut self.xrev {
            *w = 0;
        }
        self.filled = 0;
        Some(word)
    }

    /// Absorbs the first `nbits` bits of `word`, stream-first bit at
    /// bit 63, in one shot; returns the output block when they
    /// complete it, exactly as `nbits` calls to [`push`](Self::push)
    /// would. Input bits past a completed block start the next one.
    ///
    /// # Panics
    ///
    /// When `nbits` is not in `1..=64` or exceeds the input block `n`
    /// (then one word could complete two blocks).
    pub fn push_word(&mut self, word: u64, nbits: u32) -> Option<u64> {
        let nbits = nbits as usize;
        assert!(
            (1..=64).contains(&nbits) && nbits <= self.matrix.n,
            "word of {nbits} bits into {}-bit blocks",
            self.matrix.n
        );
        let take = (self.matrix.n - self.filled).min(nbits);
        self.deposit(word, take);
        if self.filled < self.matrix.n {
            return None;
        }
        let out = self.matrix.mul_packed_word(&self.xrev);
        self.reset();
        if nbits > take {
            self.deposit(word << take, nbits - take);
        }
        Some(out)
    }

    /// Places the top `take` bits of `x` (`1..=64`, never past the
    /// block) as the next arrivals: arrival `j` lands at bit `n−1−j`,
    /// so the word's bits keep their order, ending at bit `low`.
    fn deposit(&mut self, x: u64, take: usize) {
        let low = self.matrix.n - self.filled - take;
        let bits = x >> (64 - take);
        let (w, s) = (low / 64, low % 64);
        self.xrev[w] |= bits << s;
        if s + take > 64 {
            self.xrev[w + 1] |= bits >> (64 - s);
        }
        self.filled += take;
    }

    /// Discards any partial input block; the matrix is kept.
    pub fn reset(&mut self) {
        for w in &mut self.xrev {
            *w = 0;
        }
        self.filled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packs `x` reversed for `mul_packed`, as the extractor does.
    fn pack_rev(x: &[bool]) -> Vec<u64> {
        let n = x.len();
        let mut words = vec![0u64; n.div_ceil(64)];
        for (j, &bit) in x.iter().enumerate() {
            let t = n - 1 - j;
            if bit {
                words[t / 64] |= 1u64 << (t % 64);
            }
        }
        words
    }

    fn bits_from_word(word: u64, m: usize) -> Vec<bool> {
        (0..m).map(|i| word >> i & 1 == 1).collect()
    }

    #[test]
    fn diagonal_layout_is_constant_along_diagonals() {
        let t = ToeplitzMatrix::from_seed(17, 41, 7);
        for i in 1..17 {
            for j in 1..41 {
                assert_eq!(t.entry(i, j), t.entry(i - 1, j - 1), "({i}, {j})");
            }
        }
    }

    #[test]
    fn matrix_is_a_pure_function_of_its_seed() {
        let a = ToeplitzMatrix::from_seed(64, 320, 99);
        let b = ToeplitzMatrix::from_seed(64, 320, 99);
        assert_eq!(a, b);
        assert_ne!(a, ToeplitzMatrix::from_seed(64, 320, 100));
    }

    #[test]
    fn packed_product_matches_naive_on_a_fixed_case() {
        let t = ToeplitzMatrix::from_seed(64, 320, 3);
        let x: Vec<bool> = (0..320).map(|j| j % 5 == 0 || j % 7 == 3).collect();
        let naive = t.mul_naive(&x);
        let word = t.mul_packed_word(&pack_rev(&x));
        assert_eq!(bits_from_word(word, 64), naive);
    }

    #[test]
    fn streaming_matches_one_shot_blocks() {
        let t = ToeplitzMatrix::from_seed(48, 130, 11);
        let mut ex = ToeplitzExtractor::from_matrix(t.clone());
        let stream: Vec<bool> = (0..390).map(|j| (j * j + 1) % 3 == 0).collect();
        let mut emitted = Vec::new();
        for &bit in &stream {
            if let Some(word) = ex.push(bit) {
                emitted.push(word);
            }
        }
        assert_eq!(emitted.len(), 3);
        assert_eq!(ex.pending_input_bits(), 0);
        for (k, &word) in emitted.iter().enumerate() {
            let block = &stream[k * 130..(k + 1) * 130];
            assert_eq!(bits_from_word(word, 48), t.mul_naive(block), "block {k}");
        }
    }

    #[test]
    fn reset_drops_the_partial_block_and_keeps_the_matrix() {
        let mut ex = ToeplitzExtractor::from_seed(8, 24, 5);
        for j in 0..10 {
            assert!(ex.push(j % 2 == 0).is_none());
        }
        assert_eq!(ex.pending_input_bits(), 10);
        ex.reset();
        assert_eq!(ex.pending_input_bits(), 0);
        // Same stream from a fresh extractor: identical emission.
        let stream: Vec<bool> = (0..24).map(|j| j % 3 != 1).collect();
        let mut fresh = ToeplitzExtractor::from_seed(8, 24, 5);
        let a: Vec<_> = stream.iter().filter_map(|&b| ex.push(b)).collect();
        let b: Vec<_> = stream.iter().filter_map(|&b| fresh.push(b)).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    #[should_panic(expected = "one word per block")]
    fn wide_output_rejects_the_streaming_form() {
        let _ = ToeplitzExtractor::from_seed(65, 128, 1);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_size_is_rejected() {
        let _ = ToeplitzMatrix::from_seed(0, 8, 1);
    }
}
