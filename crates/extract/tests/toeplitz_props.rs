//! Property suite for the GF(2) Toeplitz core: the packed
//! word-parity product is bit-identical to the naive bit-by-bit
//! matrix reference across random shapes and seeds, the map is
//! GF(2)-linear, and distinct seeds give distinct extractors.

use trng_testkit::prng::Rng;
use trng_testkit::props;

use trng_extract::{ToeplitzExtractor, ToeplitzMatrix};

fn random_bits<R: Rng>(rng: &mut R, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen::<bool>()).collect()
}

/// Packs `x` reversed (bit `t` holds `x[n−1−t]`), the `mul_packed`
/// input convention.
fn pack_rev(x: &[bool]) -> Vec<u64> {
    let n = x.len();
    let mut words = vec![0u64; n.div_ceil(64)];
    for (j, &bit) in x.iter().enumerate() {
        if bit {
            let t = n - 1 - j;
            words[t / 64] |= 1u64 << (t % 64);
        }
    }
    words
}

fn unpack(words: &[u64], m: usize) -> Vec<bool> {
    (0..m).map(|i| words[i / 64] >> (i % 64) & 1 == 1).collect()
}

props! {
    /// Packed product == naive reference, across random m/n/seed —
    /// word-boundary shapes included by construction of the ranges.
    fn packed_product_matches_naive(rng) {
        let m = rng.gen_range(1usize..=64);
        let n = rng.gen_range(1usize..260);
        let t = ToeplitzMatrix::from_seed(m, n, rng.gen::<u64>());
        let x = random_bits(rng, n);
        let mut out = vec![0u64; m.div_ceil(64)];
        t.mul_packed(&pack_rev(&x), &mut out);
        assert_eq!(unpack(&out, m), t.mul_naive(&x), "m={m} n={n}");
    }

    /// Exact word-multiple shapes, where every shifted window spans
    /// two diagonal words except at s == 0.
    fn packed_product_matches_naive_on_word_multiples(rng) {
        let m = 64;
        let n = 64 * rng.gen_range(1usize..6);
        let t = ToeplitzMatrix::from_seed(m, n, rng.gen::<u64>());
        let x = random_bits(rng, n);
        let word = t.mul_packed_word(&pack_rev(&x));
        assert_eq!(unpack(&[word], m), t.mul_naive(&x), "n={n}");
    }

    /// GF(2) linearity: T(x ⊕ y) = T(x) ⊕ T(y).
    fn product_is_linear_over_gf2(rng) {
        let m = rng.gen_range(1usize..=64);
        let n = rng.gen_range(1usize..200);
        let t = ToeplitzMatrix::from_seed(m, n, rng.gen::<u64>());
        let x = random_bits(rng, n);
        let y = random_bits(rng, n);
        let xy: Vec<bool> = x.iter().zip(&y).map(|(&a, &b)| a ^ b).collect();
        let lhs = t.mul_naive(&xy);
        let rhs: Vec<bool> = t
            .mul_naive(&x)
            .into_iter()
            .zip(t.mul_naive(&y))
            .map(|(a, b)| a ^ b)
            .collect();
        assert_eq!(lhs, rhs, "m={m} n={n}");
        // Corollary: T(0) = 0.
        assert!(t.mul_naive(&vec![false; n]).iter().all(|&b| !b));
    }

    /// Seed sensitivity: two extractors drawn from distinct seeds
    /// disagree on some block of a shared input stream. (Two random
    /// 64×n matrices collide with probability 2^−(m+n−1); the input
    /// re-randomises per case, so a persistent pass is conclusive.)
    fn distinct_seeds_give_distinct_extractors(rng) {
        let n = 64 * rng.gen_range(2usize..5);
        let seed = rng.gen::<u64>();
        let mut a = ToeplitzExtractor::from_seed(64, n, seed);
        let mut b = ToeplitzExtractor::from_seed(64, n, seed ^ rng.gen_range(1u64..u64::MAX));
        let stream = random_bits(rng, n * 4);
        let out_a: Vec<u64> = stream.iter().filter_map(|&bit| a.push(bit)).collect();
        let out_b: Vec<u64> = stream.iter().filter_map(|&bit| b.push(bit)).collect();
        assert_eq!(out_a.len(), 4);
        assert_ne!(out_a, out_b, "n={n} seed={seed:#x}");
    }

    /// The streaming block API agrees with one-shot products over the
    /// same matrix, across random shapes and stream lengths.
    fn streaming_equals_one_shot(rng) {
        let m = rng.gen_range(1usize..=64);
        let n = rng.gen_range(1usize..180);
        let t = ToeplitzMatrix::from_seed(m, n, rng.gen::<u64>());
        let blocks = rng.gen_range(1usize..5);
        let partial = rng.gen_range(0..n);
        let stream = random_bits(rng, n * blocks + partial);
        let mut ex = ToeplitzExtractor::from_matrix(t.clone());
        let emitted: Vec<u64> = stream.iter().filter_map(|&bit| ex.push(bit)).collect();
        assert_eq!(emitted.len(), stream.len() / n);
        assert_eq!(ex.pending_input_bits(), stream.len() % n);
        for (k, &word) in emitted.iter().enumerate() {
            let reference = t.mul_naive(&stream[k * n..(k + 1) * n]);
            assert_eq!(unpack(&[word], m), reference, "m={m} n={n} block {k}");
        }
    }

    /// Word-at-a-time absorption emits exactly the per-bit blocks,
    /// including with a partial block carried into the first word and
    /// words that complete a block part-way through.
    fn push_word_matches_per_bit_push(rng) {
        let m = rng.gen_range(1usize..=64);
        let n = rng.gen_range(1usize..400);
        let seed = rng.gen::<u64>();
        let mut oracle = ToeplitzExtractor::from_seed(m, n, seed);
        let mut words = ToeplitzExtractor::from_seed(m, n, seed);
        let bits = random_bits(rng, 3 * n + 200);
        let carried = rng.gen_range(0..n);
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for &b in &bits[..carried] {
            expected.extend(oracle.push(b));
            got.extend(words.push(b));
        }
        assert_eq!(words.pending_input_bits(), carried);
        let mut pos = carried;
        while pos < bits.len() {
            let w = rng.gen_range(1usize..=64).min(n).min(bits.len() - pos);
            let chunk = &bits[pos..pos + w];
            expected.extend(chunk.iter().filter_map(|&b| oracle.push(b)));
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | u64::from(b) << (63 - i));
            got.extend(words.push_word(word, w as u32));
            assert_eq!(words.pending_input_bits(), oracle.pending_input_bits());
            pos += w;
        }
        assert!(!expected.is_empty());
        assert_eq!(got, expected, "m={m} n={n}");
    }
}
