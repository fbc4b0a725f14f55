//! Property-based tests of the extractor pipeline and post-processing.
//!
//! Runs under the hermetic `trng-testkit` harness: each property
//! executes `TRNG_PROP_CASES` (default 64) independently seeded cases
//! and reports the failing seed for replay via `TRNG_PROP_SEED`.

use trng_core::bubble::BubbleFilter;
use trng_core::downsample::downsample;
use trng_core::extractor::EntropyExtractor;
use trng_core::health::{
    HealthStatus, OnlineHealth, RepetitionCountTest, ADAPTIVE_PROPORTION_WINDOW,
};
use trng_core::postprocess::XorCompressor;
use trng_core::snippet::{Snippet, SnippetKind};
use trng_testkit::prng::{Rng, StdRng};
use trng_testkit::prop::{pick, vec_bool};
use trng_testkit::props;

/// Generator: a single-edge thermometer code of length `4 * m4` plus
/// its edge index (first tap past the edge).
fn thermometer(rng: &mut StdRng, m4: usize) -> (Vec<bool>, usize) {
    let m = m4 * 4;
    let edge = rng.gen_range(1..m);
    let code: Vec<bool> = (0..m).map(|j| j < edge).collect();
    (code, edge)
}

props! {
    fn extractor_decodes_thermometer_parity(rng) {
        let (code, edge) = thermometer(rng, 9);
        let ext = EntropyExtractor::default();
        let out = ext.extract(&Snippet::new(vec![code])).expect("edge present");
        assert_eq!(out.edge_position, edge - 1);
        assert_eq!(out.bit, (edge - 1) % 2 == 0);
    }

    fn extractor_is_polarity_invariant(rng) {
        let (code, _) = thermometer(rng, 9);
        let ext = EntropyExtractor::default();
        let inverted: Vec<bool> = code.iter().map(|&b| !b).collect();
        let a = ext.extract(&Snippet::new(vec![code]));
        let b = ext.extract(&Snippet::new(vec![inverted]));
        assert_eq!(a, b);
    }

    fn extractor_ignores_extra_constant_lines(rng) {
        let (code, _) = thermometer(rng, 9);
        let level = rng.gen::<bool>();
        // XOR with a constant line flips polarity at most — decode is
        // unchanged (polarity invariance).
        let ext = EntropyExtractor::default();
        let single = ext.extract(&Snippet::new(vec![code.clone()]));
        let padded = ext.extract(&Snippet::new(vec![code.clone(), vec![level; code.len()]]));
        assert_eq!(single, padded);
    }

    fn downsample_preserves_every_kth_tap(rng) {
        let bits = vec_bool(rng, 1..20);
        let k = pick(rng, &[1u32, 2, 3, 4]);
        // Pad to a multiple of k.
        let mut code = bits;
        while code.len() % k as usize != 0 {
            code.push(false);
        }
        let d = downsample(&code, k);
        assert_eq!(d.len(), code.len() / k as usize);
        for (l, &bit) in d.iter().enumerate() {
            assert_eq!(bit, code[(l + 1) * k as usize - 1]);
        }
    }

    fn majority_filter_preserves_length_and_clean_codes(rng) {
        let (code, _) = thermometer(rng, 16);
        let filtered = BubbleFilter::Majority3.apply(&code);
        assert_eq!(filtered.len(), code.len());
        // Thermometer codes with runs >= 2 on both sides are fixed
        // points; the generated codes always have a leading run >= 1
        // and trailing run >= 1 — only single-bit end runs may change.
        let edge = code.iter().position(|&b| !b).unwrap();
        if edge >= 2 && code.len() - edge >= 2 {
            assert_eq!(filtered, code);
        }
    }

    fn majority_filter_repairs_any_isolated_interior_bubble(rng) {
        let (mut code, edge) = thermometer(rng, 16);
        let bubble_at = rng.gen_range(0usize..64);
        // A 3-tap majority provably repairs an isolated flipped bit
        // when both of the bit's neighbours (and their neighbours) are
        // clean and agree: at least 2 taps from either array end, and
        // at least 3 taps before / 2 taps after the edge boundary.
        let m = code.len();
        let pos = bubble_at % m;
        // The clean code must itself be a fixed point (runs of >= 2 on
        // both sides of the edge), else the filter smooths the clean
        // single-tap end run too.
        let clean_is_fixed_point = edge >= 2 && edge + 2 <= m;
        let repairable =
            pos >= 2 && pos + 3 <= m && (pos + 3 <= edge || pos >= edge + 2);
        if !(clean_is_fixed_point && repairable) {
            return; // precondition unmet: skip this case
        }
        let clean = code.clone();
        code[pos] = !code[pos];
        let filtered = BubbleFilter::Majority3.apply(&code);
        assert_eq!(filtered, clean);
    }

    fn xor_compressor_streaming_equals_batch(rng) {
        let bits = vec_bool(rng, 0..200);
        let np = rng.gen_range(1u32..12);
        let batch = XorCompressor::compress(np, &bits);
        let mut c = XorCompressor::new(np);
        let streamed: Vec<bool> = bits.iter().filter_map(|&b| c.push(b)).collect();
        assert_eq!(&batch, &streamed);
        assert_eq!(batch.len(), bits.len() / np as usize);
    }

    fn xor_compressor_output_is_group_parity(rng) {
        let bits = vec_bool(rng, 1..120);
        let np = rng.gen_range(1u32..8);
        let out = XorCompressor::compress(np, &bits);
        for (g, &bit) in out.iter().enumerate() {
            let parity = bits[g * np as usize..(g + 1) * np as usize]
                .iter()
                .fold(false, |acc, &b| acc ^ b);
            assert_eq!(bit, parity);
        }
    }

    fn snippet_classification_is_exhaustive(rng) {
        let n_lines = rng.gen_range(1usize..4);
        let lines: Vec<Vec<bool>> = (0..n_lines)
            .map(|_| (0..12).map(|_| rng.gen::<bool>()).collect())
            .collect();
        // classify() never panics and the result is consistent with
        // the edge count of the XOR vector.
        let s = Snippet::new(lines);
        let edges = s.edge_positions().len();
        match s.classify() {
            SnippetKind::NoEdge => assert_eq!(edges, 0),
            SnippetKind::Regular => assert_eq!(edges, 1),
            SnippetKind::DoubleEdge | SnippetKind::Bubbled => assert!(edges >= 2),
        }
    }

    fn xor_vector_is_linear(rng) {
        let a: Vec<bool> = (0..16).map(|_| rng.gen::<bool>()).collect();
        let b: Vec<bool> = (0..16).map(|_| rng.gen::<bool>()).collect();
        // xor_vector of [a, b] equals elementwise a ^ b.
        let s = Snippet::new(vec![a.clone(), b.clone()]);
        let expected: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        assert_eq!(s.xor_vector(), expected);
    }

    fn packed_extractor_is_equivalent_to_golden_model(rng) {
        let n_lines = rng.gen_range(1usize..4);
        let lines: Vec<Vec<bool>> = (0..n_lines)
            .map(|_| (0..36).map(|_| rng.gen::<bool>()).collect())
            .collect();
        let k = pick(rng, &[1u32, 2, 4]);
        let filter = pick(
            rng,
            &[BubbleFilter::Priority, BubbleFilter::Majority3, BubbleFilter::None],
        );
        // Golden model over unpacked vectors: XOR stage, down-sampling,
        // bubble filter, first-edge priority encode — checked against
        // the packed word path on arbitrary captures (including
        // bubbles, double edges and no-edge words).
        let combined: Vec<bool> = (0..36)
            .map(|j| lines.iter().fold(false, |acc, l| acc ^ l[j]))
            .collect();
        let code = filter.apply(&downsample(&combined, k));
        let expected = code.windows(2).position(|w| w[0] != w[1]);
        let packed: Vec<u64> = lines
            .iter()
            .map(|l| l.iter().enumerate().fold(0u64, |w, (j, &b)| w | (u64::from(b) << j)))
            .collect();
        let got = EntropyExtractor::new(k, filter)
            .extract(&Snippet::from_packed_words(&packed, 36));
        assert_eq!(got.map(|o| o.edge_position), expected);
        assert_eq!(got.map(|o| o.bit), expected.map(|p| p % 2 == 0));
    }
}

/// Claims spanning the cutoff range: repetition cutoffs 401 down to 21.
const CLAIMS: [f64; 5] = [0.05, 0.3, 0.4215, 0.9, 1.0];

/// Packs up to 64 bits MSB-first — the word gate's stream order.
fn word_of(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |w, (i, &b)| w | u64::from(b) << (63 - i))
}

/// A word width: mostly whole words, sometimes a short tail.
fn width(rng: &mut StdRng) -> usize {
    if rng.gen_range(0u32..4) == 0 {
        rng.gen_range(1usize..=64)
    } else {
        64
    }
}

/// Stream shapes the gate must judge identically bit by bit and word
/// by word.
fn stream(rng: &mut StdRng, kind: u32, len: usize) -> Vec<bool> {
    match kind {
        0 => (0..len).map(|_| rng.gen::<bool>()).collect(),
        1 => {
            let p = pick(rng, &[0.6, 0.75, 0.9, 0.97]);
            (0..len).map(|_| rng.gen::<f64>() < p).collect()
        }
        2 => vec![false; len],
        3 => vec![true; len],
        // Campaign-like: healthy, then a drifting bias ramp, then an
        // injection-locked period with rare slips, then healthy again.
        _ => {
            let period = rng.gen_range(2usize..12);
            let pattern: Vec<bool> = (0..period).map(|_| rng.gen::<bool>()).collect();
            (0..len)
                .map(|i| match i * 4 / len {
                    0 | 3 => rng.gen::<bool>(),
                    1 => rng.gen::<f64>() < 0.5 + 0.45 * (i % (len / 4)) as f64 / (len / 4) as f64,
                    _ => pattern[i % period] ^ (rng.gen_range(0u32..64) == 0),
                })
                .collect()
        }
    }
}

/// Overwrites `bits[at..at + len]` with an exact run of `value`,
/// fenced by opposite bits so its length is exactly `len`.
fn plant_run(bits: &mut [bool], at: usize, len: usize, value: bool) {
    bits[at - 1] = !value;
    bits[at..at + len].fill(value);
    bits[at + len] = !value;
}

/// Drives the per-bit oracle and the word gate over `bits`: the first
/// `lead` bits go to both through `push` (so later words straddle
/// proportion windows), the rest in words of random width. The two
/// must agree on the whole state after every word and on the index of
/// the first alarmed bit. Returns that index.
fn word_gate_agrees_with_oracle(
    rng: &mut StdRng,
    claim: f64,
    bits: &[bool],
    lead: usize,
) -> Option<usize> {
    let mut oracle = OnlineHealth::new(claim);
    let mut gate = OnlineHealth::new(claim);
    let (mut oracle_first, mut gate_first) = (None, None);
    for (i, &b) in bits[..lead].iter().enumerate() {
        if oracle.push(b) == HealthStatus::Alarm && oracle_first.is_none() {
            oracle_first = Some(i);
        }
        let _ = gate.push(b);
    }
    gate_first = gate_first.or(oracle_first);
    let mut pos = lead;
    while pos < bits.len() {
        let w = width(rng).min(bits.len() - pos);
        let chunk = &bits[pos..pos + w];
        for (i, &b) in chunk.iter().enumerate() {
            if oracle.push(b) == HealthStatus::Alarm && oracle_first.is_none() {
                oracle_first = Some(pos + i);
            }
        }
        if let Some(at) = gate.push_word(word_of(chunk), w as u32) {
            gate_first = gate_first.or(Some(pos + at as usize));
        }
        assert_eq!(
            gate, oracle,
            "claim {claim}: state after the word at bit {pos}"
        );
        pos += w;
    }
    assert_eq!(gate_first, oracle_first, "claim {claim}: first alarm");
    oracle_first
}

props! {
    fn word_gate_matches_per_bit_gate_on_every_stream_shape(rng) {
        let lead = rng.gen_range(0usize..ADAPTIVE_PROPORTION_WINDOW as usize);
        for claim in CLAIMS {
            for kind in 0..5 {
                let bits = stream(rng, kind, lead + 4096);
                let first = word_gate_agrees_with_oracle(rng, claim, &bits, lead);
                if matches!(kind, 2 | 3) {
                    assert!(first.is_some(), "a stuck stream must alarm at claim {claim}");
                }
            }
        }
    }

    fn word_gate_matches_per_bit_gate_on_runs_straddling_words(rng) {
        let lead = rng.gen_range(0usize..64);
        for claim in CLAIMS {
            let cutoff = RepetitionCountTest::new(claim).cutoff() as usize;
            for len in [cutoff - 1, cutoff, cutoff + 1] {
                let mut bits = stream(rng, 0, lead + 2048 + 2 * cutoff);
                // Start the run so that it crosses a word boundary of
                // the word stream that begins at `lead`.
                let boundary = lead + 64 * rng.gen_range(2usize..8);
                let at = boundary - rng.gen_range(1..len.min(64));
                plant_run(&mut bits, at, len, rng.gen::<bool>());
                let first = word_gate_agrees_with_oracle(rng, claim, &bits, lead);
                if len >= cutoff {
                    assert!(first.is_some_and(|i| i < at + cutoff), "claim {claim} len {len}");
                }
            }
        }
    }

    fn xor_fold_matches_per_bit_compressor(rng) {
        let np = pick(rng, &[1u32, 2, 3, 7, 13, 64, 65, 100]);
        let bits = vec_bool(rng, 200..2000);
        let mut oracle = XorCompressor::new(np);
        let mut folded = XorCompressor::new(np);
        // A partial group is carried into the first word.
        let carried = rng.gen_range(0..bits.len().min(np as usize));
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for &b in &bits[..carried] {
            expected.extend(oracle.push(b));
            got.extend(folded.push(b));
        }
        let mut pos = carried;
        while pos < bits.len() {
            let w = width(rng).min(bits.len() - pos);
            let chunk = &bits[pos..pos + w];
            expected.extend(chunk.iter().filter_map(|&b| oracle.push(b)));
            let (out, n) = folded.push_word(word_of(chunk), w as u32);
            got.extend((0..n).map(|i| out >> (63 - i) & 1 == 1));
            assert_eq!(folded, oracle, "np {np}: state after the word at bit {pos}");
            pos += w;
        }
        assert_eq!(got, expected, "np {np}");
    }
}
