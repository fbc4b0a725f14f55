//! Equivalence suite for the packed, allocation-free sampling hot
//! path: across seeded sweeps of (n, m, k, np), on both noise engines,
//! the batch byte APIs must reproduce the per-bit path
//! (`generate_raw`, `generate_postprocessed`) bit for bit, with
//! identical statistics — batching is a layout change, never a
//! semantic one.

use trng_core::trng::{CarryChainTrng, TrngConfig};
use trng_fpga_sim::noise::NoiseBackend;
use trng_model::params::DesignParams;

/// Packs a bit vector MSB-first, 8 bits per byte — the byte
/// convention of `fill_raw` / `fill_postprocessed`.
fn pack(bits: &[bool]) -> Vec<u8> {
    bits.chunks(8)
        .map(|c| c.iter().fold(0u8, |b, &bit| b << 1 | u8::from(bit)))
        .collect()
}

/// The (n, m, k, np) sweep: every combination is a valid design on
/// the paper's platform (m multiple of 4 and of k, m·tstep > d0,
/// n odd, placement fits the fabric). m = 64 is the widest line a
/// build accepts, where the edge mask is `u64::MAX >> 1`.
fn sweep_configs() -> Vec<(TrngConfig, String)> {
    let mut configs = Vec::new();
    for &n in &[3usize, 5] {
        for &m in &[32usize, 36, 48, 64] {
            for &k in &[1u32, 2, 4] {
                for &np in &[1u32, 7] {
                    if !m.is_multiple_of(k as usize) {
                        continue;
                    }
                    let design = DesignParams {
                        n,
                        m,
                        k,
                        np,
                        ..DesignParams::paper_k1()
                    };
                    let config = TrngConfig::paper_k1().with_design(design);
                    configs.push((config, format!("n={n} m={m} k={k} np={np}")));
                }
            }
        }
    }
    configs
}

#[test]
fn fill_raw_matches_generate_raw_across_sweep() {
    for backend in [NoiseBackend::Scalar, NoiseBackend::Batched] {
        for (i, (config, label)) in sweep_configs().into_iter().enumerate() {
            let seed = 1000 + i as u64;
            let config = config.with_noise_backend(backend);
            let mut a = CarryChainTrng::new(config.clone(), seed).expect("build");
            let mut b = CarryChainTrng::new(config, seed).expect("build");
            assert_eq!(b.active_noise_backend(), backend, "{label}");

            let reference = pack(&a.generate_raw(32 * 8));
            let mut batch = vec![0u8; 32];
            b.fill_raw(&mut batch);
            assert_eq!(batch, reference, "{backend:?} {label} seed {seed}");
            assert_eq!(a.stats(), b.stats(), "{backend:?} {label} stats diverged");
        }
    }
}

#[test]
fn fill_postprocessed_matches_generate_postprocessed_across_sweep() {
    for backend in [NoiseBackend::Scalar, NoiseBackend::Batched] {
        for (i, (config, label)) in sweep_configs().into_iter().enumerate() {
            let seed = 2000 + i as u64;
            let config = config.with_noise_backend(backend);
            let mut a = CarryChainTrng::new(config.clone(), seed).expect("build");
            let mut b = CarryChainTrng::new(config, seed).expect("build");

            let reference = pack(&a.generate_postprocessed(8 * 8));
            let mut batch = vec![0u8; 8];
            b.fill_postprocessed(&mut batch);
            assert_eq!(batch, reference, "{backend:?} {label} seed {seed}");
            assert_eq!(a.stats(), b.stats(), "{backend:?} {label} stats diverged");
        }
    }
}

#[test]
fn snippet_and_extracted_paths_stay_interleavable() {
    // Mixing the Snippet-materializing API with the packed extraction
    // API must not disturb the stream: both consume the simulator in
    // the same way.
    let mut a = CarryChainTrng::new(TrngConfig::paper_k1(), 77).expect("build");
    let mut b = CarryChainTrng::new(TrngConfig::paper_k1(), 77).expect("build");
    let mut bits_a = Vec::new();
    for i in 0..256 {
        if i % 3 == 0 {
            // Snippet path: classify + extract manually.
            let snippet = a.sample_snippet();
            let ext = trng_core::extractor::EntropyExtractor::new(
                a.config().design.k,
                a.config().bubble_filter,
            );
            bits_a.push(ext.extract(&snippet).is_none_or(|e| e.bit));
        } else {
            bits_a.push(a.next_raw_bit());
        }
    }
    let bits_b = b.generate_raw(256);
    // The Snippet path skips the missed-edge counter, but the bits and
    // sample counts must match exactly.
    assert_eq!(bits_a, bits_b);
    assert_eq!(a.stats().samples, b.stats().samples);
    assert_eq!(a.stats().regular, b.stats().regular);
    assert_eq!(a.stats().bubbled, b.stats().bubbled);
    assert_eq!(a.stats().double_edge, b.stats().double_edge);
}

#[test]
fn ideal_config_also_equivalent() {
    // meta_window = 0 takes the deterministic-capture early return —
    // the other half of the capture code path.
    for backend in [NoiseBackend::Scalar, NoiseBackend::Batched] {
        let config = TrngConfig::ideal().with_noise_backend(backend);
        let mut a = CarryChainTrng::new(config.clone(), 5).expect("build");
        let mut b = CarryChainTrng::new(config, 5).expect("build");
        let reference = pack(&a.generate_raw(64 * 8));
        let mut batch = vec![0u8; 64];
        b.fill_raw(&mut batch);
        assert_eq!(batch, reference, "{backend:?}");
    }
}
