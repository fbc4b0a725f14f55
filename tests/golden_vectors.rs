//! Golden-vector regression tests.
//!
//! Every value here is a *snapshot* of the current implementation on a
//! fixed seed (simulation side) or a pinned closed-form result (model
//! side). They exist to catch unintended numeric drift: a refactor of
//! the TDC, bubble filter, extractor or model math that changes any of
//! these vectors is a behaviour change and must update the goldens
//! deliberately.

use trng_core::snippet::SnippetKind;
use trng_core::trng::{CarryChainTrng, TrngConfig, TrngStats};
use trng_fpga_sim::noise::NoiseBackend;
use trng_model::design_space::{compare_with_elementary, improvement_factor};
use trng_model::entropy::entropy_lower_bound;
use trng_model::params::PlatformParams;

/// `config` on the scalar noise engine: the replay oracle that the
/// simulation snapshots below are pinned to.
fn scalar(config: TrngConfig) -> TrngConfig {
    config.with_noise_backend(NoiseBackend::Scalar)
}

/// First 16 extracted bits of the paper's k = 1 configuration at seed
/// 2015 — the Figure-4(a) shape: a single edge that drifts smoothly
/// through the delay line (positions 25 → 17), with the extracted bit
/// equal to the parity of the bubble-filtered first-edge position.
#[test]
fn figure4_snapshot_paper_k1() {
    let mut trng = CarryChainTrng::new(scalar(TrngConfig::paper_k1()), 2015).expect("build");
    let golden_edges = [
        25, 25, 25, 25, 24, 22, 22, 22, 21, 19, 19, 18, 18, 17, 17, 17,
    ];
    let golden_bits = [
        false, false, false, false, true, true, true, true, false, false, false, true, true, false,
        false, false,
    ];
    for i in 0..16 {
        let e = trng.next_extracted().expect("edge present");
        assert_eq!(e.edge_position, golden_edges[i], "edge at sample {i}");
        assert_eq!(e.bit, golden_bits[i], "bit at sample {i}");
        assert_eq!(
            e.bit,
            e.edge_position.is_multiple_of(2),
            "parity at sample {i}"
        );
    }
}

/// Same snapshot for the k = 4 configuration: the downsampled line has
/// only 9 taps, so edge positions live in 0..9 and wrap faster.
#[test]
fn figure4_snapshot_paper_k4() {
    let mut trng = CarryChainTrng::new(scalar(TrngConfig::paper_k4()), 2015).expect("build");
    let golden_edges = [5, 4, 3, 2, 2, 2, 0, 0, 0, 0, 6, 5, 5, 5, 5, 3];
    let golden_bits = [
        false, true, false, true, true, true, true, true, true, true, true, false, false, false,
        false, false,
    ];
    for i in 0..16 {
        let e = trng.next_extracted().expect("edge present");
        assert_eq!(e.edge_position, golden_edges[i], "edge at sample {i}");
        assert_eq!(e.bit, golden_bits[i], "bit at sample {i}");
    }
}

/// Snippet-kind census over 2000 fixed-seed samples. Regular sampling
/// dominates (Figure 4's "in most cases" claim), double edges appear
/// because m·tstep = 612 ps exceeds d0 = 480 ps, bubbles are rare, and
/// no-edge words never occur at m = 36.
#[test]
fn snippet_kind_census_is_stable() {
    let mut trng = CarryChainTrng::new(scalar(TrngConfig::paper_k1()), 2015).expect("build");
    let mut counts = [0u32; 4];
    for _ in 0..2000 {
        match trng.sample_snippet().classify() {
            SnippetKind::Regular => counts[0] += 1,
            SnippetKind::DoubleEdge => counts[1] += 1,
            SnippetKind::Bubbled => counts[2] += 1,
            SnippetKind::NoEdge => counts[3] += 1,
        }
    }
    assert_eq!(counts, [1510, 487, 3, 0]);
}

/// Equation (7) worst-case entropy bound, pinned at four
/// (sigma_acc, tstep) points covering Figure 7's three curves plus the
/// paper_k4 / n_a = 5 operating point.
#[test]
fn eq7_entropy_bound_golden_values() {
    let cases = [
        (17.0, 17.0, 0.999_939_513_825_220),
        (8.5, 17.0, 0.898_424_878_735_578),
        (17.0 / 3.0, 17.0, 0.567_249_697_251_391),
        (13.0, 17.0, 0.996_354_132_932_677),
    ];
    for (sigma, tstep, golden) in cases {
        let h = entropy_lower_bound(sigma, tstep);
        assert!(
            (h - golden).abs() < 1e-12,
            "H({sigma}, {tstep}) = {h:.15}, golden {golden:.15}"
        );
    }
}

/// Equation (8) throughput-improvement factors over the elementary
/// TRNG: (d0/tstep)² = 797.23… for k = 1 and (d0/4·tstep)² = 49.83…
/// for k = 4 — the paper quotes 797 and 49.8.
#[test]
fn eq8_improvement_factors_golden() {
    let platform = PlatformParams::spartan6();
    let f1 = improvement_factor(&platform, 1);
    let f4 = improvement_factor(&platform, 4);
    // Closed form against the platform constants…
    assert!((f1 - (480.0f64 / 17.0).powi(2)).abs() < 1e-9, "f1 = {f1}");
    assert!((f4 - (480.0f64 / 68.0).powi(2)).abs() < 1e-9, "f4 = {f4}");
    // …and against the paper's quoted values.
    assert!((f1 - 797.0).abs() < 0.5, "f1 = {f1} (paper: 797)");
    assert!((f4 - 49.8).abs() < 0.05, "f4 = {f4} (paper: 49.8)");
}

/// The model-inverted comparison must agree with the closed form: the
/// accumulation-time ratio at equal target entropy IS the equation-(8)
/// factor, and the absolute times are pinned.
#[test]
fn eq8_model_inversion_golden() {
    let platform = PlatformParams::spartan6();
    for (k, factor) in [(1u32, 797.231_833_910_0), (4, 49.826_989_619_4)] {
        let cmp = compare_with_elementary(&platform, k, 0.99);
        assert!(
            (cmp.speedup - factor).abs() < 1e-6,
            "k = {k}: speedup {} vs factor {factor}",
            cmp.speedup
        );
    }
    let cmp = compare_with_elementary(&platform, 1, 0.99);
    assert!(
        (cmp.t_a_carry_ps - 9_905.184_864).abs() < 1e-3,
        "carry tA = {} ps",
        cmp.t_a_carry_ps
    );
    assert!(
        (cmp.t_a_elementary_ps - 7_896_728.694_275).abs() < 1.0,
        "elementary tA = {} ps",
        cmp.t_a_elementary_ps
    );
}

/// FNV-1a over `bytes`: a compact fingerprint for pinned byte streams.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The batched noise engine's own seeded replay: a 4 KiB `fill_raw`
/// prefix of `paper_k1` at seed 2015 and the statistics census it
/// leaves. The batched engine draws different normals than the scalar
/// one, so this stream is its own golden, not the scalar snapshot's.
#[test]
fn batched_fill_raw_snapshot_paper_k1() {
    let config = TrngConfig::paper_k1().with_noise_backend(NoiseBackend::Batched);
    let mut trng = CarryChainTrng::new(config, 2015).expect("build");
    assert_eq!(trng.active_noise_backend(), NoiseBackend::Batched);
    let mut raw = vec![0u8; 4096];
    trng.fill_raw(&mut raw);
    assert_eq!(
        raw[..16],
        [129, 179, 148, 200, 64, 192, 67, 24, 132, 117, 141, 58, 150, 64, 154, 20]
    );
    assert_eq!(fnv1a(&raw), 0xee16_3ba8_343b_7223);
    assert_eq!(
        *trng.stats(),
        TrngStats {
            samples: 32_768,
            missed_edges: 0,
            regular: 24_974,
            double_edge: 7_738,
            bubbled: 56,
        }
    );
}
