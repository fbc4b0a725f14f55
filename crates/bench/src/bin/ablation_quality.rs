//! Quality ablations of the design choices DESIGN.md calls out,
//! judged by the entropy estimates of the bits each variant produces:
//!
//! 1. bubble-filter strategy (paper: priority decode);
//! 2. clock-region placement constraint (paper Section 5.2);
//! 3. XOR vs Von Neumann post-processing (paper Section 4.5);
//! 4. flicker-noise amplitude (the paper's unquantified noise);
//! 5. ring length n (the paper: "doesn't figure in the entropy
//!    model", chosen minimal for area).
//!
//! ```text
//! cargo run --release -p trng-bench --bin ablation_quality [-- --bits 40000]
//! ```

use trng_bench::arg_usize;
use trng_core::bubble::BubbleFilter;
use trng_core::postprocess::XorCompressor;
use trng_core::trng::{CarryChainTrng, TrngConfig};
use trng_core::von_neumann::VonNeumann;
use trng_fpga_sim::noise::FlickerParams;
use trng_fpga_sim::time::Ps;
use trng_model::params::DesignParams;
use trng_stattests::bits::BitVec;
use trng_stattests::estimators::{markov_min_entropy, shannon_bias_entropy};

fn stats_of(raw: &[bool]) -> (f64, f64) {
    let bv: BitVec = raw.iter().copied().collect();
    (shannon_bias_entropy(&bv), markov_min_entropy(&bv))
}

fn main() {
    let bits = arg_usize("--bits", 40_000);
    println!("quality ablations ({bits} raw bits per variant)\n");

    // 1. Bubble filters.
    println!("1. bubble-filter strategy (k = 1, tA = 10 ns raw bits):");
    for (label, filter) in [
        ("priority (paper)", BubbleFilter::Priority),
        ("majority3", BubbleFilter::Majority3),
        ("none", BubbleFilter::None),
    ] {
        let cfg = TrngConfig::paper_k1().with_bubble_filter(filter);
        let mut trng = CarryChainTrng::new(cfg, 1).expect("valid");
        let raw = trng.generate_raw(bits);
        let (h, m) = stats_of(&raw);
        println!(
            "   {label:<18} H(bias) = {h:.4}  H(markov) = {m:.4}  bubbled snippets = {}",
            trng.stats().bubbled
        );
    }

    // 2. Clock-region placement.
    println!("\n2. clock-region constraint (chain rows 1..=9 vs 12..=20):");
    for (label, first_row) in [("single region (paper)", 1u32), ("crosses boundary", 12u32)] {
        let mut cfg = TrngConfig::paper_k1();
        cfg.first_row = first_row;
        let mut trng = CarryChainTrng::new(cfg, 2).expect("valid");
        let raw = trng.generate_raw(bits);
        let (h, m) = stats_of(&raw);
        println!("   {label:<22} H(bias) = {h:.4}  H(markov) = {m:.4}");
    }

    // 3. XOR vs Von Neumann post-processing.
    println!("\n3. post-processing (same {bits}-bit raw stream, k = 1):");
    let mut trng = CarryChainTrng::new(TrngConfig::paper_k1(), 3).expect("valid");
    let raw = trng.generate_raw(bits);
    let (h_raw, m_raw) = stats_of(&raw);
    println!("   raw                H(bias) = {h_raw:.4}  H(markov) = {m_raw:.4}  rate = 1.000");
    for np in [4u32, 7] {
        let out = XorCompressor::compress(np, &raw);
        let (h, m) = stats_of(&out);
        println!(
            "   xor np = {np:<10} H(bias) = {h:.4}  H(markov) = {m:.4}  rate = {:.3}",
            1.0 / f64::from(np)
        );
    }
    let vn = VonNeumann::extract(&raw);
    let (h, m) = stats_of(&vn);
    println!(
        "   von neumann        H(bias) = {h:.4}  H(markov) = {m:.4}  rate = {:.3} (data-dependent)",
        vn.len() as f64 / raw.len() as f64
    );
    println!("   -> XOR gives a *fixed* rate (hardware-friendly, the paper's choice);");
    println!("      Von Neumann's rate floats with the bias and assumes independence.");

    // 4. Flicker amplitude.
    println!("\n4. flicker-noise amplitude (sigma of the OU delay process):");
    for sigma_fl in [0.0f64, 0.5, 2.0, 8.0] {
        let mut cfg = TrngConfig::paper_k1();
        cfg.flicker = if sigma_fl == 0.0 {
            None
        } else {
            Some(FlickerParams::new(Ps::from_ps(sigma_fl), Ps::from_us(1.0)))
        };
        let mut trng = CarryChainTrng::new(cfg, 4).expect("valid");
        let raw = trng.generate_raw(bits);
        let (h, m) = stats_of(&raw);
        println!("   sigma_fl = {sigma_fl:>4.1} ps    H(bias) = {h:.4}  H(markov) = {m:.4}");
    }
    println!("   -> flicker shifts tau slowly; the worst-case model (tau = 0) already");
    println!("      covers it, which is why the paper leaves it unquantified.");

    // 5. Ring length.
    println!("\n5. ring length n (the model says n is irrelevant to entropy):");
    for n in [3usize, 5, 7] {
        let cfg = TrngConfig::paper_k1().with_design(DesignParams {
            n,
            ..DesignParams::paper_k1()
        });
        let mut trng = CarryChainTrng::new(cfg, 5).expect("valid");
        let raw = trng.generate_raw(bits);
        let (h, m) = stats_of(&raw);
        let slices = trng_core::resources::estimate(&trng.config().design).total_slices();
        println!("   n = {n}: H(bias) = {h:.4}  H(markov) = {m:.4}  area = {slices} slices");
    }
    println!("   -> entropy flat in n, area grows: the paper picks the smallest n");
    println!("      whose frequency/jitter could still be measured (n = 3).");

    // 6. Device yield.
    println!("\n6. device-to-device yield (20 fabricated devices, m = 36):");
    let mut h_values = Vec::new();
    let mut total_missed = 0u64;
    for dev in 0..20u64 {
        let cfg = TrngConfig::paper_k1().with_device(trng_fpga_sim::process::DeviceSeed::new(dev));
        let mut trng = CarryChainTrng::new(cfg, 600 + dev).expect("valid");
        let raw = trng.generate_raw(bits / 2);
        let (h, _) = stats_of(&raw);
        h_values.push(h);
        total_missed += trng.stats().missed_edges;
    }
    h_values.sort_by(f64::total_cmp);
    println!(
        "   H(bias): min {:.4} / median {:.4} / max {:.4}; missed edges across all: {}",
        h_values[0],
        h_values[h_values.len() / 2],
        h_values[h_values.len() - 1],
        total_missed
    );
    println!("   -> every device meets the entropy band at m = 36 (the 4-CARRY4");
    println!("      margin absorbs process spread) — the paper's robustness claim.");

    // 7. Carry-chain TRNG vs simplified self-timed ring (reference [1]).
    println!("\n7. carry-chain vs self-timed ring (Table 2's fastest competitor):");
    let mut str_trng = trng_core::self_timed::SelfTimedTrng::new(
        trng_core::self_timed::SelfTimedConfig::reference(),
        8,
    )
    .expect("valid");
    let str_bits = str_trng.generate(bits);
    let (h_str, m_str) = stats_of(&str_bits);
    let mut cc = CarryChainTrng::new(TrngConfig::paper_k1(), 8).expect("valid");
    let cc_bits = cc.generate_raw(bits);
    let (h_cc, m_cc) = stats_of(&cc_bits);
    println!(
        "   self-timed ring (511 st) H(bias) = {h_str:.4}  H(markov) = {m_str:.4}  area > 511 LUTs"
    );
    println!(
        "   carry-chain (this work)  H(bias) = {h_cc:.4}  H(markov) = {m_cc:.4}  area = 67 slices"
    );
    println!(
        "   -> comparable per-bit quality at ~{:.1} ps effective resolution each,",
        trng_core::self_timed::SelfTimedConfig::reference()
            .resolution()
            .as_ps()
    );
    println!("      but the STR pays for resolution with stages, the carry chain with");
    println!("      sampling taps — the paper's core area argument.");
}
