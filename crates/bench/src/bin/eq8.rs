//! Regenerates **equation (8)** and the Section 5.3 comparison with
//! the elementary TRNG: the carry-chain extractor improves throughput
//! by `(d0/tstep)² ≈ 797` for `k = 1` (and 49.8 for `k = 4`), i.e. the
//! required accumulation time drops by almost three orders of
//! magnitude at equal entropy.
//!
//! Three views of the same claim:
//!
//! 1. the closed-form factor (eq. 8);
//! 2. the model-inverted accumulation times to reach H ≥ 0.99;
//! 3. a *simulation*: empirical bit-flip entropy of both TRNGs at
//!    their respective accumulation times, showing they deliver
//!    comparable randomness while the elementary TRNG needs ~800x
//!    longer accumulation.
//!
//! ```text
//! cargo run --release -p trng-bench --bin eq8 [-- --bits 20000]
//! ```

use trng_bench::{arg_usize, scalar};
use trng_core::elementary::{ElementaryConfig, ElementaryTrng};
use trng_core::trng::{CarryChainTrng, TrngConfig};
use trng_fpga_sim::time::Ps;
use trng_model::design_space::{compare_with_elementary, improvement_factor};
use trng_model::params::PlatformParams;
use trng_stattests::bits::BitVec;
use trng_stattests::estimators::{markov_min_entropy, shannon_bias_entropy};

fn main() {
    let bits = arg_usize("--bits", 20_000);
    let platform = PlatformParams::spartan6();

    println!("Equation (8): throughput improvement over the elementary TRNG\n");
    let f1 = improvement_factor(&platform, 1);
    let f4 = improvement_factor(&platform, 4);
    println!("  k = 1: (d0/tstep)^2     = {f1:.1}   (paper: 797)");
    println!("  k = 4: (d0/(4 tstep))^2 = {f4:.1}    (paper: 49.8)\n");

    println!("Model-inverted accumulation times for H >= 0.99:");
    for k in [1u32, 4] {
        let cmp = compare_with_elementary(&platform, k, 0.99);
        println!(
            "  k = {k}: carry-chain tA = {:>10.1} ns | elementary tA = {:>12.1} ns | ratio {:>6.1}",
            cmp.t_a_carry_ps / 1e3,
            cmp.t_a_elementary_ps / 1e3,
            cmp.speedup
        );
    }
    let cmp = compare_with_elementary(&platform, 1, 0.99);
    println!(
        "  -> \"required accumulation time is reduced by 3 orders of magnitude\": {:.0}x\n",
        cmp.speedup
    );

    // Simulation: equal-entropy operation.
    println!("Simulation check ({bits} bits each):");
    let t_carry = Ps::from_ps(cmp.t_a_carry_ps);
    let t_elem = Ps::from_ps(cmp.t_a_elementary_ps);

    // Carry-chain TRNG at its model-required tA (ideal TDC so the
    // comparison isolates the extraction method, like the model does).
    let n_a = (t_carry.as_ns() / 10.0).ceil() as u32;
    let cfg = scalar(TrngConfig::ideal()).with_design(trng_model::params::DesignParams {
        n_a: n_a.max(1),
        ..trng_model::params::DesignParams::paper_k1()
    });
    let mut carry = CarryChainTrng::new(cfg, 8).expect("valid config");
    let carry_bits: BitVec = carry.generate_raw(bits).into_iter().collect();

    let elem_cfg = ElementaryConfig::best_case(t_elem);
    let mut elem = ElementaryTrng::new(elem_cfg, 9).expect("valid config");
    let elem_bits: BitVec = elem.generate(bits).into_iter().collect();

    println!(
        "  carry-chain @ tA = {:>9}: H(bias) = {:.4}, H(markov) = {:.4}",
        format!("{t_carry}"),
        shannon_bias_entropy(&carry_bits),
        markov_min_entropy(&carry_bits)
    );
    println!(
        "  elementary  @ tA = {:>9}: H(bias) = {:.4}, H(markov) = {:.4}",
        format!("{t_elem}"),
        shannon_bias_entropy(&elem_bits),
        markov_min_entropy(&elem_bits)
    );
    println!(
        "  equal quality at a {:.0}x accumulation-time gap -> {:.0}x raw throughput gain.",
        t_elem / t_carry,
        t_elem / t_carry
    );

    // And the converse: the elementary TRNG at the carry-chain's tA is
    // badly broken.
    let mut fast_elem =
        ElementaryTrng::new(ElementaryConfig::best_case(t_carry), 10).expect("valid config");
    let fast_bits: BitVec = fast_elem.generate(bits).into_iter().collect();
    println!(
        "  elementary  @ tA = {:>9}: H(markov) = {:.4}  (broken, as expected)",
        format!("{t_carry}"),
        markov_min_entropy(&fast_bits)
    );
}
