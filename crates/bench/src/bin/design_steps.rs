//! Walks the paper's complete four-step design procedure (Figure 1 /
//! Section 4.4) end-to-end against the simulated device, covering
//! experiments E7 (platform measurements), E8 (the m = 32 → 36
//! decision) and E9 (the design flow):
//!
//! 1. **Step 1** — measure platform parameters (Section 5.1);
//! 2. **Step 2** — determine design parameters from the stochastic
//!    model (Section 5.2), including the m = 32 missed-edge study;
//! 3. **Step 3** — "implement" (build the simulated TRNG, check
//!    placement and resources);
//! 4. **Step 4** — statistical evaluation (NIST battery, AIS-31,
//!    FIPS 140-2, empirical entropy).
//!
//! ```text
//! cargo run --release -p trng-bench --bin design_steps
//! ```

use trng_bench::{arg_usize, scalar};
use trng_core::resources::estimate;
use trng_core::trng::{CarryChainTrng, TrngConfig};
use trng_fpga_sim::delay_line::TappedDelayLine;
use trng_fpga_sim::process::{DeviceSeed, ProcessVariation};
use trng_fpga_sim::ring_oscillator::RingOscillatorConfig;
use trng_fpga_sim::rng::SimRng;
use trng_fpga_sim::time::Ps;
use trng_measure::measure_platform;
use trng_model::design_space::{evaluate, np_for_bias};
use trng_model::params::{DesignParams, PlatformParams};
use trng_stattests::ais31::run_ais31;
use trng_stattests::bits::BitVec;
use trng_stattests::estimators::{markov_min_entropy, mcv_min_entropy, shannon_bias_entropy};
use trng_stattests::fips140::run_fips140;
use trng_stattests::nist::run_battery;

fn main() {
    let eval_bits = arg_usize("--bits", 120_000);
    let device = DeviceSeed::new(42);

    println!("=== Step 1: measure platform parameters (Section 5.1) ===");
    let ro_config = RingOscillatorConfig {
        device,
        history_window: Ps::from_ns(4.0),
        ..RingOscillatorConfig::paper_default()
    };
    let line = TappedDelayLine::ideal(128, Ps::from_ps(17.0));
    let measured = measure_platform(&ro_config, &line, SimRng::seed_from(1)).expect("measure");
    println!(
        "  d0_LUT    = {:.1} ps   (paper: 480 ps)",
        measured.d0_lut_ps
    );
    println!(
        "  tstep     = {:.2} ps   (paper: ~17 ps)",
        measured.tstep_ps
    );
    println!(
        "  sigma_LUT = {:.2} ps   (paper: ~2 ps)",
        measured.sigma_lut_ps
    );
    let platform =
        PlatformParams::new(measured.d0_lut_ps, measured.tstep_ps, measured.sigma_lut_ps)
            .expect("measured parameters are positive");

    println!("\n=== Step 2: determine design parameters from the model ===");
    println!(
        "  edge-detection condition: m > d0/tstep = {:.1}  ->  m >= {}",
        platform.d0_lut_ps / platform.tstep_ps,
        platform.min_taps()
    );
    // The m = 32 vs 36 study (Section 5.2): under process variation
    // some devices have LUTs slower than the average; measure the
    // missed-edge rate per m across devices.
    println!("  missed-edge rate vs m (1500 samples x 6 devices, 8 % LUT sigma):");
    let process = ProcessVariation::new(0.08, 0.06, 0.01);
    for m in [28usize, 32, 36, 40] {
        let mut missed = 0u64;
        let mut total = 0u64;
        for dev in 0..6u64 {
            let mut cfg = scalar(TrngConfig::paper_k1()).with_design(DesignParams {
                m,
                ..DesignParams::paper_k1()
            });
            cfg.device = DeviceSeed::new(dev);
            cfg.process = process;
            // m = 28 violates the nominal validation; relax via a
            // faster-LUT pretend platform only for the sweep.
            if m == 28 {
                cfg.platform = PlatformParams::new(470.0, 17.0, 2.6).expect("valid");
            }
            match CarryChainTrng::new(cfg, 100 + dev) {
                Ok(mut trng) => {
                    let _ = trng.generate_raw(1500);
                    missed += trng.stats().missed_edges;
                    total += trng.stats().samples;
                }
                Err(e) => {
                    println!("    m = {m}: rejected by validation ({e})");
                    total = 0;
                    break;
                }
            }
        }
        if total > 0 {
            println!(
                "    m = {m}: {:.3} %  {}",
                missed as f64 / total as f64 * 100.0,
                if m == 32 {
                    "(paper: 0.8 % -> rejected)"
                } else if m == 36 {
                    "(paper: always captured -> chosen)"
                } else {
                    ""
                }
            );
        }
    }
    // Accumulation time and np via the model.
    let design = DesignParams::paper_k1();
    let point = evaluate(&platform, &design).expect("valid design");
    println!(
        "  chosen: n = {}, m = {}, k = {}, tA = {} ns -> model H_RAW = {:.3}",
        design.n,
        design.m,
        design.k,
        design.t_a_ps() / 1e3,
        point.h_raw
    );
    let np = np_for_bias(&platform, &design, 1e-4, 16)
        .expect("valid design")
        .map_or("> 16".to_string(), |np| np.to_string());
    println!("  model-suggested XOR rate for bias <= 1e-4: np = {np}");

    println!("\n=== Step 3: FPGA implementation (simulated) ===");
    let mut config = scalar(TrngConfig::paper_k1());
    config.device = device;
    let trng = CarryChainTrng::new(config.clone(), 7).expect("valid config");
    let breakdown = estimate(&design);
    println!(
        "  placement: delay lines in carry columns {:?}, rows 1..=9 (one clock region)",
        [4, 6, 8]
    );
    println!(
        "  resources: {} slices total (paper: 67) — osc {}, lines {}, sync {}, xor {}, encoder {}",
        breakdown.total_slices(),
        breakdown.oscillator,
        breakdown.delay_lines,
        breakdown.synchroniser,
        breakdown.xor_stage,
        breakdown.encoder
    );
    drop(trng);

    println!("\n=== Step 4: statistical evaluation ===");
    let mut trng = CarryChainTrng::new(config, 11).expect("valid config");
    let pp: BitVec = trng.generate_postprocessed(eval_bits).into_iter().collect();
    println!(
        "  generated {} post-processed bits (np = {}), missed edges: {}",
        pp.len(),
        trng.config().design.np,
        trng.stats().missed_edges
    );
    println!(
        "  empirical entropy: H(bias) = {:.4}, MCV min-H = {:.4}, Markov min-H = {:.4}",
        shannon_bias_entropy(&pp),
        mcv_min_entropy(&pp),
        markov_min_entropy(&pp)
    );
    let fips = run_fips140(&pp);
    println!("  FIPS 140-2: {fips}");
    let ais = run_ais31(&pp);
    println!("  AIS-31:\n{ais}");
    let battery = run_battery(&pp);
    println!("  NIST SP 800-22:\n{battery}");
}
