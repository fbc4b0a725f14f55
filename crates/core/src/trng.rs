//! The carry-chain TRNG — the paper's complete design (Figures 2/3/5).
//!
//! [`CarryChainTrng`] wires together the simulated substrate and the
//! extractor exactly like the hardware: a free-running `n`-stage ring
//! oscillator whose every node feeds a fast tapped delay line; on each
//! sampling clock edge (every `N_A` system-clock periods, i.e. every
//! `tA`), all lines capture simultaneously and the entropy extractor
//! decodes one raw bit from the first edge position.

use trng_fpga_sim::batch::BatchedRingEngine;
use trng_fpga_sim::delay_line::TappedDelayLine;
use trng_fpga_sim::edge_train::EdgeCursor;
use trng_fpga_sim::fabric::Fabric;
use trng_fpga_sim::noise::{
    AttackInjection, FlickerParams, GlobalModulation, NoiseBackend, NoiseConfig,
};
use trng_fpga_sim::placement::{PlacementError, TrngPlacement};
use trng_fpga_sim::primitives::CaptureFf;
use trng_fpga_sim::process::{DeviceSeed, ProcessVariation};
use trng_fpga_sim::ring_oscillator::{RingOscillator, RingOscillatorConfig};
use trng_fpga_sim::rng::SimRng;
use trng_fpga_sim::scenario::NoiseEnvironment;
use trng_fpga_sim::time::Ps;
use trng_model::params::{DesignParams, ParamError, PlatformParams};

use crate::bubble::BubbleFilter;
use crate::extractor::{EntropyExtractor, ExtractedBit};
use crate::snippet::{edge_mask, kind_index, Snippet};

use core::fmt;
use std::error::Error;

/// Full configuration of a simulated TRNG instance.
#[derive(Debug, Clone)]
pub struct TrngConfig {
    /// Platform parameters (drive the simulator's physics).
    pub platform: PlatformParams,
    /// Design parameters (n, m, k, f_CLK, N_A, np).
    pub design: DesignParams,
    /// Bubble-filter strategy of the extractor.
    pub bubble_filter: BubbleFilter,
    /// Device identity (freezes process variation).
    pub device: DeviceSeed,
    /// Process-variation magnitudes.
    pub process: ProcessVariation,
    /// Fabric geometry.
    pub fabric: Fabric,
    /// First carry column of the delay lines.
    pub start_column: u32,
    /// First slice row of the delay lines.
    pub first_row: u32,
    /// Optional flicker noise.
    pub flicker: Option<FlickerParams>,
    /// Optional global supply/temperature modulation.
    pub global: Option<GlobalModulation>,
    /// Optional attacker injection.
    pub attack: Option<AttackInjection>,
    /// Use ideal delay lines (no DNL, skew or metastability).
    ///
    /// Turns the simulation into the paper's *model* assumptions
    /// exactly — used to validate equation (3) against simulation.
    pub ideal_tdc: bool,
    /// Flip-flop metastability half-aperture (ignored when
    /// `ideal_tdc`).
    pub meta_window: Ps,
    /// How run-time noise is synthesised. [`NoiseBackend::Batched`]
    /// (default) synthesises only what each sample can see — one
    /// Gaussian jump across the ring transitions before the TDC
    /// window, then the few transitions inside it — roughly ten times
    /// faster per raw bit than [`NoiseBackend::Scalar`], the
    /// replay-exact oracle that byte pins name, and statistically
    /// equivalent to it but not byte-identical.
    pub noise_backend: NoiseBackend,
}

impl TrngConfig {
    /// The paper's `k = 1` configuration on the default device.
    pub fn paper_k1() -> Self {
        TrngConfig {
            platform: PlatformParams::spartan6(),
            design: DesignParams::paper_k1(),
            bubble_filter: BubbleFilter::Priority,
            device: DeviceSeed::new(0),
            process: ProcessVariation::default(),
            fabric: Fabric::spartan6(),
            start_column: 4,
            first_row: 1,
            flicker: Some(FlickerParams::default()),
            global: None,
            attack: None,
            ideal_tdc: false,
            // Wide enough that adjacent-tap apertures overlap on narrow
            // CARRY4 bins, reproducing Figure 4 (c) bubbles; see
            // `CaptureFf::default`.
            meta_window: Ps::from_ps(9.0),
            noise_backend: NoiseBackend::Batched,
        }
    }

    /// The paper's `k = 4` configuration (tA = 50 ns, np = 13).
    pub fn paper_k4() -> Self {
        TrngConfig {
            design: DesignParams::paper_k4(),
            ..TrngConfig::paper_k1()
        }
    }

    /// An idealized instance matching the stochastic model exactly:
    /// no process variation, no flicker, ideal TDC.
    pub fn ideal() -> Self {
        TrngConfig {
            process: ProcessVariation::NONE,
            flicker: None,
            ideal_tdc: true,
            meta_window: Ps::ZERO,
            ..TrngConfig::paper_k1()
        }
    }

    /// Sets the design, builder-style.
    pub fn with_design(mut self, design: DesignParams) -> Self {
        self.design = design;
        self
    }

    /// Sets the device seed, builder-style.
    pub fn with_device(mut self, device: DeviceSeed) -> Self {
        self.device = device;
        self
    }

    /// Sets the bubble filter, builder-style.
    pub fn with_bubble_filter(mut self, filter: BubbleFilter) -> Self {
        self.bubble_filter = filter;
        self
    }

    /// Sets the noise-synthesis backend, builder-style. Naming
    /// [`NoiseBackend::Scalar`] here is the one way to reach the
    /// replay oracle; every layer above inherits this field.
    pub fn with_noise_backend(mut self, backend: NoiseBackend) -> Self {
        self.noise_backend = backend;
        self
    }

    /// Derives the configuration of shard `index` in a multi-instance
    /// deployment on the *same* device.
    ///
    /// The paper scales throughput by instantiating parallel copies of
    /// the 67-slice design (Section 6, Table 2); the copies share the
    /// FPGA but occupy disjoint sites, so each sees its own process
    /// variation. Shards are packed left-to-right along the carry
    /// columns (each instance spans `2·n` columns) and wrap into the
    /// next clock region when a row band is full, keeping every carry
    /// chain inside a single region.
    ///
    /// Shard 0 is the base configuration itself.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTrngError::Placement`] when `index` does not fit
    /// on the fabric.
    pub fn for_shard(&self, index: u32) -> Result<TrngConfig, BuildTrngError> {
        let span = 2 * self.design.n as u32;
        let usable = self.fabric.columns.saturating_sub(self.start_column);
        let slots_per_band = (usable / span).max(1);
        let mut config = self.clone();
        config.start_column = self.start_column + (index % slots_per_band) * span;
        config.first_row =
            self.first_row + (index / slots_per_band) * self.fabric.clock_region_rows;
        // Validate the placement eagerly so an oversubscribed fabric is
        // a build error at derivation time, not at first use.
        TrngPlacement::auto(
            &config.fabric,
            config.design.n,
            config.design.m,
            config.start_column,
            config.first_row,
        )?;
        Ok(config)
    }

    /// Applies a scenario [`NoiseEnvironment`] to this configuration.
    ///
    /// `Some` overrides replace the corresponding noise source, `None`
    /// keeps the base one, and `white_sigma_scale` multiplies the
    /// platform's thermal sigma (`sigma_LUT`). The default environment
    /// returns a configuration equal to `self`.
    pub fn with_environment(&self, env: &NoiseEnvironment) -> TrngConfig {
        let mut config = self.clone();
        if let Some(f) = env.flicker {
            config.flicker = Some(f);
        }
        if let Some(g) = &env.global {
            config.global = Some(g.clone());
        }
        if let Some(a) = env.attack {
            config.attack = Some(a);
        }
        config.platform = PlatformParams {
            sigma_lut_ps: self.platform.sigma_lut_ps * env.white_sigma_scale,
            ..self.platform
        };
        config
    }

    fn noise(&self) -> NoiseConfig {
        let mut noise = NoiseConfig::white_only(Ps::from_ps(self.platform.sigma_lut_ps));
        noise.flicker = self.flicker;
        noise.global = self.global.clone();
        noise.attack = self.attack;
        noise
    }
}

impl Default for TrngConfig {
    fn default() -> Self {
        TrngConfig::paper_k1()
    }
}

/// Errors building a [`CarryChainTrng`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildTrngError {
    /// Design parameters inconsistent with the platform.
    Params(ParamError),
    /// Placement violates fabric constraints.
    Placement(PlacementError),
    /// Ring-oscillator configuration rejected.
    Oscillator(String),
    /// Delay lines of `m` taps, more than the 64 a sampled line's
    /// packed `u64` word holds.
    LineTooWide(usize),
}

impl fmt::Display for BuildTrngError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildTrngError::Params(e) => write!(f, "invalid design parameters: {e}"),
            BuildTrngError::Placement(e) => write!(f, "invalid placement: {e}"),
            BuildTrngError::Oscillator(e) => write!(f, "invalid oscillator: {e}"),
            BuildTrngError::LineTooWide(m) => write!(f, "{m}-tap delay lines exceed 64 taps"),
        }
    }
}

impl Error for BuildTrngError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildTrngError::Params(e) => Some(e),
            BuildTrngError::Placement(e) => Some(e),
            BuildTrngError::Oscillator(_) | BuildTrngError::LineTooWide(_) => None,
        }
    }
}

impl From<ParamError> for BuildTrngError {
    fn from(e: ParamError) -> Self {
        BuildTrngError::Params(e)
    }
}

impl From<PlacementError> for BuildTrngError {
    fn from(e: PlacementError) -> Self {
        BuildTrngError::Placement(e)
    }
}

/// Per-run statistics of a TRNG instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrngStats {
    /// Total snippets sampled.
    pub samples: u64,
    /// Snippets with no detectable edge (Section 5.2 failure mode).
    pub missed_edges: u64,
    /// Regular snippets (Figure 4 (a)).
    pub regular: u64,
    /// Double-edge snippets (Figure 4 (b)).
    pub double_edge: u64,
    /// Bubbled snippets (Figure 4 (c)).
    pub bubbled: u64,
}

impl TrngStats {
    /// Fraction of samples whose edge was missed.
    pub fn missed_edge_rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.missed_edges as f64 / self.samples as f64
        }
    }
}

/// The complete simulated carry-chain TRNG.
///
/// # Examples
///
/// ```
/// use trng_core::trng::{CarryChainTrng, TrngConfig};
///
/// let mut trng = CarryChainTrng::new(TrngConfig::paper_k1(), 2015)?;
/// let raw: Vec<bool> = trng.generate_raw(64);
/// assert_eq!(raw.len(), 64);
/// // Post-processed output applies the design's np = 7 XOR compression.
/// let out = trng.generate_postprocessed(8);
/// assert_eq!(out.len(), 8);
/// # Ok::<(), trng_core::trng::BuildTrngError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CarryChainTrng {
    config: TrngConfig,
    /// The one engine this instance runs; the other is never built.
    sampler: Sampler,
    extractor: EntropyExtractor,
    rng: SimRng,
    t: Ps,
    t_a: Ps,
    stats: TrngStats,
    /// One reusable packed capture word per line (`m ≤ 64`, a build
    /// rule): the hot path never allocates per sample.
    scratch_words: Vec<u64>,
}

/// The noise engine behind a [`CarryChainTrng`].
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one per instance; a box would cost a load per sample
enum Sampler {
    /// The sample-synchronous engine; it samples the lines itself.
    Batched(BatchedRingEngine),
    /// The scalar oscillator, sampled line by line through edge-train
    /// cursors (amortised O(1) signal lookups).
    Scalar {
        oscillator: RingOscillator,
        lines: Vec<TappedDelayLine>,
        cursors: Vec<EdgeCursor>,
    },
}

impl CarryChainTrng {
    /// Builds a TRNG instance with a reproducible simulation seed.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTrngError`] if the design is inconsistent with
    /// the platform, its lines are wider than 64 taps, the placement
    /// violates fabric constraints, or the oscillator configuration is
    /// invalid.
    pub fn new(config: TrngConfig, seed: u64) -> Result<Self, BuildTrngError> {
        config.design.validate(&config.platform)?;
        let n = config.design.n;
        let m = config.design.m;
        if m > 64 {
            return Err(BuildTrngError::LineTooWide(m));
        }
        let mut rng = SimRng::seed_from(seed);
        let tstep = Ps::from_ps(config.platform.tstep_ps);

        // Place the design (even for ideal TDC: placement is still
        // validated so resource accounting stays meaningful).
        let placement =
            TrngPlacement::auto(&config.fabric, n, m, config.start_column, config.first_row)?;

        // History must cover the longest line look-back plus a safety
        // margin for DNL (bins up to ~1.5x nominal) and clock skew.
        let history = Ps::from_ps(config.platform.tstep_ps * m as f64 * 2.0 + 500.0);

        let ro_config = RingOscillatorConfig {
            stages: n,
            stage_delay: Ps::from_ps(config.platform.d0_lut_ps),
            noise: config.noise(),
            process: config.process,
            device: config.device,
            base_site: (
                u64::from(placement.oscillator_site(0).x),
                u64::from(placement.oscillator_site(0).y),
            ),
            history_window: history,
            backend: NoiseBackend::Scalar,
        };
        // Drawn whichever engine runs, so a refused batched build runs
        // exactly the stream of a named `Scalar` one.
        let oscillator_rng = rng.fork();

        let lines: Vec<TappedDelayLine> = (0..n)
            .map(|i| {
                if config.ideal_tdc {
                    TappedDelayLine::ideal(m, tstep)
                } else {
                    let site = placement.carry4_site(i, 0);
                    TappedDelayLine::placed(
                        tstep,
                        config.device,
                        &config.process,
                        &config.fabric,
                        site.x,
                        site.y,
                        placement.carry4s_per_line,
                        CaptureFf::new(config.meta_window),
                    )
                }
            })
            .collect();

        let extractor = EntropyExtractor::new(config.design.k, config.bubble_filter);
        let t_a = Ps::from_ps(config.design.t_a_ps());

        // Batched backend: build the sample-synchronous engine from the
        // same ring configuration and placed lines. A layout the engine
        // refuses (non-monotone taps, a sampling window that could hold
        // more edges per node than the engine keeps) runs the scalar
        // oscillator exactly as if `Scalar` had been named: the
        // engine's fork comes from a copy, kept only on success.
        let engine = match config.noise_backend {
            NoiseBackend::Batched => {
                let mut ahead = rng.clone();
                let engine = BatchedRingEngine::new(&ro_config, &lines, ahead.fork()).ok();
                if engine.is_some() {
                    rng = ahead;
                }
                engine
            }
            NoiseBackend::Scalar => None,
        };
        let sampler = match engine {
            Some(engine) => Sampler::Batched(engine),
            None => Sampler::Scalar {
                oscillator: RingOscillator::new(ro_config, oscillator_rng)
                    .map_err(BuildTrngError::Oscillator)?,
                lines,
                cursors: vec![EdgeCursor::new(); n],
            },
        };

        Ok(CarryChainTrng {
            config,
            sampler,
            extractor,
            rng,
            t: Ps::ZERO,
            t_a,
            stats: TrngStats::default(),
            scratch_words: vec![0; n],
        })
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> &TrngConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &TrngStats {
        &self.stats
    }

    /// Current simulation time.
    pub fn now(&self) -> Ps {
        self.t
    }

    /// Advances one accumulation interval and captures every line into
    /// the packed scratch words, returning their XOR and updating the
    /// sample statistics.
    fn sample_words(&mut self) -> u64 {
        let xor = self.capture_xor();
        let mut kinds = [0; 4];
        kinds[kind_index(xor, edge_mask(self.config.design.m))] = 1;
        self.record_kinds(kinds);
        xor
    }

    /// [`sample_words`](Self::sample_words) without the statistics,
    /// which the caller accounts for. Allocation-free: both engines
    /// capture into the reused packed scratch words.
    fn capture_xor(&mut self) -> u64 {
        self.t += self.t_a;
        match &mut self.sampler {
            // Synthesis up to the sampling window + run-length sampling
            // in one call; metastability coins still come from the
            // TRNG's own RNG in ascending-tap order.
            Sampler::Batched(engine) => {
                engine.sample_words(self.t, &mut self.rng, &mut self.scratch_words)
            }
            Sampler::Scalar {
                oscillator,
                lines,
                cursors,
            } => {
                oscillator.advance_to(self.t);
                let mut xor = 0u64;
                for (i, (line, cursor)) in lines.iter().zip(cursors.iter_mut()).enumerate() {
                    let word = line.sample_into(&oscillator.node(i), self.t, cursor, &mut self.rng);
                    self.scratch_words[i] = word;
                    xor ^= word;
                }
                xor
            }
        }
    }

    /// The noise backend actually in effect: [`NoiseBackend::Batched`]
    /// only when the sample-synchronous engine was built (requested *and*
    /// the layout supports it); otherwise [`NoiseBackend::Scalar`].
    pub fn active_noise_backend(&self) -> NoiseBackend {
        match self.sampler {
            Sampler::Batched(_) => NoiseBackend::Batched,
            Sampler::Scalar { .. } => NoiseBackend::Scalar,
        }
    }

    /// Adds a census of samples, indexed by [`kind_index`], to the
    /// statistics.
    fn record_kinds(&mut self, kinds: [u64; 4]) {
        self.stats.samples += kinds.iter().sum::<u64>();
        self.stats.regular += kinds[1];
        self.stats.double_edge += kinds[2];
        self.stats.bubbled += kinds[3];
    }

    /// Advances one accumulation interval and captures the raw snippet.
    pub fn sample_snippet(&mut self) -> Snippet {
        let _ = self.sample_words();
        Snippet::from_packed_words(&self.scratch_words, self.config.design.m)
    }

    /// Generates one raw bit with full decode information.
    ///
    /// `None` means the edge was missed (counted in
    /// [`TrngStats::missed_edges`]); the hardware would emit the
    /// priority encoder's default in that case — see
    /// [`CarryChainTrng::next_raw_bit`].
    pub fn next_extracted(&mut self) -> Option<ExtractedBit> {
        let xor = self.sample_words();
        let out = self
            .extractor
            .extract_word(xor, self.config.design.m as u32);
        self.stats.missed_edges += u64::from(out.is_none());
        out
    }

    /// Generates one raw bit.
    ///
    /// On a missed edge the hardware priority encoder outputs position
    /// 0, so the bit is `true` (even-position parity); the miss is
    /// counted in [`TrngStats`].
    pub fn next_raw_bit(&mut self) -> bool {
        self.next_extracted().is_none_or(|e| e.bit)
    }

    /// Generates `count` raw (pre-compression) bits.
    pub fn generate_raw(&mut self, count: usize) -> Vec<bool> {
        (0..count).map(|_| self.next_raw_bit()).collect()
    }

    /// Generates `count` post-processed bits using the design's XOR
    /// compression rate `np` (each output bit consumes `np` raw bits).
    pub fn generate_postprocessed(&mut self, count: usize) -> Vec<bool> {
        let np = self.config.design.np;
        (0..count)
            .map(|_| {
                let mut acc = false;
                for _ in 0..np {
                    acc ^= self.next_raw_bit();
                }
                acc
            })
            .collect()
    }

    /// Fills `out` with raw (pre-compression) bits, 8 per byte, MSB
    /// first — byte `b` packs bits `8b..8b+8` of the raw stream in
    /// generation order.
    ///
    /// Equivalent to packing [`CarryChainTrng::generate_raw`] output,
    /// but allocation-free in steady state: the whole
    /// sample→extract→pack pipeline runs on reused scratch words.
    ///
    /// Each step samples, decodes and packs a window in one loop, and
    /// the statistics census (samples, snippet kinds, missed edges) is
    /// added to [`TrngStats`] once per call; the result and the
    /// statistics after the call are those of
    /// [`next_raw_bit`](Self::next_raw_bit) called `8 · out.len()`
    /// times.
    pub fn fill_raw(&mut self, out: &mut [u8]) {
        let m = self.config.design.m;
        let edges = edge_mask(m);
        let mut kinds = [0u64; 4];
        let mut missed = 0u64;
        for byte in out.iter_mut() {
            let mut b = 0u8;
            for _ in 0..8 {
                let xor = self.capture_xor();
                kinds[kind_index(xor, edges)] += 1;
                let decoded = self.extractor.extract_word(xor, m as u32);
                missed += u64::from(decoded.is_none());
                b = b << 1 | u8::from(decoded.is_none_or(|e| e.bit));
            }
            *byte = b;
        }
        self.record_kinds(kinds);
        self.stats.missed_edges += missed;
    }

    /// Fills `out` with post-processed bytes: every output bit is the
    /// XOR of `np` raw bits (the design's compression), packed 8 per
    /// byte, MSB first.
    ///
    /// Equivalent to packing [`CarryChainTrng::generate_postprocessed`]
    /// output, but allocation-free in steady state.
    pub fn fill_postprocessed(&mut self, out: &mut [u8]) {
        let np = self.config.design.np;
        for byte in out {
            let mut b = 0u8;
            for _ in 0..8 {
                let mut acc = false;
                for _ in 0..np {
                    acc ^= self.next_raw_bit();
                }
                b = b << 1 | u8::from(acc);
            }
            *byte = b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_overrides_replace_and_scale() {
        use trng_fpga_sim::noise::AttackInjection;

        let base = TrngConfig::paper_k1();
        let identity = base.with_environment(&NoiseEnvironment::default());
        assert_eq!(identity.platform, base.platform);
        assert_eq!(identity.flicker, base.flicker);
        assert_eq!(identity.attack, base.attack);

        let env = NoiseEnvironment {
            attack: Some(AttackInjection::locking(1e12 / 480.0, 0.5)),
            white_sigma_scale: 0.5,
            ..NoiseEnvironment::default()
        };
        let out = base.with_environment(&env);
        assert_eq!(out.attack, env.attack);
        assert_eq!(out.flicker, base.flicker, "None keeps base flicker");
        assert!((out.platform.sigma_lut_ps - base.platform.sigma_lut_ps * 0.5).abs() < 1e-12);
        assert_eq!(out.platform.d0_lut_ps, base.platform.d0_lut_ps);
    }

    #[test]
    fn paper_k1_generates_balanced_bits() {
        let mut trng = CarryChainTrng::new(TrngConfig::paper_k1(), 1).expect("build");
        let bits = trng.generate_raw(4000);
        let ones = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        // H_RAW ~ 0.99 -> worst-case model bias ~ 0.06, but the CARRY4
        // structural DNL adds a parity imbalance of ~0.1 (this is the
        // non-linearity that makes the paper compress with np = 7).
        assert!((ones - 0.5).abs() < 0.16, "ones fraction {ones}");
        assert_eq!(trng.stats().samples, 4000);
        // m = 36 never misses the edge (Section 5.2).
        assert_eq!(trng.stats().missed_edges, 0);
    }

    #[test]
    fn ideal_instance_matches_model_entropy_roughly() {
        // With an ideal TDC and no coloured noise, the bit probability
        // tracks eq (3); at tA = 20 ns the bits are essentially fair.
        let cfg = TrngConfig::ideal().with_design(DesignParams {
            n_a: 2,
            ..DesignParams::paper_k1()
        });
        let mut trng = CarryChainTrng::new(cfg, 7).expect("build");
        let bits = trng.generate_raw(6000);
        let ones = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        assert!((ones - 0.5).abs() < 0.05, "ones fraction {ones}");
    }

    #[test]
    fn k4_low_ta_is_heavily_biased_or_sticky() {
        // Table 1: k = 4, tA = 10 ns has H_RAW = 0.03. To expose the
        // low entropy directly, pin the deterministic phase drift to
        // zero by making tA an exact multiple of the stage delay
        // (d0 = 10 ns / 21); the edge position then only moves by the
        // accumulated jitter (~9 ps/sample), far less than the 68 ps
        // combined bin, so consecutive bits rarely flip.
        let mut cfg = TrngConfig::ideal().with_design(DesignParams {
            k: 4,
            n_a: 1,
            np: 1,
            ..DesignParams::paper_k4()
        });
        cfg.platform = PlatformParams::new(10_000.0 / 21.0, 17.0, 2.6).expect("valid platform");
        let mut trng = CarryChainTrng::new(cfg, 3).expect("build");
        let bits = trng.generate_raw(2000);
        // Count bit flips: a healthy source flips ~50 %, this one far less.
        let flips =
            bits.windows(2).filter(|w| w[0] != w[1]).count() as f64 / (bits.len() - 1) as f64;
        assert!(flips < 0.25, "flip rate {flips}");
    }

    #[test]
    fn sample_snippet_classification_accumulates() {
        let mut trng = CarryChainTrng::new(TrngConfig::paper_k1(), 11).expect("build");
        for _ in 0..500 {
            let _ = trng.sample_snippet();
        }
        let s = trng.stats();
        assert_eq!(s.samples, 500);
        // Classified kinds never exceed the sample count (the remainder
        // are no-edge snippets, none expected at m = 36).
        assert!(s.regular + s.double_edge + s.bubbled <= 500);
        // Regular sampling dominates (Figure 4 (a) is "most cases").
        assert!(s.regular > 250, "regular {}", s.regular);
    }

    #[test]
    fn postprocessed_output_is_less_biased() {
        let cfg = TrngConfig::ideal().with_design(DesignParams {
            k: 4,
            n_a: 5,
            np: 13,
            ..DesignParams::paper_k4()
        });
        let mut trng = CarryChainTrng::new(cfg, 5).expect("build");
        let bits = trng.generate_postprocessed(2000);
        let ones = bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64;
        assert!((ones - 0.5).abs() < 0.05, "ones fraction {ones}");
    }

    #[test]
    fn missed_edges_appear_with_short_lines() {
        // m = 32 on a device with a slow LUT: the paper observed 0.8 %
        // missed edges and attributed them to LUTs slower than the
        // average d0. Find a fabricated device whose slowest stage
        // delay exceeds the 32-bin window (544 ps nominal), then show
        // the edge is sometimes missed on exactly that device.
        let process = ProcessVariation::new(0.08, 0.06, 0.01);
        let placement_x = 4u64; // oscillator sites are (4, 0), (6, 0), (8, 0)
        let slow_device = (0..5000u64)
            .map(DeviceSeed::new)
            .find(|&dev| {
                (0..3).any(|i| {
                    process.delay_multiplier(dev, placement_x + 2 * i, 0) > 544.0 / 480.0 + 0.01
                })
            })
            .expect("a device with a slow LUT exists among 5000");
        let cfg = TrngConfig {
            device: slow_device,
            process,
            ..TrngConfig::paper_k1()
        }
        .with_design(DesignParams {
            m: 32,
            ..DesignParams::paper_k1()
        });
        let mut trng = CarryChainTrng::new(cfg, 17).expect("build");
        let _ = trng.generate_raw(3000);
        let rate = trng.stats().missed_edge_rate();
        assert!(rate > 0.0, "expected some missed edges at m = 32");
        assert!(rate < 0.2, "missed-edge rate implausibly high: {rate}");
    }

    #[test]
    fn m36_never_misses() {
        for dev in 0..4 {
            let cfg = TrngConfig {
                device: DeviceSeed::new(dev),
                ..TrngConfig::paper_k1()
            };
            let mut trng = CarryChainTrng::new(cfg, dev).expect("build");
            let _ = trng.generate_raw(500);
            assert_eq!(trng.stats().missed_edges, 0, "device {dev}");
        }
    }

    #[test]
    fn build_errors_are_reported() {
        let bad = TrngConfig::paper_k1().with_design(DesignParams {
            m: 28,
            ..DesignParams::paper_k1()
        });
        assert!(matches!(
            CarryChainTrng::new(bad, 0),
            Err(BuildTrngError::Params(_))
        ));
        let bad = TrngConfig {
            start_column: 5, // odd column: no carry chain
            ..TrngConfig::paper_k1()
        };
        assert!(matches!(
            CarryChainTrng::new(bad, 0),
            Err(BuildTrngError::Placement(_))
        ));
        // A valid design whose lines do not pack into one word.
        let wide = TrngConfig::paper_k1().with_design(DesignParams {
            m: 68,
            ..DesignParams::paper_k1()
        });
        assert!(wide.design.validate(&wide.platform).is_ok());
        assert_eq!(
            CarryChainTrng::new(wide, 0).err(),
            Some(BuildTrngError::LineTooWide(68))
        );
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let mut a = CarryChainTrng::new(TrngConfig::paper_k1(), 99).expect("build");
        let mut b = CarryChainTrng::new(TrngConfig::paper_k1(), 99).expect("build");
        assert_eq!(a.generate_raw(200), b.generate_raw(200));
        let mut c = CarryChainTrng::new(TrngConfig::paper_k1(), 100).expect("build");
        assert_ne!(a.generate_raw(200), c.generate_raw(200));
    }

    #[test]
    fn for_shard_places_disjoint_instances() {
        let base = TrngConfig::paper_k1();
        // n = 3 -> 6 columns per shard, start column 4, 64-column
        // fabric: 10 shards per 16-row clock region.
        let s0 = base.for_shard(0).expect("shard 0");
        assert_eq!(s0.start_column, base.start_column);
        assert_eq!(s0.first_row, base.first_row);
        let s1 = base.for_shard(1).expect("shard 1");
        assert_eq!(s1.start_column, base.start_column + 6);
        assert_eq!(s1.first_row, base.first_row);
        let s10 = base.for_shard(10).expect("shard 10");
        assert_eq!(s10.start_column, base.start_column);
        assert_eq!(s10.first_row, base.first_row + 16);
        // Every derived shard must actually build.
        for i in 0..8 {
            let cfg = base.for_shard(i).expect("derive");
            assert!(CarryChainTrng::new(cfg, 1).is_ok(), "shard {i} builds");
        }
        // Shards on the same device see different process variation, so
        // identical simulation seeds still produce distinct streams.
        let mut a = CarryChainTrng::new(base.for_shard(0).expect("cfg"), 7).expect("build");
        let mut b = CarryChainTrng::new(base.for_shard(1).expect("cfg"), 7).expect("build");
        assert_ne!(a.generate_raw(256), b.generate_raw(256));
    }

    #[test]
    fn for_shard_rejects_off_fabric_indices() {
        let base = TrngConfig::paper_k1();
        // 10 slots per band x 8 bands fit; far beyond must fail.
        assert!(matches!(
            base.for_shard(1000),
            Err(BuildTrngError::Placement(_))
        ));
    }

    #[test]
    fn batched_falls_back_to_scalar_when_a_node_window_could_overflow() {
        // 20 ps LUTs clamp at 1 ps, so the 36-tap sampling window could
        // see hundreds of edges of one node: more than the engine's
        // per-node array holds. The build falls back to scalar.
        let batched = TrngConfig::paper_k1().with_noise_backend(NoiseBackend::Batched);
        let mut fast = batched.clone();
        fast.platform.d0_lut_ps = 20.0;
        let mut trng = CarryChainTrng::new(fast.clone(), 3).expect("build");
        assert_eq!(trng.active_noise_backend(), NoiseBackend::Scalar);
        let raw = trng.generate_raw(16);
        assert_eq!(raw.len(), 16);
        // The label is exact: the refused build runs the very stream
        // and census of an instance that names the scalar engine.
        let scalar = fast.with_noise_backend(NoiseBackend::Scalar);
        let mut oracle = CarryChainTrng::new(scalar, 3).expect("build");
        assert_eq!(raw, oracle.generate_raw(16));
        assert_eq!(trng.generate_raw(4096), oracle.generate_raw(4096));
        assert_eq!(trng.stats(), oracle.stats());
        let paper = CarryChainTrng::new(batched, 3).expect("build");
        assert_eq!(paper.active_noise_backend(), NoiseBackend::Batched);
    }

    #[test]
    fn stats_missed_edge_rate() {
        let s = TrngStats {
            samples: 1000,
            missed_edges: 8,
            ..TrngStats::default()
        };
        assert!((s.missed_edge_rate() - 0.008).abs() < 1e-12);
        assert_eq!(TrngStats::default().missed_edge_rate(), 0.0);
    }
}
