//! A betrusted-style dual-oscillator backend: slow free-running ring
//! oscillators sampled on a divided fast-RO clock.
//!
//! The layout follows the betrusted-EC ring-oscillator TRNG: several
//! *slow* rings (on real silicon, long die-circumscribing loops whose
//! accumulated jitter dominates) free-run while a *fast* ring provides
//! the sampling clock. Every `divider`-th edge of the fast ring
//! defines a sample instant; the raw bit is the XOR of the slow
//! rings' output levels at that instant. Between consecutive samples
//! each slow ring accumulates white phase jitter over many stage
//! transits, so the sampled phase performs a random walk modulo the
//! slow period — Saarinen's model ("On Entropy and Bit Patterns of
//! Ring Oscillator Jitter", PAPERS.md) bounds the per-bit entropy
//! from the relative accumulated jitter, and XOR across independent
//! rings sharpens the bound through the piling-up lemma.
//!
//! Both rings are the *event-driven* simulator primitives from
//! `trng-fpga-sim` ([`RingOscillator`]): every stage transit is an
//! explicit event, so injected attacks (periodic modulation, injection
//! locking) propagate into the sampled stream exactly as they would in
//! the carry-chain TDC path.

use std::collections::VecDeque;

use trng_fpga_sim::process::DeviceSeed;
use trng_fpga_sim::ring_oscillator::{RingOscillator, RingOscillatorConfig};
use trng_fpga_sim::rng::SimRng;
use trng_fpga_sim::time::Ps;

use crate::source::{mix_seed, CaptureStats, EntropySource, SourceError, SourceFault, SourceKind};

/// Geometry of a dual-oscillator sampler.
#[derive(Debug, Clone)]
pub struct DualOscConfig {
    /// Configuration of each slow (sampled) ring. The `device` field
    /// is a base identity; ring `i` runs as a distinct device derived
    /// from it so process variation spreads the ring periods apart.
    pub slow: RingOscillatorConfig,
    /// How many independent slow rings are XORed per raw bit.
    pub slow_rings: usize,
    /// Configuration of the fast (sampling) ring.
    pub fast: RingOscillatorConfig,
    /// A sample is taken every `divider`-th edge of the fast ring.
    pub divider: u32,
    /// The backend's natural XOR-compression rate (what
    /// `Conditioning::DesignXor` resolves to for this source).
    pub xor_rate: u32,
}

impl DualOscConfig {
    /// A betrusted-flavoured default: three slow 3-stage rings at
    /// 3.3 ns/stage (T_slow ≈ 19.8 ns) with 90 ps white jitter per
    /// stage, sampled every 15th edge of a 3-stage 1.6 ns/stage fast
    /// ring (τ ≈ 72 ns, so the sweep fraction τ/T_slow lands near the
    /// golden ratio and the phase walk equidistributes quickly).
    pub fn betrusted_default() -> Self {
        let mut slow = RingOscillatorConfig::paper_default();
        slow.stages = 3;
        slow.stage_delay = Ps::from_ns(3.3);
        slow.noise = trng_fpga_sim::noise::NoiseConfig::white_only(Ps::from_ps(90.0));
        slow.history_window = Ps::from_ns(4.0);
        let mut fast = RingOscillatorConfig::paper_default();
        fast.stages = 3;
        fast.stage_delay = Ps::from_ns(1.6);
        fast.noise = trng_fpga_sim::noise::NoiseConfig::white_only(Ps::from_ps(9.0));
        fast.history_window = Ps::from_ns(256.0);
        DualOscConfig {
            slow,
            slow_rings: 3,
            fast,
            divider: 15,
            xor_rate: 7,
        }
    }

    /// Nominal slow-ring period `2 · stages · stage_delay`.
    pub fn slow_period(&self) -> Ps {
        Ps::from_ps(2.0 * self.slow.stages as f64 * self.slow.stage_delay.as_ps())
    }

    /// Nominal interval between sample instants: `divider` fast-ring
    /// half-periods (node edges alternate once per half-period).
    pub fn sample_interval(&self) -> Ps {
        Ps::from_ps(self.divider as f64 * self.fast.stages as f64 * self.fast.stage_delay.as_ps())
    }

    /// Validates the geometry, including the sampler-ratio bounds: the
    /// fast ring must actually be faster than the slow one, and the
    /// fractional sweep per sample must stay away from 0 and 1 (a
    /// near-integer ratio resamples the same phase and the entropy
    /// claim collapses).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated bound.
    pub fn validate(&self) -> Result<(), String> {
        self.slow
            .validate()
            .map_err(|e| format!("slow ring: {e}"))?;
        self.fast
            .validate()
            .map_err(|e| format!("fast ring: {e}"))?;
        if self.slow_rings == 0 {
            return Err("need at least one slow ring".into());
        }
        if self.divider == 0 {
            return Err("sampling divider must be at least 1".into());
        }
        if self.xor_rate == 0 {
            return Err("xor rate must be at least 1".into());
        }
        let fast_period = 2.0 * self.fast.stages as f64 * self.fast.stage_delay.as_ps();
        let slow_period = self.slow_period().as_ps();
        if fast_period >= slow_period {
            return Err(format!(
                "fast ring period ({fast_period} ps) must be below the slow period \
                 ({slow_period} ps) — the sampler must out-run the sampled ring"
            ));
        }
        let sweep = self.sample_interval().as_ps() / slow_period;
        let frac = sweep.fract();
        if !(0.05..=0.95).contains(&frac) {
            return Err(format!(
                "sweep fraction frac(τ/T_slow) = {frac:.3} is too close to an integer \
                 ratio; pick a divider so it falls in [0.05, 0.95]"
            ));
        }
        Ok(())
    }

    /// Saarinen-style worst-case min-entropy claim per raw bit.
    ///
    /// Accumulated jitter over one sampling interval: the slow ring
    /// transits `τ / d_slow` stages, each adding white sigma, and the
    /// fast ring's `divider · stages` transits jitter the sample
    /// instant itself. With relative sigma `σ_rel = σ_acc / T_slow`,
    /// the predictability bias of one sampled ring is bounded by
    /// `b = (2/π)·exp(−2π²σ_rel²)`, XOR across `R` rings piles up to
    /// `ε = ½·(2·min(b, ½))^R`, and the claim is half the resulting
    /// min-entropy, floored at the same 0.05 the carry-chain claim
    /// uses. For realistic parameters the floor is what you get —
    /// consistent with the deliberately conservative carry-chain
    /// claim.
    pub fn claimed_min_entropy(&self) -> f64 {
        let tau = self.sample_interval().as_ps();
        let slow_sigma = self.slow.noise.white.sigma().as_ps();
        let fast_sigma = self.fast.noise.white.sigma().as_ps();
        let slow_transits = tau / self.slow.stage_delay.as_ps();
        let fast_transits = (self.divider as f64) * self.fast.stages as f64;
        let acc_var =
            slow_sigma * slow_sigma * slow_transits + fast_sigma * fast_sigma * fast_transits;
        let sigma_rel = acc_var.sqrt() / self.slow_period().as_ps();
        let b = (2.0 / core::f64::consts::PI)
            * (-2.0 * core::f64::consts::PI.powi(2) * sigma_rel * sigma_rel).exp();
        let eps = 0.5 * (2.0 * b.min(0.5)).powi(self.slow_rings as i32);
        let h = -(0.5 + eps).log2();
        (h * 0.5).clamp(0.05, 1.0)
    }
}

impl Default for DualOscConfig {
    fn default() -> Self {
        DualOscConfig::betrusted_default()
    }
}

/// State of one live sampler instance (replaced wholesale on rebuild).
#[derive(Debug)]
struct Sampler {
    slow: Vec<RingOscillator>,
    fast: RingOscillator,
    /// How far the fast ring has been scanned for sampling edges.
    scan_to: Ps,
    /// Fast-ring edges seen so far (for the divider).
    edge_count: u64,
    /// Sample instants discovered but not yet consumed.
    pending: VecDeque<Ps>,
    /// Time of the most recently consumed sample instant.
    t_now: Ps,
}

/// Slow ring oscillators sampled on a divided fast-RO clock — see the
/// [module docs](self).
#[derive(Debug)]
pub struct DualOscillatorSource {
    config: DualOscConfig,
    fault_slow: Option<RingOscillatorConfig>,
    seed: u64,
    rebuilds: u64,
    sampler: Sampler,
    samples: u64,
    sim_base_ns: u64,
    raw_base: u64,
    claim: f64,
    stuck: bool,
}

impl DualOscillatorSource {
    /// Builds the sampler from a geometry and a simulation seed.
    ///
    /// # Errors
    ///
    /// [`SourceError::Build`] when [`DualOscConfig::validate`] rejects
    /// the geometry or a ring cannot be constructed.
    pub fn new(config: DualOscConfig, seed: u64) -> Result<Self, SourceError> {
        config.validate().map_err(SourceError::Build)?;
        let claim = config.claimed_min_entropy();
        let sampler = build_sampler(&config, &config.slow, seed, 0)?;
        Ok(DualOscillatorSource {
            config,
            fault_slow: None,
            seed,
            rebuilds: 0,
            sampler,
            samples: 0,
            sim_base_ns: 0,
            raw_base: 0,
            claim,
            stuck: false,
        })
    }

    /// The sampler geometry.
    pub fn config(&self) -> &DualOscConfig {
        &self.config
    }
}

/// Builds all rings of one sampler instance. Ring noise seeds come
/// from the `(seed, rebuild)` lane so every rebuild is a fresh but
/// deterministic draw; device identities derive from `seed` alone so a
/// rebuild models power-cycling the *same* silicon.
fn build_sampler(
    config: &DualOscConfig,
    slow_config: &RingOscillatorConfig,
    seed: u64,
    rebuilds: u64,
) -> Result<Sampler, SourceError> {
    let lane = mix_seed(seed, rebuilds);
    let mut slow = Vec::with_capacity(config.slow_rings);
    for i in 0..config.slow_rings {
        let mut c = slow_config.clone();
        c.device = DeviceSeed::new(mix_seed(seed, 0xD0 + i as u64));
        c.base_site = (c.base_site.0 + 4 * i as u64, c.base_site.1);
        let ring = RingOscillator::new(c, SimRng::seed_from(mix_seed(lane, i as u64)))
            .map_err(SourceError::Build)?;
        slow.push(ring);
    }
    let mut fast_config = config.fast.clone();
    fast_config.device = DeviceSeed::new(mix_seed(seed, 0xFA57));
    let fast = RingOscillator::new(fast_config, SimRng::seed_from(mix_seed(lane, 0xFA57)))
        .map_err(SourceError::Build)?;
    Ok(Sampler {
        slow,
        fast,
        scan_to: Ps::ZERO,
        edge_count: 0,
        pending: VecDeque::new(),
        t_now: Ps::ZERO,
    })
}

impl Sampler {
    /// Scans the fast ring forward until at least one sample instant
    /// is pending. Chunks stay within half the fast ring's history
    /// window so `edges_in` never walks into pruned history.
    fn refill_pending(&mut self, divider: u64) {
        let chunk = Ps::from_ps(self.fast.config().history_window.as_ps() * 0.5);
        while self.pending.is_empty() {
            let from = self.scan_to;
            let to = Ps::from_ps(from.as_ps() + chunk.as_ps());
            self.fast.run_until(to);
            let edges: Vec<Ps> = self.fast.node(0).edge_train().edges_in(from, to).collect();
            for t in edges {
                self.edge_count += 1;
                if self.edge_count.is_multiple_of(divider) {
                    self.pending.push_back(t);
                }
            }
            self.scan_to = to;
        }
    }

    fn next_bit(&mut self, divider: u64) -> bool {
        self.refill_pending(divider);
        let t = self.pending.pop_front().expect("refill left a sample");
        self.t_now = t;
        let mut bit = false;
        for ring in &mut self.slow {
            ring.run_until(t);
            bit ^= ring.node(0).edge_train().level_at(t);
        }
        bit
    }
}

impl EntropySource for DualOscillatorSource {
    fn kind(&self) -> SourceKind {
        SourceKind::DualOscillator
    }

    fn claimed_min_entropy(&self) -> f64 {
        self.claim
    }

    fn native_xor_rate(&self) -> u32 {
        self.config.xor_rate
    }

    fn next_raw_bit(&mut self) -> bool {
        if self.stuck {
            return false;
        }
        self.samples += 1;
        self.sampler.next_bit(self.config.divider as u64)
    }

    fn raw_bits(&self) -> u64 {
        self.raw_base + self.samples
    }

    fn sim_now_ns(&self) -> u64 {
        self.sim_base_ns + self.sampler.t_now.as_ns() as u64
    }

    fn capture_stats(&self) -> CaptureStats {
        CaptureStats {
            samples: self.samples,
            missed_edges: 0,
        }
    }

    fn rebuild(&mut self, fault: Option<&SourceFault>) -> Result<(), SourceError> {
        let slow_config = match fault {
            Some(SourceFault::Stuck) => {
                self.stuck = true;
                return Ok(());
            }
            Some(SourceFault::Attack(a)) => {
                let mut c = self.config.slow.clone();
                c.noise.attack = Some(*a);
                Some(c)
            }
            Some(SourceFault::Env(env)) => {
                let mut c = self.config.slow.clone();
                c.noise = env.apply_to(&self.config.slow.noise);
                Some(c)
            }
            Some(SourceFault::Config(_)) => {
                return Err(SourceError::UnsupportedFault {
                    kind: SourceKind::DualOscillator,
                    fault: "carry-chain config",
                })
            }
            None => None,
        };
        self.fault_slow = slow_config;
        self.sim_base_ns += self.sampler.t_now.as_ns() as u64;
        self.raw_base += self.samples;
        self.samples = 0;
        self.rebuilds += 1;
        let slow = self.fault_slow.as_ref().unwrap_or(&self.config.slow);
        self.sampler = build_sampler(&self.config, slow, self.seed, self.rebuilds)?;
        self.stuck = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_validates_and_floors_its_claim() {
        let config = DualOscConfig::betrusted_default();
        config.validate().expect("default geometry is sound");
        let h = config.claimed_min_entropy();
        assert!((0.05..=1.0).contains(&h), "claim {h} out of range");
    }

    #[test]
    fn integer_sweep_ratio_is_rejected() {
        let mut config = DualOscConfig::betrusted_default();
        // τ = divider · stages · d_fast; make it an exact multiple of
        // T_slow = 2 · stages · d_slow.
        config.fast.stage_delay = Ps::from_ns(1.1);
        config.divider = 12; // τ = 12·3·1.1 = 39.6 = 2·19.8
        let err = config.validate().expect_err("integer sweep must fail");
        assert!(err.contains("sweep fraction"), "unexpected error: {err}");
    }

    #[test]
    fn fast_ring_must_outrun_the_slow_ring() {
        let mut config = DualOscConfig::betrusted_default();
        config.fast.stage_delay = Ps::from_ns(5.0);
        let err = config.validate().expect_err("slow sampler must fail");
        assert!(err.contains("out-run"), "unexpected error: {err}");
    }

    #[test]
    fn same_seed_means_same_stream() {
        let mut a =
            DualOscillatorSource::new(DualOscConfig::betrusted_default(), 41).expect("builds");
        let mut b =
            DualOscillatorSource::new(DualOscConfig::betrusted_default(), 41).expect("builds");
        let mut x = [0u8; 64];
        let mut y = [0u8; 64];
        a.fill_raw(&mut x);
        b.fill_raw(&mut y);
        assert_eq!(x, y);
        assert_eq!(a.raw_bits(), 512);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a =
            DualOscillatorSource::new(DualOscConfig::betrusted_default(), 1).expect("builds");
        let mut b =
            DualOscillatorSource::new(DualOscConfig::betrusted_default(), 2).expect("builds");
        let mut x = [0u8; 64];
        let mut y = [0u8; 64];
        a.fill_raw(&mut x);
        b.fill_raw(&mut y);
        assert_ne!(x, y);
    }
}
