//! Noise sources acting on fabric delays.
//!
//! The paper's stochastic model (Section 4.1) distinguishes:
//!
//! * **White (thermal) noise** — independent Gaussian jitter per
//!   transition event, the *only* source credited with entropy
//!   ([`white`]).
//! * **Other noise sources** — flicker noise ([`flicker`]), global
//!   noises from power-supply variation ([`global`]) and manipulative
//!   attacker influence ([`attack`]). The paper deliberately does not
//!   quantify these and takes worst-case values; the simulator *does*
//!   implement them so that generated bitstreams exhibit the
//!   correlations and bias that drive the `n_NIST` column of Table 1
//!   and so that attack scenarios can be exercised.
//!
//! A [`NoiseConfig`] bundles the sources; [`StageNoise`] is the
//! per-delay-stage run-time state.

pub mod attack;
pub mod flicker;
pub mod global;
pub mod white;

pub use attack::AttackInjection;
pub use flicker::{FlickerNoise, FlickerParams};
pub use global::{GlobalModulation, SupplyTone};
pub use white::WhiteNoise;

use crate::rng::SimRng;
use crate::time::Ps;

/// How run-time noise variates are synthesised.
///
/// * [`NoiseBackend::Batched`] — the production engine and the
///   default: ziggurat Gaussians filled from bulk word output and, in
///   the carry-chain engine, sample-synchronous synthesis (one
///   Gaussian jump across the transitions no tap sees, then only the
///   sampling window). *Statistically* identical to `Scalar` (same
///   distributions, same OU recurrence, same modulation formulas
///   evaluated at the actual event times) but not draw-identical.
///   Roughly an order of magnitude faster per raw bit.
/// * [`NoiseBackend::Scalar`] — the replay oracle: one Box–Muller
///   draw per transition event, in the exact sequence the golden
///   vectors, recorded experiment runs and same-process reference
///   gates are pinned to. Reached only by naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NoiseBackend {
    /// Scalar per-event Box–Muller synthesis (replay-exact).
    Scalar,
    /// Block ziggurat + sample-synchronous edge synthesis
    /// (statistically equivalent, not draw-identical).
    #[default]
    Batched,
}

impl NoiseBackend {
    /// Stable lower-case name, used in metrics JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            NoiseBackend::Scalar => "scalar",
            NoiseBackend::Batched => "batched",
        }
    }

    /// Compact encoding for lock-free publication.
    pub fn as_u8(self) -> u8 {
        match self {
            NoiseBackend::Scalar => 0,
            NoiseBackend::Batched => 1,
        }
    }

    /// Inverse of [`NoiseBackend::as_u8`] (unknown values decode as
    /// `Scalar`).
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => NoiseBackend::Batched,
            _ => NoiseBackend::Scalar,
        }
    }
}

/// Full description of the noise environment of a simulation.
///
/// # Examples
///
/// ```
/// use trng_fpga_sim::noise::NoiseConfig;
/// use trng_fpga_sim::time::Ps;
///
/// // Thermal noise only, sigma = 2.6 ps per LUT transition:
/// let quiet = NoiseConfig::white_only(Ps::from_ps(2.6));
/// assert!(quiet.is_white_only());
/// ```
#[derive(Debug, Clone, Default)]
pub struct NoiseConfig {
    /// Thermal jitter per transition event.
    pub white: WhiteNoise,
    /// Low-frequency correlated (1/f) noise, if enabled.
    pub flicker: Option<FlickerParams>,
    /// Deterministic global delay modulation (supply, temperature).
    pub global: Option<GlobalModulation>,
    /// Attacker-controlled injection.
    pub attack: Option<AttackInjection>,
}

impl NoiseConfig {
    /// A configuration with only white thermal noise of the given sigma.
    pub fn white_only(sigma: Ps) -> Self {
        NoiseConfig {
            white: WhiteNoise::new(sigma),
            ..NoiseConfig::default()
        }
    }

    /// `true` if no coloured/global/attack source is enabled.
    pub fn is_white_only(&self) -> bool {
        self.flicker.is_none() && self.global.is_none() && self.attack.is_none()
    }

    /// Adds flicker noise, builder-style.
    pub fn with_flicker(mut self, params: FlickerParams) -> Self {
        self.flicker = Some(params);
        self
    }

    /// Adds global supply/temperature modulation, builder-style.
    pub fn with_global(mut self, modulation: GlobalModulation) -> Self {
        self.global = Some(modulation);
        self
    }

    /// Adds attacker injection, builder-style.
    pub fn with_attack(mut self, attack: AttackInjection) -> Self {
        self.attack = Some(attack);
        self
    }
}

/// Run-time noise state attached to one delay stage.
///
/// Owns the flicker-process state (which is per-stage and correlated in
/// time); white noise is memoryless and global/attack terms are pure
/// functions of absolute time shared by all stages.
#[derive(Debug, Clone)]
pub struct StageNoise {
    flicker: Option<FlickerNoise>,
}

impl StageNoise {
    /// Creates the per-stage state for a configuration.
    pub fn new(config: &NoiseConfig, rng: &mut SimRng) -> Self {
        StageNoise {
            flicker: config.flicker.map(|p| FlickerNoise::new(p, rng)),
        }
    }

    /// Computes the jitter added to one transition of a stage whose
    /// nominal (process-adjusted) delay is `nominal`, occurring at
    /// absolute time `t`.
    ///
    /// Returns the *total* stage delay for this transition. The result
    /// is clamped to 5 % of nominal so that extreme tail draws cannot
    /// produce a non-causal (negative) delay.
    pub fn stage_delay(
        &mut self,
        config: &NoiseConfig,
        nominal: Ps,
        t: Ps,
        rng: &mut SimRng,
    ) -> Ps {
        let mut d = nominal;
        if let Some(g) = &config.global {
            d = d * g.delay_factor(t);
        }
        d += config.white.sample(rng);
        if let Some(f) = &mut self.flicker {
            d += f.sample(t, rng);
        }
        if let Some(a) = &config.attack {
            // The attack acts on the *prospective* edge time, so an
            // injection-locking attack can correct the accumulated
            // phase error of this very transition.
            d += a.injected_delay(t + d);
        }
        d.max(nominal * 0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn white_only_detection() {
        let c = NoiseConfig::white_only(Ps::from_ps(2.0));
        assert!(c.is_white_only());
        let c = c.with_flicker(FlickerParams::default());
        assert!(!c.is_white_only());
    }

    #[test]
    fn stage_delay_reduces_to_white_noise() {
        let config = NoiseConfig::white_only(Ps::from_ps(2.0));
        let mut rng = SimRng::seed_from(1);
        let mut stage = StageNoise::new(&config, &mut rng);
        let nominal = Ps::from_ps(480.0);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for i in 0..n {
            let d = stage
                .stage_delay(&config, nominal, Ps::from_ps(i as f64 * 480.0), &mut rng)
                .as_ps();
            sum += d;
            sum2 += d * d;
        }
        let mean = sum / n as f64;
        let sd = (sum2 / n as f64 - mean * mean).sqrt();
        assert!((mean - 480.0).abs() < 0.1, "mean {mean}");
        assert!((sd - 2.0).abs() < 0.1, "sd {sd}");
    }

    #[test]
    fn stage_delay_never_non_positive() {
        // Absurdly large white noise to stress the clamp.
        let config = NoiseConfig::white_only(Ps::from_ps(500.0));
        let mut rng = SimRng::seed_from(2);
        let mut stage = StageNoise::new(&config, &mut rng);
        for i in 0..10_000 {
            let d = stage.stage_delay(&config, Ps::from_ps(480.0), Ps::from_ps(i as f64), &mut rng);
            assert!(d.as_ps() > 0.0);
        }
    }

    #[test]
    fn builder_composes_all_sources() {
        let c = NoiseConfig::white_only(Ps::from_ps(2.0))
            .with_flicker(FlickerParams::default())
            .with_global(GlobalModulation::supply_tone(SupplyTone::new(1e6, 0.002)))
            .with_attack(AttackInjection::periodic(Ps::from_ps(3.0), 5e6));
        assert!(c.flicker.is_some());
        assert!(c.global.is_some());
        assert!(c.attack.is_some());
    }
}
