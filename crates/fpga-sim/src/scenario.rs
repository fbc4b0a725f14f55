//! Scripted adversarial campaigns over the noise primitives.
//!
//! The noise layer exposes attacker-facing primitives — [`AttackInjection`]
//! for manipulative injection and [`GlobalModulation`] for environmental
//! (supply/temperature) influence — but each simulation so far wired them
//! in statically. A [`Scenario`] composes those primitives into a
//! *time-scheduled campaign*: an ordered list of [`ScenarioPhase`]s, each
//! switching the ambient [`NoiseEnvironment`] at a scheduled onset. The
//! entropy-pool layer compiles scenarios into its fault schedule and replays
//! them deterministically; this module only describes *what* the adversary
//! does and *when*.
//!
//! An environment is an **override set**: each `Some` field replaces the
//! corresponding source of the base configuration it is applied to, `None`
//! keeps the base source, and `white_sigma_scale` multiplies the thermal
//! sigma. The default environment is therefore an exact identity.
//!
//! # Examples
//!
//! ```
//! use trng_fpga_sim::scenario::Scenario;
//! use trng_fpga_sim::time::Ps;
//!
//! let campaign = Scenario::injection_locking(Ps::from_us(50.0), 1e12 / 480.0, 0.8);
//! assert_eq!(campaign.phases.len(), 1);
//! assert!(campaign.phases[0].env.attack.is_some());
//! ```

use crate::noise::{
    AttackInjection, FlickerParams, GlobalModulation, NoiseConfig, SupplyTone, WhiteNoise,
};
use crate::time::Ps;

/// An override set describing the ambient noise conditions of one
/// campaign phase.
///
/// Applied to a base [`NoiseConfig`] via [`NoiseEnvironment::apply_to`]:
/// `Some` fields replace the base source, `None` fields keep it, and
/// `white_sigma_scale` multiplies the white (thermal) sigma. The
/// [`Default`] environment leaves any base configuration unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseEnvironment {
    /// Attacker-controlled injection replacing the base attack, if any.
    pub attack: Option<AttackInjection>,
    /// Global supply/temperature modulation replacing the base one.
    pub global: Option<GlobalModulation>,
    /// Flicker parameters replacing the base flicker process.
    pub flicker: Option<FlickerParams>,
    /// Multiplier applied to the white-noise sigma (1.0 = unchanged).
    pub white_sigma_scale: f64,
}

impl Default for NoiseEnvironment {
    fn default() -> Self {
        NoiseEnvironment {
            attack: None,
            global: None,
            flicker: None,
            white_sigma_scale: 1.0,
        }
    }
}

impl NoiseEnvironment {
    /// Applies the override set to a base noise configuration.
    ///
    /// # Panics
    ///
    /// Panics if the scaled white sigma is negative or not finite
    /// (enforced by [`WhiteNoise::new`]).
    pub fn apply_to(&self, base: &NoiseConfig) -> NoiseConfig {
        NoiseConfig {
            white: WhiteNoise::new(base.white.sigma() * self.white_sigma_scale),
            flicker: self.flicker.or(base.flicker),
            global: self.global.clone().or_else(|| base.global.clone()),
            attack: self.attack.or(base.attack),
        }
    }
}

/// One scheduled step of a campaign: at `onset` (relative to campaign
/// start) the ambient environment switches to `env` and stays until the
/// next phase takes over.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPhase {
    /// Time after campaign start at which this environment takes effect.
    pub onset: Ps,
    /// The environment in force from `onset` on.
    pub env: NoiseEnvironment,
}

/// A named, time-scheduled adversarial campaign.
///
/// Phases are strictly ordered by onset; the canonical constructors
/// below build the campaigns of the adversarial soak's chaos matrix,
/// which pins each one's detection latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (stable; used as a test-case key).
    pub name: String,
    /// The scheduled phases, strictly ordered by onset.
    pub phases: Vec<ScenarioPhase>,
}

impl Scenario {
    /// Creates a scenario from explicit phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty, any onset is negative or not
    /// finite, or onsets are not strictly increasing.
    pub fn new(name: impl Into<String>, phases: Vec<ScenarioPhase>) -> Self {
        assert!(!phases.is_empty(), "a scenario needs at least one phase");
        for pair in phases.windows(2) {
            assert!(
                pair[0].onset < pair[1].onset,
                "scenario phases must have strictly increasing onsets"
            );
        }
        for p in &phases {
            assert!(
                p.onset.is_finite() && p.onset >= Ps::ZERO,
                "phase onset must be finite and non-negative, got {}",
                p.onset
            );
        }
        Scenario {
            name: name.into(),
            phases,
        }
    }

    /// Temperature ramp: from `onset` on, all stage delays drift at
    /// `drift_per_s` (fractional change per second of simulated time,
    /// clamped by [`GlobalModulation::delay_factor`] to ±50 %).
    ///
    /// Slow common-mode drift does not touch the white-jitter budget,
    /// so the SP 800-90B gates — designed to tolerate worst-case edge
    /// offset — stay silent; catching it is the monitor's job.
    pub fn thermal_ramp(onset: Ps, drift_per_s: f64) -> Self {
        Scenario::new(
            "thermal_ramp",
            vec![ScenarioPhase {
                onset,
                env: NoiseEnvironment {
                    global: Some(GlobalModulation::new().with_thermal_drift(drift_per_s)),
                    ..NoiseEnvironment::default()
                },
            }],
        )
    }

    /// Escalating supply tone: starting at `onset`, a tone at
    /// `frequency_hz` ramps its relative amplitude from
    /// `peak_amplitude / steps` up to `peak_amplitude` in `steps`
    /// phases spaced `step` apart.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero or the peak amplitude is outside the
    /// `[0, 0.5)` range [`SupplyTone::new`] accepts.
    pub fn supply_ramp(
        onset: Ps,
        frequency_hz: f64,
        peak_amplitude: f64,
        steps: usize,
        step: Ps,
    ) -> Self {
        assert!(steps > 0, "supply ramp needs at least one step");
        let phases = (1..=steps)
            .map(|i| ScenarioPhase {
                onset: onset + step * (i - 1) as f64,
                env: NoiseEnvironment {
                    global: Some(GlobalModulation::supply_tone(SupplyTone::new(
                        frequency_hz,
                        peak_amplitude * i as f64 / steps as f64,
                    ))),
                    ..NoiseEnvironment::default()
                },
            })
            .collect();
        Scenario::new("supply_ramp", phases)
    }

    /// Injection locking at `frequency_hz` with the given strength:
    /// the attacker pulls every transition toward a periodic grid,
    /// collapsing the accumulated jitter the entropy claim rests on.
    pub fn injection_locking(onset: Ps, frequency_hz: f64, strength: f64) -> Self {
        Scenario::new(
            "injection_locking",
            vec![ScenarioPhase {
                onset,
                env: NoiseEnvironment {
                    attack: Some(AttackInjection::locking(frequency_hz, strength)),
                    ..NoiseEnvironment::default()
                },
            }],
        )
    }

    /// Flicker-dominated regime: from `onset` on, a strong 1/f process
    /// (stationary sigma `sigma`, correlation time `tau_c`) replaces
    /// the base flicker while the thermal sigma is halved — the
    /// Saarinen regime where bit correlations grow but short-range
    /// statistics stay plausible.
    pub fn flicker_dominated(onset: Ps, sigma: Ps, tau_c: Ps) -> Self {
        Scenario::new(
            "flicker_dominated",
            vec![ScenarioPhase {
                onset,
                env: NoiseEnvironment {
                    flicker: Some(FlickerParams::new(sigma, tau_c)),
                    white_sigma_scale: 0.5,
                    ..NoiseEnvironment::default()
                },
            }],
        )
    }

    /// Cross-shard correlated supply noise: one tone at `frequency_hz`
    /// with relative amplitude `amplitude`, meant to be applied to
    /// *every* shard of a pool so their outputs pick up a common
    /// periodic component.
    pub fn shared_supply_tone(onset: Ps, frequency_hz: f64, amplitude: f64) -> Self {
        Scenario::new(
            "shared_supply_tone",
            vec![ScenarioPhase {
                onset,
                env: NoiseEnvironment {
                    global: Some(GlobalModulation::supply_tone(SupplyTone::new(
                        frequency_hz,
                        amplitude,
                    ))),
                    ..NoiseEnvironment::default()
                },
            }],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_environment_is_identity() {
        let base = NoiseConfig::white_only(Ps::from_ps(2.6))
            .with_flicker(FlickerParams::default())
            .with_attack(AttackInjection::periodic(Ps::from_ps(3.0), 5e6));
        let out = NoiseEnvironment::default().apply_to(&base);
        assert_eq!(out.white.sigma(), base.white.sigma());
        assert_eq!(out.flicker, base.flicker);
        assert_eq!(out.attack, base.attack);
        assert!(out.global.is_none());
    }

    #[test]
    fn overrides_replace_and_scale() {
        let base = NoiseConfig::white_only(Ps::from_ps(2.0)).with_flicker(FlickerParams::default());
        let env = NoiseEnvironment {
            attack: Some(AttackInjection::locking(1e12 / 480.0, 0.5)),
            white_sigma_scale: 0.5,
            ..NoiseEnvironment::default()
        };
        let out = env.apply_to(&base);
        assert_eq!(out.white.sigma(), Ps::from_ps(1.0));
        assert_eq!(out.flicker, base.flicker, "None keeps the base flicker");
        assert_eq!(out.attack, env.attack);
    }

    #[test]
    fn supply_ramp_escalates_monotonically() {
        let s = Scenario::supply_ramp(Ps::from_us(10.0), 5e6, 0.04, 4, Ps::from_us(20.0));
        assert_eq!(s.phases.len(), 4);
        let amplitude =
            |p: &ScenarioPhase| p.env.global.as_ref().expect("tone").tones[0].amplitude_rel;
        for pair in s.phases.windows(2) {
            assert!(pair[0].onset < pair[1].onset);
            assert!(amplitude(&pair[0]) < amplitude(&pair[1]));
        }
        assert!((amplitude(&s.phases[3]) - 0.04).abs() < 1e-12);
    }

    #[test]
    fn canonical_scenarios_have_expected_shape() {
        let ramp = Scenario::thermal_ramp(Ps::from_us(30.0), 40.0);
        assert_eq!(ramp.name, "thermal_ramp");
        assert!(ramp.phases[0].env.global.is_some());

        let lock = Scenario::injection_locking(Ps::from_us(30.0), 1e12 / 480.0, 0.8);
        assert!(lock.phases[0].env.attack.is_some());

        let flicker =
            Scenario::flicker_dominated(Ps::from_us(30.0), Ps::from_ps(8.0), Ps::from_us(0.2));
        assert!(flicker.phases[0].env.flicker.is_some());
        assert!(flicker.phases[0].env.white_sigma_scale < 1.0);

        let tone = Scenario::shared_supply_tone(Ps::from_us(30.0), 5e6, 0.004);
        assert!(tone.phases[0].env.global.is_some());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_phases_are_rejected() {
        let phase = |us: f64| ScenarioPhase {
            onset: Ps::from_us(us),
            env: NoiseEnvironment::default(),
        };
        let _ = Scenario::new("bad", vec![phase(20.0), phase(10.0)]);
    }
}
