//! Online per-shard jitter monitor: the Lubicz–Skorski differential
//! two-RO measurement, promoted from an offline procedure
//! (`trng-measure`) to a continuous runtime gate.
//!
//! The SP 800-90B continuous tests watch the *bit stream* and, by
//! design, tolerate everything the paper's eq. (7) entropy bound
//! tolerates — including the worst-case edge offset. That makes them
//! blind to two realistic degradations:
//!
//! * **slow common-mode drift** (temperature/voltage ramps): the edge
//!   offset wanders but the white-jitter budget is intact, so the bits
//!   stay statistically plausible right up until capture fails;
//! * **noise-composition shifts** (flicker-dominated regimes,
//!   injection locking): the *amount* of per-sample entropy changes
//!   while short-range bit statistics barely move (Saarinen's AR(1)
//!   observation).
//!
//! The monitor closes both gaps by probing the *physics* instead of
//! the bits. Every `interval_bytes` healthy bytes it runs, on the
//! shard's own simulated fabric but with an rng lane separate from the
//! entropy stream:
//!
//! 1. a **differential sigma probe** — two fresh ring oscillators,
//!    sampled at `t_a`, TDC-decoded and differenced
//!    ([`trng_measure::measure_jitter`]): common-mode modulation
//!    cancels exactly, so the estimate isolates the per-LUT white
//!    sigma plus any correlated (flicker/locking) component —
//!    collapse *or* inflation against the baseline is drift;
//! 2. a **period probe** — transition counting over `period_horizon`
//!    ([`trng_measure::measure_lut_delay`]) at the shard's current
//!    global operating point, which moves when a thermal/supply ramp
//!    shifts all delays together (exactly the component the
//!    differential probe cancels).
//!
//! The first `baseline_samples` observations freeze the healthy
//! baseline; after that, leaving the `sigma_band`/`period_band` around
//! the baseline raises a [`IncidentKind::JitterDrift`] journal event
//! (on the transition into drift, not every interval) without touching
//! the shard's lifecycle state — an early warning, not a quarantine.
//!
//! [`IncidentKind::JitterDrift`]: crate::journal::IncidentKind::JitterDrift

use trng_core::trng::TrngConfig;
use trng_fpga_sim::delay_line::TappedDelayLine;
use trng_fpga_sim::noise::NoiseConfig;
use trng_fpga_sim::ring_oscillator::RingOscillatorConfig;
use trng_fpga_sim::rng::SimRng;
use trng_fpga_sim::time::Ps;
use trng_measure::{measure_jitter, measure_lut_delay};

use crate::journal::ProbeCode;

/// Sampling budget and detection bands of the online jitter monitor.
///
/// The defaults cost two 3-stage oscillators for `runs` accumulation
/// windows of `t_a` plus one `period_horizon` of transition counting
/// per observation — about 2.5 µs of extra simulated fabric time per
/// KiB of output, a ~0.2 % overhead on the shard's own simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Healthy bytes between observations.
    pub interval_bytes: u64,
    /// Two-RO accumulation windows per observation (sigma estimate
    /// standard error ~ `1/sqrt(2 runs)`).
    pub runs: usize,
    /// Jitter accumulation time per window.
    pub t_a: Ps,
    /// Observations averaged into the frozen healthy baseline.
    pub baseline_samples: usize,
    /// Sigma ratio band: drift when the observed sigma leaves
    /// `[baseline / sigma_band, baseline * sigma_band]`.
    pub sigma_band: f64,
    /// Simulated duration of the period probe.
    pub period_horizon: Ps,
    /// Relative period band: drift when `|period/baseline - 1|`
    /// exceeds this.
    pub period_band: f64,
}

impl Default for MonitorConfig {
    /// 32 windows of 20 ns every 512 bytes, baseline over the first 3
    /// observations, sigma band 1.7x, period band 2 % over a 1 µs
    /// horizon.
    fn default() -> Self {
        MonitorConfig {
            interval_bytes: 512,
            runs: 32,
            t_a: Ps::from_ns(20.0),
            baseline_samples: 3,
            sigma_band: 1.7,
            period_horizon: Ps::from_us(1.0),
            period_band: 0.02,
        }
    }
}

impl MonitorConfig {
    /// Sets the observation interval, builder-style.
    pub fn with_interval_bytes(mut self, bytes: u64) -> Self {
        self.interval_bytes = bytes;
        self
    }
}

/// Which probe tripped, encoded into the journal event's detail word
/// via the shared [`ProbeCode`] scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftProbe {
    /// The differential sigma probe left its band.
    Sigma,
    /// The period probe left its band.
    Period,
}

impl From<DriftProbe> for ProbeCode {
    fn from(probe: DriftProbe) -> ProbeCode {
        match probe {
            DriftProbe::Sigma => ProbeCode::Sigma,
            DriftProbe::Period => ProbeCode::Period,
        }
    }
}

/// One completed observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Observation {
    /// Latest per-LUT differential sigma estimate, femtoseconds.
    pub jitter_fs: u64,
    /// Frozen baseline sigma, femtoseconds (0 while accumulating).
    pub baseline_fs: u64,
    /// `Some` exactly when this observation *entered* the drift state
    /// (the rising edge that should be journaled).
    pub drift: Option<DriftDetail>,
    /// The period probe's relative residual against the frozen
    /// baseline, `(period / baseline − 1)` in parts per million;
    /// `None` while the baseline is still accumulating. This is the
    /// per-observation sample the pool-level coherence detector runs
    /// its Goertzel bank over: a common-mode supply tone cancels out of
    /// the differential sigma probe and sits below the period band on
    /// any *single* shard, but leaves the same spectral line in every
    /// shard's residual series.
    pub period_residual_ppm: Option<i64>,
}

/// Journal payload of a drift event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DriftDetail {
    pub probe: DriftProbe,
    /// Observed/baseline ratio in permille.
    pub ratio_permille: u64,
}

impl DriftDetail {
    /// Packs the drift into the journal's `detail` word: the shared
    /// [`ProbeCode`] in the top byte, ratio permille in the low bits.
    pub fn encode(self) -> u64 {
        u64::from(ProbeCode::from(self.probe).as_u8()) << 56
            | self.ratio_permille & 0x00FF_FFFF_FFFF_FFFF
    }
}

/// Per-shard monitor state. Owns its own rng lane so observations
/// never consume bits from — or perturb — the shard's entropy stream.
#[derive(Debug)]
pub(crate) struct JitterMonitor {
    config: MonitorConfig,
    rng: SimRng,
    line: TappedDelayLine,
    next_due: u64,
    /// Sigma/period sums while the baseline accumulates.
    warmup: Vec<(f64, f64)>,
    baseline: Option<(f64, f64)>, // (sigma_ps, d0_ps)
    drifting: bool,
    measurements: u64,
}

impl JitterMonitor {
    pub fn new(config: MonitorConfig, rng: SimRng) -> Self {
        let line = TappedDelayLine::ideal(128, Ps::from_ps(17.0));
        let next_due = config.interval_bytes;
        JitterMonitor {
            config,
            rng,
            line,
            next_due,
            warmup: Vec::new(),
            baseline: None,
            drifting: false,
            measurements: 0,
        }
    }

    /// `true` once the shard's healthy-byte count owes an observation.
    pub fn due(&self, bytes_produced: u64) -> bool {
        bytes_produced >= self.next_due
    }

    /// The monitor's probe oscillator for the shard's *current*
    /// configuration: the shard's stage delay at its present global
    /// operating point (`delay_factor` at the instance's clock), its
    /// white sigma, flicker and attack environment. The global
    /// modulation itself is dropped — its slow component is baked into
    /// the nominal delay (where the period probe sees it) and its fast
    /// component cancels out of the differential sigma probe anyway.
    fn probe_config(&self, shard: &TrngConfig, now: Ps) -> RingOscillatorConfig {
        let factor = shard.global.as_ref().map_or(1.0, |g| g.delay_factor(now));
        let mut noise = NoiseConfig::white_only(Ps::from_ps(shard.platform.sigma_lut_ps));
        noise.flicker = shard.flicker;
        noise.attack = shard.attack;
        RingOscillatorConfig {
            noise,
            history_window: Ps::from_ns(4.0),
            ..RingOscillatorConfig::ideal(
                shard.design.n,
                Ps::from_ps(shard.platform.d0_lut_ps * factor),
                Ps::from_ps(shard.platform.sigma_lut_ps),
            )
        }
    }

    /// Runs one observation against the shard's current configuration
    /// and simulated clock. Returns `None` if either measurement
    /// procedure fails to decode (pathological configurations only —
    /// the shard's own health gates cover those).
    pub fn observe(&mut self, shard: &TrngConfig, now: Ps) -> Option<Observation> {
        self.next_due = self.next_due.saturating_add(self.config.interval_bytes);
        let probe = self.probe_config(shard, now);
        let jitter = measure_jitter(
            probe.clone(),
            &self.line,
            self.config.t_a,
            self.config.runs,
            self.rng.fork(),
        )
        .ok()?;
        let lut = measure_lut_delay(probe, self.config.period_horizon, self.rng.fork()).ok()?;
        self.measurements += 1;
        let sigma_ps = jitter.sigma_lut.as_ps();
        let d0_ps = lut.d0.as_ps();
        let jitter_fs = (sigma_ps * 1000.0).round() as u64;

        let Some((base_sigma, base_d0)) = self.baseline else {
            self.warmup.push((sigma_ps, d0_ps));
            if self.warmup.len() >= self.config.baseline_samples {
                let n = self.warmup.len() as f64;
                let sigma = self.warmup.iter().map(|(s, _)| s).sum::<f64>() / n;
                let d0 = self.warmup.iter().map(|(_, d)| d).sum::<f64>() / n;
                self.baseline = Some((sigma, d0));
                self.warmup.clear();
            }
            return Some(Observation {
                jitter_fs,
                baseline_fs: self
                    .baseline
                    .map_or(0, |(s, _)| (s * 1000.0).round() as u64),
                drift: None,
                period_residual_ppm: None,
            });
        };

        let sigma_ratio = sigma_ps / base_sigma;
        let period_ratio = d0_ps / base_d0;
        let detail =
            if sigma_ratio > self.config.sigma_band || sigma_ratio < 1.0 / self.config.sigma_band {
                Some(DriftDetail {
                    probe: DriftProbe::Sigma,
                    ratio_permille: (sigma_ratio * 1000.0).round() as u64,
                })
            } else if (period_ratio - 1.0).abs() > self.config.period_band {
                Some(DriftDetail {
                    probe: DriftProbe::Period,
                    ratio_permille: (period_ratio * 1000.0).round() as u64,
                })
            } else {
                None
            };
        let rising_edge = detail.filter(|_| !self.drifting);
        self.drifting = detail.is_some();
        Some(Observation {
            jitter_fs,
            baseline_fs: (base_sigma * 1000.0).round() as u64,
            drift: rising_edge,
            period_residual_ppm: Some(((period_ratio - 1.0) * 1e6).round() as i64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trng_fpga_sim::noise::{AttackInjection, FlickerParams, GlobalModulation};

    fn monitor(config: MonitorConfig) -> JitterMonitor {
        JitterMonitor::new(config, SimRng::seed_from(0x3A11))
    }

    fn settle_baseline(m: &mut JitterMonitor, shard: &TrngConfig) {
        for _ in 0..m.config.baseline_samples {
            m.observe(shard, Ps::ZERO).expect("observation");
        }
        assert!(m.baseline.is_some(), "baseline must freeze");
    }

    #[test]
    fn healthy_source_never_drifts() {
        let shard = TrngConfig::paper_k1();
        let mut m = monitor(MonitorConfig::default());
        settle_baseline(&mut m, &shard);
        for _ in 0..12 {
            let obs = m.observe(&shard, Ps::ZERO).expect("observation");
            assert!(obs.drift.is_none(), "false drift: {obs:?}");
            assert!(obs.jitter_fs > 0);
            assert!(obs.baseline_fs > 0);
        }
    }

    #[test]
    fn locking_collapses_the_sigma_probe() {
        let shard = TrngConfig::paper_k1();
        let mut m = monitor(MonitorConfig::default());
        settle_baseline(&mut m, &shard);
        let mut attacked = shard.clone();
        attacked.attack = Some(AttackInjection::locking(
            1e12 / attacked.platform.d0_lut_ps,
            0.8,
        ));
        let obs = m.observe(&attacked, Ps::ZERO).expect("observation");
        let drift = obs.drift.expect("locking must trip the monitor");
        assert_eq!(drift.probe, DriftProbe::Sigma);
        assert!(
            drift.ratio_permille < 1000 / 2,
            "expected collapse, ratio {} permille",
            drift.ratio_permille
        );
        // Second out-of-band observation: still drifting, no new edge.
        let obs = m.observe(&attacked, Ps::ZERO).expect("observation");
        assert!(
            obs.drift.is_none(),
            "drift must journal on rising edge only"
        );
    }

    #[test]
    fn flicker_regime_inflates_the_sigma_probe() {
        let shard = TrngConfig::paper_k1();
        let mut m = monitor(MonitorConfig::default());
        settle_baseline(&mut m, &shard);
        let mut flickery = shard.clone();
        flickery.flicker = Some(FlickerParams::new(Ps::from_ps(8.0), Ps::from_us(0.2)));
        let obs = m.observe(&flickery, Ps::ZERO).expect("observation");
        let drift = obs.drift.expect("flicker regime must trip the monitor");
        assert_eq!(drift.probe, DriftProbe::Sigma);
        assert!(drift.ratio_permille > 1700, "{}", drift.ratio_permille);
    }

    #[test]
    fn thermal_drift_moves_the_period_probe() {
        let shard = TrngConfig::paper_k1();
        let mut m = monitor(MonitorConfig::default());
        settle_baseline(&mut m, &shard);
        let mut ramped = shard.clone();
        ramped.global = Some(GlobalModulation::new().with_thermal_drift(30.0));
        // 2 ms into the ramp the factor is 1.06 — outside the 2 % band.
        let obs = m.observe(&ramped, Ps::from_ms(2.0)).expect("observation");
        let drift = obs.drift.expect("ramp must trip the monitor");
        assert_eq!(drift.probe, DriftProbe::Period);
        assert!(drift.ratio_permille > 1020, "{}", drift.ratio_permille);
        // Ramp released: back in band, drift state clears.
        let obs = m.observe(&shard, Ps::ZERO).expect("observation");
        assert!(obs.drift.is_none());
        assert!(!m.drifting);
    }

    #[test]
    fn detail_word_encodes_probe_and_ratio() {
        let d = DriftDetail {
            probe: DriftProbe::Period,
            ratio_permille: 1034,
        };
        let w = d.encode();
        assert_eq!(w >> 56, 2);
        assert_eq!(w & 0x00FF_FFFF_FFFF_FFFF, 1034);
    }

    #[test]
    fn observations_follow_the_byte_schedule() {
        let m = monitor(MonitorConfig::default().with_interval_bytes(256));
        assert!(!m.due(255));
        assert!(m.due(256));
        let mut m = monitor(MonitorConfig::default().with_interval_bytes(256));
        m.observe(&TrngConfig::paper_k1(), Ps::ZERO)
            .expect("observation");
        assert!(!m.due(256), "next observation owed a full interval later");
        assert!(m.due(512));
    }
}
