//! Event-driven free-running ring oscillator.
//!
//! The entropy source of the paper (Figure 2): an `n`-stage ring of one
//! NAND (enable) plus buffers, implemented in LUTs. Every stage
//! traversal adds the stage's deterministic, process-varied delay plus
//! run-time noise (white thermal jitter — the entropy source —,
//! optional flicker, global modulation and attacker injection; see
//! [`crate::noise`]).
//!
//! For an odd inverting ring exactly one transition circulates in
//! steady state, so the simulation is a single-event loop: node `i`
//! toggles, then stage `i+1` schedules its own toggle one noisy stage
//! delay later. Each node keeps an [`EdgeTrain`] covering a bounded
//! recent window so that the tapped delay lines can look back in time.
//!
//! For very long accumulation times (the elementary-TRNG comparison
//! runs to microseconds per bit) a closed-form *fast-forward* jumps
//! whole ring traversals using the exact distribution of the elapsed
//! time (sum of i.i.d. Gaussian stage delays). Fast-forward is only
//! available for white-only noise; time-correlated sources require the
//! exact event path.

use crate::edge_train::{EdgeCursor, EdgeTrain, SignalSource};
use crate::noise::{NoiseBackend, NoiseConfig, StageNoise};
use crate::primitives::LutDelay;
use crate::process::{DeviceSeed, ProcessVariation};
use crate::rng::SimRng;
use crate::time::Ps;

/// Configuration of a ring oscillator.
#[derive(Debug, Clone)]
pub struct RingOscillatorConfig {
    /// Number of stages `n` (must be odd so the ring oscillates).
    pub stages: usize,
    /// Nominal per-stage delay `d0`.
    pub stage_delay: Ps,
    /// Noise environment.
    pub noise: NoiseConfig,
    /// Process variation magnitudes.
    pub process: ProcessVariation,
    /// Device identity (freezes process variation).
    pub device: DeviceSeed,
    /// Fabric sites of the stage LUTs: `(x, y)` of stage 0; stage `i`
    /// is at `(x + 2*i, y)` matching [`TrngPlacement`](crate::placement::TrngPlacement)'s one column per
    /// line layout.
    pub base_site: (u64, u64),
    /// How much transition history each node retains.
    pub history_window: Ps,
    /// Unread: the oscillator always draws scalar Box–Muller normals,
    /// and the batched engine ([`crate::batch::BatchedRingEngine`])
    /// is chosen through `TrngConfig`, not here. Kept only because
    /// existing callers still construct it.
    pub backend: NoiseBackend,
}

impl RingOscillatorConfig {
    /// The paper's configuration: `n = 3` stages of 480 ps with 2.6 ps
    /// white jitter, default process variation, 2 ns history.
    pub fn paper_default() -> Self {
        RingOscillatorConfig {
            stages: 3,
            stage_delay: Ps::from_ps(480.0),
            noise: NoiseConfig::white_only(Ps::from_ps(2.6)),
            process: ProcessVariation::default(),
            device: DeviceSeed::new(0),
            base_site: (4, 0),
            history_window: Ps::from_ns(2.0),
            backend: NoiseBackend::Scalar,
        }
    }

    /// An idealized configuration without process variation, for
    /// deterministic tests: `n` stages of exactly `stage_delay`, white
    /// sigma as given.
    pub fn ideal(stages: usize, stage_delay: Ps, white_sigma: Ps) -> Self {
        RingOscillatorConfig {
            stages,
            stage_delay,
            noise: NoiseConfig::white_only(white_sigma),
            process: ProcessVariation::NONE,
            device: DeviceSeed::new(0),
            base_site: (0, 0),
            history_window: Ps::from_ns(2.0),
            backend: NoiseBackend::Scalar,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages == 0 || self.stages.is_multiple_of(2) {
            return Err(format!(
                "ring needs an odd number of stages to oscillate, got {}",
                self.stages
            ));
        }
        if self.stage_delay.as_ps() <= 0.0 {
            return Err(format!(
                "stage delay must be positive, got {}",
                self.stage_delay
            ));
        }
        if self.history_window.as_ps() <= 0.0 {
            return Err(format!(
                "history window must be positive, got {}",
                self.history_window
            ));
        }
        Ok(())
    }
}

impl Default for RingOscillatorConfig {
    fn default() -> Self {
        RingOscillatorConfig::paper_default()
    }
}

/// Error returned when fast-forward cannot be used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastForwardUnsupported;

impl core::fmt::Display for FastForwardUnsupported {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "fast-forward requires white-only noise; flicker/global/attack sources need the exact event path"
        )
    }
}

impl std::error::Error for FastForwardUnsupported {}

/// A running, free-running ring oscillator.
///
/// # Examples
///
/// ```
/// use trng_fpga_sim::ring_oscillator::{RingOscillator, RingOscillatorConfig};
/// use trng_fpga_sim::rng::SimRng;
/// use trng_fpga_sim::time::Ps;
///
/// let mut ro = RingOscillator::new(
///     RingOscillatorConfig::paper_default(),
///     SimRng::seed_from(1),
/// ).expect("valid config");
/// ro.run_until(Ps::from_ns(100.0));
/// // The ring has period ~2.88 ns; node 0 has toggled ~70 times.
/// let node0 = ro.node(0);
/// # let _ = node0;
/// ```
#[derive(Debug, Clone)]
pub struct RingOscillator {
    config: RingOscillatorConfig,
    stages: Vec<LutDelay>,
    stage_noise: Vec<StageNoise>,
    trains: Vec<EdgeTrain>,
    /// Stage index whose *output node* toggles at `next_time`.
    next_stage: usize,
    next_time: Ps,
    now: Ps,
    rng: SimRng,
}

impl RingOscillator {
    /// Creates and enables an oscillator at `t = 0`.
    ///
    /// # Errors
    ///
    /// Returns the validation message for an invalid configuration.
    pub fn new(config: RingOscillatorConfig, mut rng: SimRng) -> Result<Self, String> {
        config.validate()?;
        let n = config.stages;
        let (bx, by) = config.base_site;
        let stages: Vec<LutDelay> = (0..n)
            .map(|i| {
                LutDelay::placed(
                    config.stage_delay,
                    config.device,
                    &config.process,
                    bx + 2 * i as u64,
                    by,
                )
            })
            .collect();
        let stage_noise: Vec<StageNoise> = (0..n)
            .map(|_| StageNoise::new(&config.noise, &mut rng))
            .collect();
        // Alternating initial levels; for odd n the inconsistency
        // between node n-1 and node 0 is the circulating transition.
        let trains: Vec<EdgeTrain> = (0..n)
            .map(|i| EdgeTrain::new(i % 2 == 1, Ps::ZERO))
            .collect();
        let mut ro = RingOscillator {
            config,
            stages,
            stage_noise,
            trains,
            next_stage: 0,
            next_time: Ps::ZERO,
            now: Ps::ZERO,
            rng,
        };
        // First event: stage 0 output toggles one stage delay after enable.
        let d = ro.draw_stage_delay(0, Ps::ZERO);
        ro.next_time = d;
        Ok(ro)
    }

    /// The configuration this oscillator was built with.
    pub fn config(&self) -> &RingOscillatorConfig {
        &self.config
    }

    /// Deterministic (noise-free) half period: one full traversal of
    /// the ring, i.e. the time between consecutive toggles of a node.
    pub fn half_period(&self) -> Ps {
        self.stages.iter().map(|s| s.delay()).sum()
    }

    /// Deterministic full period (two traversals).
    pub fn period(&self) -> Ps {
        self.half_period() * 2.0
    }

    /// Deterministic frequency in Hz.
    pub fn frequency_hz(&self) -> f64 {
        1.0 / self.period().as_s()
    }

    /// Current simulation time.
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Processes all transitions up to and including time `t`.
    ///
    /// After the call every node's [`EdgeTrain`] is complete for
    /// queries in `(t - history_window, t]`.
    pub fn run_until(&mut self, t: Ps) {
        while self.next_time <= t {
            let stage = self.next_stage;
            let toggle_t = self.next_time;
            self.trains[stage].push(toggle_t);
            let next = (stage + 1) % self.config.stages;
            let d = self.draw_stage_delay(next, toggle_t);
            self.next_stage = next;
            self.next_time = toggle_t + d;
        }
        self.now = t;
        let keep_from = t - self.config.history_window;
        if keep_from > Ps::ZERO {
            for train in &mut self.trains {
                train.prune_before(keep_from);
            }
        }
    }

    /// Jumps ahead by whole ring traversals using the closed-form
    /// distribution of the elapsed time, then runs the exact event loop
    /// for the remaining `exact_tail` before `t`.
    ///
    /// Statistically equivalent to [`RingOscillator::run_until`] for
    /// white-only noise: the time of the `K·n`-th future transition is
    /// `sum of K·n independent N(d_i, sigma^2)` variates, which is
    /// sampled in O(1). Node levels after `K` full traversals flip iff
    /// `K` is odd.
    ///
    /// # Errors
    ///
    /// Returns [`FastForwardUnsupported`] if flicker, global or attack
    /// noise is enabled (their time correlation cannot be jumped).
    pub fn fast_forward_to(&mut self, t: Ps, exact_tail: Ps) -> Result<(), FastForwardUnsupported> {
        if !self.config.noise.is_white_only() {
            return Err(FastForwardUnsupported);
        }
        let half = self.half_period();
        let n = self.config.stages as f64;
        let sigma = self.config.noise.white.sigma().as_ps();
        // Provisional jump size with the minimal tail, then enlarge the
        // tail to 8 sigma of the jump's own spread so the (random)
        // landing point almost surely stays before `t`.
        let base_tail = exact_tail.max(self.config.history_window);
        let lead0 = (t - base_tail - self.next_time).max(Ps::ZERO);
        let k0 = (lead0 / half).floor().max(0.0);
        let spread = Ps::from_ps(8.0 * sigma * (k0 * n).sqrt());
        let tail = base_tail + spread;
        let lead = t - tail - self.next_time;
        let k = (lead / half).floor();
        if k >= 2.0 {
            let k = k as u64;
            let events = k as f64 * n;
            let elapsed = Ps::from_ps(
                self.rng
                    .gaussian(half.as_ps() * k as f64, sigma * events.sqrt()),
            )
            // Guard absurd tails on both sides; the upper clamp keeps the
            // landing point inside the exact-tail region before `t`.
            .max(half * (k as f64 * 0.5))
            .min(t - base_tail - self.next_time);
            let new_next = self.next_time + elapsed;
            // Rebuild trains: levels flip iff k is odd; history restarts.
            let flip = k % 2 == 1;
            for train in &mut self.trains {
                let level = train.level_at(self.now.max(train.valid_from())) ^ flip;
                // A fresh train valid from the jump point.
                *train = EdgeTrain::new(level, new_next.min(t));
            }
            self.next_time = new_next;
            self.now = new_next.min(t);
        }
        self.run_until(t);
        Ok(())
    }

    /// Advances to `t`, fast-forwarding when profitable and supported,
    /// falling back to the exact path otherwise.
    pub fn advance_to(&mut self, t: Ps) {
        let lead = t - self.next_time;
        if lead > self.half_period() * 64.0 && self.config.noise.is_white_only() {
            // Unwrap is safe: white-only checked above.
            self.fast_forward_to(t, self.config.history_window)
                .expect("white-only fast-forward");
        } else {
            self.run_until(t);
        }
    }

    /// A borrowed view of node `i` usable as a [`SignalSource`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> RingNode<'_> {
        assert!(i < self.config.stages, "node {i} out of range");
        RingNode {
            train: &self.trains[i],
        }
    }

    /// Number of transitions of node `i` recorded in the half-open
    /// window `(from, to]` — half-open so that adjacent windows tile
    /// without double counting (transition counting measurements scan
    /// in chunks).
    ///
    /// The caller must have advanced the oscillator to at least `to`
    /// and the window must lie within retained history.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count_transitions(&self, i: usize, from: Ps, to: Ps) -> usize {
        assert!(i < self.config.stages, "node {i} out of range");
        self.trains[i]
            .edges_in(from, to)
            .filter(|&e| e > from)
            .count()
    }

    fn draw_stage_delay(&mut self, stage: usize, t: Ps) -> Ps {
        let nominal = self.stages[stage].delay();
        self.stage_noise[stage].stage_delay(&self.config.noise, nominal, t, &mut self.rng)
    }
}

/// Borrowed view of one oscillator node.
#[derive(Debug, Clone, Copy)]
pub struct RingNode<'a> {
    train: &'a EdgeTrain,
}

impl SignalSource for RingNode<'_> {
    fn level_at(&self, t: Ps) -> bool {
        self.train.level_at(t)
    }

    fn nearest_edge_distance(&self, t: Ps) -> Option<Ps> {
        self.train.nearest_edge_distance(t)
    }

    fn level_at_with(&self, t: Ps, cursor: &mut EdgeCursor) -> bool {
        self.train.level_at_with(t, cursor)
    }

    fn nearest_edge_distance_with(&self, t: Ps, cursor: &mut EdgeCursor) -> Option<Ps> {
        self.train.nearest_edge_distance_with(t, cursor)
    }

    fn as_edge_train(&self) -> Option<&EdgeTrain> {
        Some(self.train)
    }
}

impl<'a> RingNode<'a> {
    /// The underlying transition history.
    pub fn edge_train(&self) -> &'a EdgeTrain {
        self.train
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal_ro(sigma: f64) -> RingOscillator {
        RingOscillator::new(
            RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(sigma)),
            SimRng::seed_from(42),
        )
        .expect("valid")
    }

    #[test]
    fn period_matches_stage_delays() {
        let ro = ideal_ro(0.0);
        assert_eq!(ro.half_period(), Ps::from_ps(1440.0));
        assert_eq!(ro.period(), Ps::from_ps(2880.0));
        let f = ro.frequency_hz();
        assert!((f - 1.0 / 2.88e-9).abs() / f < 1e-12);
    }

    #[test]
    fn noiseless_ring_toggles_each_node_every_half_period() {
        let mut ro = ideal_ro(0.0);
        ro.run_until(Ps::from_ns(30.0));
        // Node 0 toggles at 480, 1920, 3360, ... (every 1440 ps).
        let n0 = ro.count_transitions(0, Ps::from_ns(28.0), Ps::from_ns(30.0));
        // 2 ns window / 1.44 ns -> 1 or 2 edges.
        assert!((1..=2).contains(&n0), "{n0} edges");
        // All three nodes toggle at the same average rate.
        for i in 0..3 {
            let c = ro.count_transitions(i, Ps::from_ns(28.5), Ps::from_ns(30.0));
            assert!((1..=2).contains(&c), "node {i}: {c}");
        }
    }

    #[test]
    fn exactly_one_node_toggles_per_stage_delay() {
        let mut ro = ideal_ro(0.0);
        ro.run_until(Ps::from_ns(2.0));
        // In [0, 1.44ns] each node toggles exactly once (one traversal).
        let total: usize = (0..3)
            .map(|i| ro.count_transitions(i, Ps::ZERO, Ps::from_ps(1440.0)))
            .sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn node_levels_are_consistent_square_waves() {
        let mut ro = ideal_ro(0.0);
        // Stay within the 2 ns history window so early queries are valid.
        ro.run_until(Ps::from_ns(1.8));
        // Immediately before a node-0 toggle and after differ.
        let n0 = ro.node(0);
        let before = n0.level_at(Ps::from_ps(479.0));
        let after = n0.level_at(Ps::from_ps(481.0));
        assert_ne!(before, after);
    }

    #[test]
    fn jitter_accumulates_with_sqrt_of_time() {
        // Measure the spread of the K-th toggle time of node 0 over many
        // runs; it must match sigma * sqrt(#events).
        let sigma = 3.0;
        let traversals = 40usize; // node 0 toggles once per traversal
        let runs = 3000;
        let mut times = Vec::with_capacity(runs);
        for seed in 0..runs {
            // Large history window so the K-th toggle is not pruned.
            let cfg = RingOscillatorConfig {
                history_window: Ps::from_us(1.0),
                ..RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(sigma))
            };
            let mut ro = RingOscillator::new(cfg, SimRng::seed_from(seed as u64)).expect("valid");
            let horizon = Ps::from_ps(1440.0) * (traversals as f64 + 2.0);
            ro.run_until(horizon);
            // K-th toggle of node 0 = edges at 480 + k*1440.
            let k_th = Ps::from_ps(480.0 + (traversals as f64 - 1.0) * 1440.0);
            let edge = ro
                .node(0)
                .edge_train()
                .edges_in(k_th - Ps::from_ps(400.0), k_th + Ps::from_ps(400.0))
                .next();
            if let Some(e) = edge {
                times.push(e.as_ps());
            }
        }
        assert!(times.len() > runs * 9 / 10, "lost too many edges");
        let n = times.len() as f64;
        let mean = times.iter().sum::<f64>() / n;
        let sd = (times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
        // #events to the K-th toggle of node0 = 1 + (K-1)*3 stage events...
        // toggle j of node 0 happens after 3*j - 2 stage traversals.
        let events = (3 * traversals - 2) as f64;
        let expected = sigma * events.sqrt();
        assert!(
            (sd - expected).abs() < expected * 0.15,
            "sd {sd} expected {expected}"
        );
    }

    #[test]
    fn history_is_pruned() {
        let mut ro = ideal_ro(2.0);
        ro.run_until(Ps::from_us(1.0));
        // 2 ns window at 480 ps/event: ~13 edges per node retained.
        for i in 0..3 {
            assert!(ro.node(i).edge_train().len() < 40);
        }
    }

    #[test]
    fn fast_forward_matches_exact_marginals() {
        // Compare the distribution of the offset between the sampling
        // instant and the most recent node-0 toggle under the exact and
        // the fast-forward path: means and standard deviations must
        // agree (the offset spread is exactly the accumulated jitter).
        let t = Ps::from_us(2.0);
        let runs = 1500u64;
        let offsets = |fast: bool| -> (f64, f64) {
            let mut xs = Vec::with_capacity(runs as usize);
            for seed in 0..runs {
                let cfg = RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.0));
                let salt = if fast { 1_000_000 } else { 0 };
                let mut ro = RingOscillator::new(cfg, SimRng::seed_from(seed + salt)).unwrap();
                if fast {
                    ro.fast_forward_to(t, Ps::from_ns(5.0)).unwrap();
                } else {
                    ro.run_until(t);
                }
                let last = ro
                    .node(0)
                    .edge_train()
                    .edges_in(t - Ps::from_ns(2.0), t)
                    .last()
                    .expect("an edge within the window");
                xs.push((t - last).as_ps());
            }
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
            (mean, sd)
        };
        let (mean_exact, sd_exact) = offsets(false);
        let (mean_ff, sd_ff) = offsets(true);
        // sigma_acc(2us) = 2 * sqrt(2e6/480) ~ 129 ps; means within a
        // few standard errors, sds within 15 %.
        assert!(
            (mean_exact - mean_ff).abs() < 20.0,
            "means {mean_exact} vs {mean_ff}"
        );
        assert!(
            (sd_exact - sd_ff).abs() < 0.15 * sd_exact,
            "sds {sd_exact} vs {sd_ff}"
        );
    }

    #[test]
    fn fast_forward_rejected_with_flicker() {
        let cfg = RingOscillatorConfig {
            noise: NoiseConfig::white_only(Ps::from_ps(2.0))
                .with_flicker(crate::noise::FlickerParams::default()),
            ..RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.0))
        };
        let mut ro = RingOscillator::new(cfg, SimRng::seed_from(0)).unwrap();
        assert_eq!(
            ro.fast_forward_to(Ps::from_us(10.0), Ps::from_ns(5.0)),
            Err(FastForwardUnsupported)
        );
    }

    #[test]
    fn advance_to_uses_exact_path_for_short_steps() {
        let mut ro = ideal_ro(2.0);
        ro.advance_to(Ps::from_ns(10.0));
        assert_eq!(ro.now(), Ps::from_ns(10.0));
        // Short step: full history retained since t=0 minus window.
        assert!(!ro.node(0).edge_train().is_empty());
    }

    #[test]
    fn even_stage_count_is_rejected() {
        let cfg = RingOscillatorConfig::ideal(4, Ps::from_ps(480.0), Ps::ZERO);
        assert!(RingOscillator::new(cfg, SimRng::seed_from(0)).is_err());
    }

    #[test]
    fn process_variation_changes_period() {
        let cfg = RingOscillatorConfig {
            process: ProcessVariation::default(),
            device: DeviceSeed::new(3),
            ..RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::ZERO)
        };
        let ro = RingOscillator::new(cfg, SimRng::seed_from(0)).unwrap();
        assert_ne!(ro.half_period(), Ps::from_ps(1440.0));
        assert!((ro.half_period().as_ps() - 1440.0).abs() < 1440.0 * 0.2);
    }
}
