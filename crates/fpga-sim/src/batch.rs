//! Sample-synchronous synthesis of ring-oscillator edge trains — the
//! [`NoiseBackend::Batched`] hot path.
//!
//! The scalar pipeline ([`RingOscillator`](crate::ring_oscillator::RingOscillator) +
//! [`TappedDelayLine::sample_into`]) advances the ring one transition
//! event at a time, drawing every Gaussian variate individually so that
//! traces, journals and golden vectors replay byte-identically. That
//! contract's cost is ~75 % of the scalar per-bit time, frozen in
//! per-edge noise synthesis that cannot be amortised without changing
//! the draw sequence.
//!
//! [`BatchedRingEngine`] deliberately gives up draw-identity (never the
//! *distribution*). The delay lines see the ring only inside a short
//! sampling window around each clock edge (the tap span plus the
//! metastability aperture, ~630 ps for the paper's 36 taps, against
//! `t_A = 10 ns` and ~21 transitions per sample), so each
//! [`BatchedRingEngine::sample_words`] call does three things:
//!
//! 1. **Jump.** Transitions that land before the window matter only
//!    through their summed delay and each node's edge count. When the
//!    delays do not depend on time (no global modulation, no attack),
//!    the white jitter `σ` is positive and no event of the current
//!    flicker window can reach the 5 % causality clamp
//!    (`base − σ·Z_MAX > clamp` for every stage, where `Z_MAX ≈ 13.71`
//!    bounds every variate the block ziggurat returns), `k` such events
//!    take exactly `Σbase(k) + σ·√k·z` — one Gaussian draw, with the
//!    ring position advanced by arithmetic. `Σbase(k)` is the exact sum
//!    of the `k` stage delays from the next stage on (whole traversals
//!    plus a prefix-sum remainder), and the engine takes the largest
//!    `k` with `Σbase(k) + Z_MAX·σ·√k` still before the window: seeded
//!    from `gap/b_min` (no larger `k` can fit) and counted down, with
//!    `√k` read from a table built at construction. A jump never
//!    crosses a [`FLICKER_WINDOW`] boundary and is at least two events
//!    long (a one-event jump is just a step). No square root or
//!    division sits on the serial time chain.
//! 2. **Per-event window.** The few transitions around the window are
//!    synthesised one at a time with the same delay composition as the
//!    scalar `StageNoise::stage_delay` (global factor, white + flicker,
//!    attack at the prospective edge instant, clamp), and those inside
//!    the window are kept in a small fixed-size array per node. Stepping
//!    stops once the next event provably lands past the window (its
//!    stage's shortest possible delay already overshoots), so that
//!    event joins the next sample's jump. Configs
//!    with global modulation or an attack, zero white jitter (whose
//!    sequential sums then match the scalar sampler bit for bit) or a
//!    reachable clamp never jump: every event goes through this step.
//! 3. **Sample.** Each line starts as the flat word of the level every
//!    tap has seen, and only the node's *candidate* edges — those in
//!    `(u_last − w, u_first + w]`, the only ones that can split a run
//!    or open an aperture — touch it; a line without one costs no tap
//!    walk. Per candidate edge `e`, taken latest first, a per-line 1 ps
//!    table of tap splits seeds the first tap observing before `e + w`,
//!    and one walk down the tap instants past `e` (the level split)
//!    to `e − w` (the aperture's end) evaluates each scalar
//!    `(t + skew) − cum` instant once: it counts the taps at or after
//!    `e`, whose low-bit mask toggles the word, and draws the coin of
//!    every tap inside the aperture as `word ^= (u ≥ p) << j` — the
//!    scalar sampler's Bernoulli draw, in the same ascending-tap order.
//!    With one candidate edge the nearest-edge distance is `|u − e|`;
//!    with several it is the minimum over them, exactly what the
//!    scalar nearest-edge query returns.
//!
//! The Ornstein–Uhlenbeck flicker state advances once per window of
//! [`FLICKER_WINDOW`] events with the exact recurrence
//! `x ← x·a + N(0, σ·√(1−a²))`, `a = exp(−Δ/τ_c)` at the window spacing
//! `Δ` (~60 ns for the paper ring — four orders of magnitude below
//! `τ_c = 1 µs`, so the piecewise-constant hold is far inside the
//! flicker correlation time and the marginal distribution and
//! window-scale autocorrelation are exact). Gaussian variates come from
//! the block ziggurat ([`SimRng::enable_batched_normals`]) through a
//! small local batch.
//!
//! Metastability coin flips still come from the *caller's* RNG, in the
//! same ascending-tap order as the scalar sampler, so the aperture
//! statistics (and the coin budget per sample) are unchanged.
//!
//! The engine refuses (`Err`) configurations it cannot serve exactly —
//! more than 64 taps per line, tap instants that are not monotone
//! non-increasing, a line/stage count mismatch, or a sampling window
//! that could hold more edges than a node's array — and callers fall
//! back to the scalar oscillator, Box–Muller draws and all.

use crate::delay_line::{range_mask, TappedDelayLine};
use crate::noise::{NoiseBackend, NoiseConfig};
use crate::primitives::LutDelay;
use crate::ring_oscillator::RingOscillatorConfig;
use crate::rng::{SimRng, Z_MAX};
use crate::time::Ps;

/// Events per flicker window: the OU state of every stage is advanced
/// once per window (exact decay for the window's wall-clock span) and
/// held constant within it.
pub const FLICKER_WINDOW: usize = 128;

/// Edges one node's window array holds. [`BatchedRingEngine::new`]
/// refuses configurations whose sampling window could need more.
const WINDOW_CAP: usize = 32;

/// Standard normals the engine draws ahead of use.
const NORMAL_BATCH: usize = 64;

/// Guard band around the sampling window, ps: far above the rounding
/// of any tap instant, so edges just outside the window never decide a
/// sample.
const GUARD_PS: f64 = 1.0;

/// Per-stage Ornstein–Uhlenbeck flicker state for the batched engine.
#[derive(Debug, Clone)]
struct FlickerState {
    /// Decay per flicker window: `exp(−Δ/τ_c)` at the window span
    /// `Δ = FLICKER_WINDOW · half_period / n`.
    a: f64,
    /// Innovation standard deviation per window: `σ·√(1−a²)`.
    innov_sd: f64,
    /// Current per-stage process value, ps.
    state: Vec<f64>,
}

/// Standard normals drawn ahead from the engine's RNG, so the
/// per-event path reads one array slot instead of the RNG's block
/// buffer.
#[derive(Debug, Clone)]
struct NormalBatch {
    rng: SimRng,
    /// `buf[pos..]` are unused.
    buf: [f64; NORMAL_BATCH],
    pos: usize,
}

impl NormalBatch {
    #[inline]
    fn draw(&mut self) -> f64 {
        if self.pos == NORMAL_BATCH {
            self.rng.fill_standard_normals(&mut self.buf);
            self.pos = 0;
        }
        let z = self.buf[self.pos];
        self.pos += 1;
        z
    }
}

/// The edges of one ring node that the current sampling window can
/// see.
#[derive(Debug, Clone, Copy)]
struct NodeWindow {
    /// Toggle instants, ps, ascending; only `edges[..len]` is live.
    edges: [f64; WINDOW_CAP],
    len: usize,
}

impl NodeWindow {
    fn live(&self) -> &[f64] {
        &self.edges[..self.len]
    }

    /// Drops the live edges before `horizon`.
    fn prune_before(&mut self, horizon: f64) {
        // Samples further apart than the window leave nothing behind.
        if self.len == 0 || self.edges[self.len - 1] < horizon {
            self.len = 0;
            return;
        }
        let dead = self.live().iter().filter(|&&e| e < horizon).count();
        self.edges.copy_within(dead..self.len, 0);
        self.len -= dead;
    }
}

/// Sampling geometry of one delay line.
#[derive(Debug, Clone)]
struct LineTaps {
    /// Capture-clock skews, ps.
    skew: Vec<f64>,
    /// Cumulative tap delays, ps.
    cum: Vec<f64>,
    /// Metastability window, ps.
    meta_w: f64,
    /// Level of the sampled node before its first edge.
    init: bool,
    /// Every tap's bit.
    full: u64,
    /// `split[b]`: taps whose offset `skew − cum` is at least
    /// `split_base + b` ps — a seed for [`LineTaps::seed`].
    split: Vec<u8>,
    split_base: f64,
}

impl LineTaps {
    /// Start for the "first tap observing before `t + x`" walk: the
    /// taps whose offset reaches the 1 ps bucket holding `x`. Tap
    /// instants are non-increasing (validated at construction), so
    /// this lands within a tap or so of the answer, almost always at
    /// or just past it.
    #[inline]
    fn seed(&self, x: f64) -> usize {
        // Saturating cast: anything below the table reads bucket 0.
        let b = ((x - self.split_base) as usize).min(self.split.len() - 1);
        usize::from(self.split[b])
    }
}

/// Mask of the low `s` bits, `s ≤ 64`, without a branch.
#[inline]
fn low_mask(s: usize) -> u64 {
    ((1u128 << s) - 1) as u64
}

/// Sample-synchronous engine replacing the event-at-a-time oscillator
/// and per-tap sampler on the [`NoiseBackend::Batched`] hot path.
///
/// Statistically equivalent to the scalar pair (same delay formula,
/// same OU flicker marginals, same run-length/metastability sampler),
/// but the Gaussian draw sequence differs, so streams are not
/// byte-identical to scalar runs. See the module docs for the exact
/// contract.
#[derive(Debug, Clone)]
pub struct BatchedRingEngine {
    n: usize,
    /// Process-adjusted stage delays, ps (identical to the scalar
    /// oscillator's `LutDelay::placed(..).delay()` values).
    nominal: Vec<f64>,
    /// Causality clamp per stage: 5 % of nominal, as the scalar path.
    clamp: Vec<f64>,
    half_period: f64,
    noise: NoiseConfig,
    /// Global modulation or an attack makes delays depend on time:
    /// every event then takes the general per-event formula.
    time_varying: bool,
    white_sigma: f64,
    flicker: Option<FlickerState>,
    normals: NormalBatch,
    /// Per-stage effective base delay within the current flicker
    /// window (nominal + flicker state).
    base: Vec<f64>,
    /// `base_prefix[j] = Σ base[i mod n]` over `i < j`, for `j ≤ 2n`:
    /// any run of fewer than `n` events sums as one difference.
    base_prefix: Vec<f64>,
    /// `Σ base` over one ring traversal.
    base_sum: f64,
    /// `1 / min base`: no more than `gap / b_min` events fit in a gap.
    inv_base_min: f64,
    /// Whether the current flicker window allows jumps (see the module
    /// docs).
    jump_ok: bool,
    /// Shortest delay each stage can take in the current flicker
    /// window: `base − σ·Z_MAX` where jumps are allowed, else the
    /// clamp.
    floor: Vec<f64>,
    /// `(k / n, k % n)` for every jump length `k ≤ FLICKER_WINDOW`.
    traversals: Vec<(u8, u8)>,
    /// `σ·√k` and `Z_MAX·σ·√k` for every `k ≤ FLICKER_WINDOW`: the
    /// jump's standard deviation and its provable reach.
    jump_sd: Vec<f64>,
    jump_reach: Vec<f64>,
    /// Events left before the next flicker-window boundary.
    window_left: usize,
    /// Stage whose output toggles at the next event.
    next_stage: usize,
    /// Completed ring traversals: node `s` has toggled
    /// `cycles + (s < next_stage)` times since `t = 0`.
    cycles: u64,
    /// Instant of the newest event, ps.
    t: f64,
    nodes: Vec<NodeWindow>,
    lines: Vec<LineTaps>,
    /// Sampling window relative to the clock edge, ps: every tap
    /// instant plus its aperture, widened by [`GUARD_PS`].
    window_lo: f64,
    window_hi: f64,
}

impl BatchedRingEngine {
    /// Builds an engine for the given ring configuration and delay
    /// lines (line `i` samples ring node `i`).
    ///
    /// The `rng` fork is switched to batched-normal mode and used for
    /// all noise synthesis; metastability coins are drawn from the
    /// caller's RNG at sample time instead.
    ///
    /// # Errors
    ///
    /// Returns a description when the configuration cannot be served
    /// with the run-length sampler (line/stage count mismatch, more
    /// than 64 taps, non-monotone tap observation instants, or a
    /// sampling window long enough to hold more edges than a node's
    /// array). The caller should fall back to the scalar oscillator.
    pub fn new(
        config: &RingOscillatorConfig,
        lines: &[TappedDelayLine],
        mut rng: SimRng,
    ) -> Result<Self, String> {
        config.validate()?;
        let n = config.stages;
        if lines.len() != n {
            return Err(format!(
                "batched engine needs one line per ring node: {} lines for {} stages",
                lines.len(),
                n
            ));
        }
        let (bx, by) = config.base_site;
        let nominal: Vec<f64> = (0..n)
            .map(|i| {
                LutDelay::placed(
                    config.stage_delay,
                    config.device,
                    &config.process,
                    bx + 2 * i as u64,
                    by,
                )
                .delay()
                .as_ps()
            })
            .collect();
        let clamp: Vec<f64> = nominal.iter().map(|d| d * 0.05).collect();
        let half_period: f64 = nominal.iter().sum();

        let mut taps = Vec::with_capacity(n);
        let mut window_lo = f64::INFINITY;
        let mut window_hi = f64::NEG_INFINITY;
        for (idx, line) in lines.iter().enumerate() {
            let m = line.len();
            if m > 64 {
                return Err(format!(
                    "batched engine supports at most 64 taps, line {idx} has {m}"
                ));
            }
            let skew: Vec<f64> = line.capture_skews().iter().map(|p| p.as_ps()).collect();
            let cum: Vec<f64> = line.cum_delays().iter().map(|p| p.as_ps()).collect();
            let off: Vec<f64> = skew.iter().zip(&cum).map(|(s, c)| s - c).collect();
            for j in 1..m {
                if off[j] > off[j - 1] {
                    return Err(format!(
                        "batched engine needs monotone tap instants, line {idx} tap {j} \
                         observes later than tap {}",
                        j - 1
                    ));
                }
            }
            let w = line.capture_ff().meta_window().as_ps();
            window_lo = window_lo.min(off[m - 1] - w);
            window_hi = window_hi.max(off[0] + w);
            // Split thresholds reach one aperture beyond the window
            // (edge ± w), plus a bucket of slack on either side.
            let split_base = (off[m - 1] - 2.0 * w).floor() - 1.0;
            let buckets = (off[0] + 2.0 * w - split_base).ceil() as usize + 2;
            // `off` is non-increasing, so the taps at or past a
            // threshold are a prefix that shrinks as it rises.
            let mut at_or_past = m;
            let split = (0..buckets)
                .map(|b| {
                    let threshold = split_base + b as f64;
                    while at_or_past > 0 && off[at_or_past - 1] < threshold {
                        at_or_past -= 1;
                    }
                    at_or_past as u8
                })
                .collect();
            taps.push(LineTaps {
                skew,
                cum,
                meta_w: w,
                init: idx % 2 == 1,
                full: range_mask(0, m),
                split,
                split_base,
            });
        }
        let window_lo = window_lo - GUARD_PS;
        let window_hi = window_hi + GUARD_PS;
        // A node toggles once per ring traversal, and every event is
        // at least its stage's clamp, so its edges are at least
        // Σ clamp apart. The array holds the edges inside the window,
        // the newest event past it, and one of rounding slack.
        let min_gap: f64 = clamp.iter().sum();
        let need = ((window_hi - window_lo) / min_gap).floor() as usize + 3;
        if need > WINDOW_CAP {
            return Err(format!(
                "batched engine holds {WINDOW_CAP} edges per node, but a {:.0} ps sampling \
                 window can see {need} edges {min_gap:.1} ps apart",
                window_hi - window_lo
            ));
        }

        rng.enable_batched_normals();
        let white_sigma = config.noise.white.sigma().as_ps();
        // The wall-clock span of one flicker window: FLICKER_WINDOW
        // events of one mean stage delay each.
        let window_span = FLICKER_WINDOW as f64 * half_period / n as f64;
        let flicker = config.noise.flicker.and_then(|p| {
            let sigma = p.sigma.as_ps();
            if sigma <= 0.0 {
                return None;
            }
            let a = (-(window_span / p.tau_c.as_ps())).exp();
            Some(FlickerState {
                a,
                innov_sd: sigma * (1.0 - a * a).sqrt(),
                // Stationary initial condition, as the scalar
                // `FlickerNoise::new` draws per stage.
                state: (0..n).map(|_| rng.gaussian(0.0, sigma)).collect(),
            })
        });
        let sqrt_k = (0..=FLICKER_WINDOW).map(|k| (k as f64).sqrt());

        Ok(BatchedRingEngine {
            n,
            base: nominal.clone(),
            base_prefix: vec![0.0; 2 * n + 1],
            base_sum: half_period,
            inv_base_min: 0.0,
            jump_ok: false,
            floor: clamp.clone(),
            traversals: (0..=FLICKER_WINDOW)
                .map(|k| ((k / n) as u8, (k % n) as u8))
                .collect(),
            jump_sd: sqrt_k.clone().map(|r| white_sigma * r).collect(),
            jump_reach: sqrt_k.map(|r| Z_MAX * white_sigma * r).collect(),
            // The first event opens a flicker window.
            window_left: 0,
            nominal,
            clamp,
            half_period,
            time_varying: config.noise.global.is_some() || config.noise.attack.is_some(),
            white_sigma,
            noise: config.noise.clone(),
            flicker,
            normals: NormalBatch {
                rng,
                buf: [0.0; NORMAL_BATCH],
                pos: NORMAL_BATCH,
            },
            next_stage: 0,
            cycles: 0,
            t: 0.0,
            nodes: vec![
                NodeWindow {
                    edges: [0.0; WINDOW_CAP],
                    len: 0,
                };
                n
            ],
            lines: taps,
            window_lo,
            window_hi,
        })
    }

    /// The backend this engine implements.
    pub fn backend(&self) -> NoiseBackend {
        NoiseBackend::Batched
    }

    /// Nominal ring half-period (sum of process-adjusted stage delays).
    pub fn half_period(&self) -> Ps {
        Ps::from_ps(self.half_period)
    }

    /// Edges node `s` has received since `t = 0`.
    #[inline]
    fn edge_count(&self, s: usize) -> u64 {
        self.cycles + u64::from(s < self.next_stage)
    }

    /// Opens the next flicker window: advances every stage's OU state
    /// once (exact decay for the window span), holds the resulting
    /// base delays for the window, and decides whether its events may
    /// be jumped.
    fn next_flicker_window(&mut self) {
        if let Some(f) = &mut self.flicker {
            for s in 0..self.n {
                f.state[s] = f.state[s] * f.a + f.innov_sd * self.normals.draw();
                self.base[s] = self.nominal[s] + f.state[s];
            }
        }
        let mut acc = 0.0;
        for (j, &b) in self.base.iter().chain(&self.base).enumerate() {
            acc += b;
            self.base_prefix[j + 1] = acc;
        }
        self.base_sum = self.base_prefix[self.n];
        let base_min = self.base.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        self.inv_base_min = 1.0 / base_min;
        let reach = self.white_sigma * Z_MAX;
        self.jump_ok = !self.time_varying
            && self.white_sigma > 0.0
            && self
                .base
                .iter()
                .zip(&self.clamp)
                .all(|(b, c)| b - reach > *c);
        for s in 0..self.n {
            self.floor[s] = if self.jump_ok {
                self.base[s] - reach
            } else {
                self.clamp[s]
            };
        }
        self.window_left = FLICKER_WINDOW;
    }

    /// `Σbase` over the next `k ≤ FLICKER_WINDOW` events.
    #[inline]
    fn jump_span(&self, k: usize) -> f64 {
        let (cycles, rest) = self.traversals[k];
        let s = self.next_stage;
        f64::from(cycles) * self.base_sum
            + (self.base_prefix[s + usize::from(rest)] - self.base_prefix[s])
    }

    /// Events that can be jumped while provably landing short of a
    /// point `gap` ps ahead: the largest `k` with
    /// `Σbase(k) + Z_MAX·σ·√k < gap`, capped at the rest of the flicker
    /// window, or 0 when the window does not allow jumps or the gap has
    /// room for less than two events (a one-event jump is just a step).
    fn jump_len(&self, gap: f64) -> usize {
        if !self.jump_ok {
            return 0;
        }
        // k events take at least k·b_min, so none past gap/b_min fit
        // (the saturating cast maps a negative gap to 0). Capping at 2
        // still decides whether any jump fits when fewer are left.
        let mut k = ((gap * self.inv_base_min) as usize).min(self.window_left.max(2));
        while k >= 2 && self.jump_span(k) + self.jump_reach[k] >= gap {
            k -= 1;
        }
        if k < 2 {
            0
        } else {
            k.min(self.window_left)
        }
    }

    /// Advances the ring by `k` events in one draw: their summed delay
    /// is `Σbase(k) + σ·√k·z` (no event could reach the clamp), and the
    /// ring position (hence every node's edge count) advances by `k`.
    fn jump(&mut self, k: usize) {
        debug_assert!(k <= self.window_left && self.jump_ok);
        debug_assert!(
            self.nodes.iter().all(|node| node.len == 0),
            "jumped over a live edge"
        );
        self.t += self.jump_span(k) + self.jump_sd[k] * self.normals.draw();
        let (cycles, rest) = self.traversals[k];
        let s = self.next_stage + usize::from(rest);
        let wrap = s >= self.n;
        self.cycles += u64::from(cycles) + u64::from(wrap);
        self.next_stage = if wrap { s - self.n } else { s };
        self.window_left -= k;
    }

    /// Synthesises one event and records it on its node when it lands
    /// at or after `keep_from`.
    fn step(&mut self, keep_from: f64) {
        let s = self.next_stage;
        let d = if self.time_varying {
            // Same composition as the scalar `StageNoise::stage_delay`,
            // at the same event times: multiplicative global factor,
            // additive white + flicker, attack at the prospective edge
            // instant.
            let mut d = self.nominal[s];
            if let Some(g) = &self.noise.global {
                d *= g.delay_factor(Ps::from_ps(self.t));
            }
            if self.white_sigma > 0.0 {
                d += self.white_sigma * self.normals.draw();
            }
            d += self.base[s] - self.nominal[s];
            if let Some(a) = &self.noise.attack {
                d += a.injected_delay(Ps::from_ps(self.t + d)).as_ps();
            }
            d
        } else if self.white_sigma > 0.0 {
            self.base[s] + self.white_sigma * self.normals.draw()
        } else {
            self.base[s]
        };
        self.t += d.max(self.clamp[s]);
        // Always written, kept only from `keep_from` on: the slot past
        // the live edges is free either way.
        let node = &mut self.nodes[s];
        node.edges[node.len] = self.t;
        node.len += usize::from(self.t >= keep_from);
        let wrap = s + 1 == self.n;
        self.cycles += u64::from(wrap);
        self.next_stage = if wrap { 0 } else { s + 1 };
        self.window_left -= 1;
    }

    /// Synthesises every event up to `hi`, jumping where allowed while
    /// short of `lo` and keeping every edge from `lo` on. It stops as
    /// soon as the next event provably lands past `hi`, so that event
    /// is left to the next sample's jump.
    fn advance(&mut self, lo: f64, hi: f64) {
        loop {
            if self.window_left == 0 {
                self.next_flicker_window();
            }
            let k = self.jump_len(lo - self.t);
            if k == 0 {
                break;
            }
            self.jump(k);
        }
        loop {
            // The next event opens a new flicker window, whose floor is
            // not known yet: only the clamp bounds it.
            let s = self.next_stage;
            let floor = if self.window_left > 0 {
                self.floor[s]
            } else {
                self.clamp[s]
            };
            if self.t + floor > hi {
                break;
            }
            if self.window_left == 0 {
                self.next_flicker_window();
            }
            self.step(lo);
        }
    }

    /// Samples every line at clock edge `t`, writing the packed word of
    /// line `i` into `words[i]` and returning the XOR of all words —
    /// the batched equivalent of one `advance_to` + per-line
    /// [`TappedDelayLine::sample_into`] pass.
    ///
    /// `coins` supplies the metastability Bernoulli draws, in the same
    /// ascending-tap order per line as the scalar sampler. Sample
    /// times must be monotone non-decreasing, as with the scalar
    /// oscillator.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the line count.
    pub fn sample_words(&mut self, t: Ps, coins: &mut SimRng, words: &mut [u64]) -> u64 {
        assert_eq!(
            words.len(),
            self.n,
            "need one word slot per line, got {} for {}",
            words.len(),
            self.n
        );
        let t_ps = t.as_ps();
        let lo = t_ps + self.window_lo;
        for node in &mut self.nodes {
            node.prune_before(lo);
        }
        self.advance(lo, t_ps + self.window_hi);
        let mut xor = 0u64;
        for (i, slot) in words.iter_mut().enumerate() {
            let word = self.sample_line(i, t_ps, coins);
            *slot = word;
            xor ^= word;
        }
        xor
    }

    /// Packed capture of one line: the scalar run-length sampler's
    /// levels and apertures, computed from the node's candidate edges
    /// with one tap walk per edge (see the module docs).
    fn sample_line(&self, line: usize, t_ps: f64, coins: &mut SimRng) -> u64 {
        let taps = &self.lines[line];
        let edges = self.nodes[line].live();
        let (skew, cum) = (&taps.skew[..], &taps.cum[..]);
        let m = skew.len();
        // Same association as the scalar `tap_instant`: (t + skew) −
        // cum, so instants match bit for bit. Evaluated on demand —
        // the walks below only ever probe a handful of the m taps.
        let u = |j: usize| (t_ps + skew[j]) - cum[j];
        let w = taps.meta_w;

        // Edges in (u_last − w, u_first + w] are the only ones that
        // can split a run or open an aperture; every tap has seen the
        // edges before them.
        let (below, above) = (u(m - 1) - w, u(0) + w);
        let (mut lo, mut hi) = (0, 0);
        for &e in edges {
            lo += usize::from(e <= below);
            hi += usize::from(e <= above);
        }
        let seen = self.edge_count(line) - (edges.len() - lo) as u64;
        let level = taps.init ^ (seen % 2 == 1);
        let mut word = taps.full & 0u64.wrapping_sub(u64::from(level));

        let candidates = &edges[lo..hi];
        let mut next_j = 0;
        // Latest edge first, so coins land in ascending-tap order;
        // taps before `next_j` were settled by a later edge.
        for &e in candidates.iter().rev() {
            let (early, late) = (e + w, e - w);
            let mut j = taps.seed(early - t_ps).max(next_j);
            while j > next_j && u(j - 1) < early {
                j -= 1;
            }
            // Taps before `j` observe at or after e + w; `split` counts
            // on through the walk to the first tap observing before e.
            let mut split = j;
            while j < m {
                let uj = u(j);
                if uj >= early {
                    // The seed fell short of the aperture.
                    split += 1;
                } else if uj <= late {
                    break;
                } else {
                    split += usize::from(uj >= e);
                    // Exact aperture test against the *nearest* edge,
                    // which may differ from the one that nominated j.
                    let d = if candidates.len() == 1 {
                        (uj - e).abs()
                    } else {
                        candidates
                            .iter()
                            .fold(f64::INFINITY, |d, &c| d.min((uj - c).abs()))
                    };
                    if d < w {
                        let p_correct = 0.5 + 0.5 * (d / w);
                        word ^= u64::from(coins.uniform() >= p_correct) << j;
                    }
                }
                j += 1;
            }
            if next_j > 0 && split == next_j {
                // Overlapping apertures: the walk began past a tap that
                // may already observe before e.
                while split > 0 && u(split - 1) < e {
                    split -= 1;
                }
            }
            // Taps before the split have seen e: one more edge flips
            // their level.
            word ^= low_mask(split);
            next_j = j;
        }
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_train::EdgeCursor;
    use crate::noise::{AttackInjection, FlickerParams, GlobalModulation, SupplyTone};
    use crate::primitives::CaptureFf;
    use crate::ring_oscillator::RingOscillator;

    fn ideal_lines(n: usize, m: usize, tstep: Ps) -> Vec<TappedDelayLine> {
        (0..n).map(|_| TappedDelayLine::ideal(m, tstep)).collect()
    }

    fn scalar_words(
        config: &RingOscillatorConfig,
        lines: &[TappedDelayLine],
        osc_seed: u64,
        coin_seed: u64,
        t_a: Ps,
        count: usize,
    ) -> Vec<Vec<u64>> {
        let mut ro =
            RingOscillator::new(config.clone(), SimRng::seed_from(osc_seed)).expect("valid");
        let mut coins = SimRng::seed_from(coin_seed);
        let mut cursors = vec![EdgeCursor::default(); lines.len()];
        let mut t = Ps::ZERO;
        (0..count)
            .map(|_| {
                t += t_a;
                ro.run_until(t);
                lines
                    .iter()
                    .enumerate()
                    .map(|(i, line)| line.sample_into(&ro.node(i), t, &mut cursors[i], &mut coins))
                    .collect()
            })
            .collect()
    }

    fn batched_words(
        config: &RingOscillatorConfig,
        lines: &[TappedDelayLine],
        osc_seed: u64,
        coin_seed: u64,
        t_a: Ps,
        count: usize,
    ) -> Vec<Vec<u64>> {
        let mut engine =
            BatchedRingEngine::new(config, lines, SimRng::seed_from(osc_seed)).expect("supported");
        let mut coins = SimRng::seed_from(coin_seed);
        let mut words = vec![0u64; lines.len()];
        let mut t = Ps::ZERO;
        (0..count)
            .map(|_| {
                t += t_a;
                engine.sample_words(t, &mut coins, &mut words);
                words.clone()
            })
            .collect()
    }

    fn engine(config: &RingOscillatorConfig, seed: u64) -> BatchedRingEngine {
        let lines = ideal_lines(config.stages, 36, Ps::from_ps(17.0));
        BatchedRingEngine::new(config, &lines, SimRng::seed_from(seed)).expect("supported")
    }

    /// Synthesises one event at a time, never jumping, opening flicker
    /// windows as the engine's own loop does.
    fn step_events(
        engine: &mut BatchedRingEngine,
        keep_from: f64,
        mut until: impl FnMut(&BatchedRingEngine) -> bool,
    ) {
        while !until(engine) {
            if engine.window_left == 0 {
                engine.next_flicker_window();
            }
            engine.step(keep_from);
        }
    }

    fn edge_counts(engine: &BatchedRingEngine) -> Vec<u64> {
        (0..engine.n).map(|s| engine.edge_count(s)).collect()
    }

    /// `Σbase` over the next `k` events, summed one event at a time.
    fn summed_base(engine: &BatchedRingEngine, k: usize) -> f64 {
        (0..k)
            .map(|i| engine.base[(engine.next_stage + i) % engine.n])
            .sum()
    }

    fn mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn noiseless_engine_matches_scalar_sampler_exactly() {
        // With zero noise there is no randomness in the edge times, so
        // the engine must reproduce the scalar words bit for bit.
        let config = RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::ZERO);
        let lines = ideal_lines(3, 36, Ps::from_ps(17.0));
        let t_a = Ps::from_ps(9973.0);
        let scalar = scalar_words(&config, &lines, 1, 2, t_a, 400);
        let batched = batched_words(&config, &lines, 1, 2, t_a, 400);
        assert_eq!(scalar, batched);
    }

    #[test]
    fn noiseless_engine_matches_scalar_with_metastability() {
        // Zero jitter but a real aperture: edge times stay
        // deterministic, so aperture hits and the coin sequence must
        // match the scalar path exactly (same coin seed).
        let config = RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::ZERO);
        let ff = CaptureFf::new(Ps::from_ps(8.0));
        let lines: Vec<TappedDelayLine> = (0..3)
            .map(|_| {
                TappedDelayLine::from_bins(vec![Ps::from_ps(17.0); 36], vec![Ps::ZERO; 36], ff)
            })
            .collect();
        let t_a = Ps::from_ps(9973.0);
        let scalar = scalar_words(&config, &lines, 5, 6, t_a, 400);
        let batched = batched_words(&config, &lines, 5, 6, t_a, 400);
        assert_eq!(scalar, batched);
    }

    /// The paper's placed TDC, laid out as `CarryChainTrng` builds it:
    /// three 36-tap lines of CARRY4 bins (17 ps nominal, with the
    /// structural DNL) under per-slice clock-region skew with the 9 ps
    /// capture aperture, and the ring on the oscillator row below them.
    /// Zero jitter.
    fn placed(stage_delay: Ps) -> (RingOscillatorConfig, Vec<TappedDelayLine>) {
        use crate::fabric::Fabric;
        use crate::placement::TrngPlacement;
        use crate::process::{DeviceSeed, ProcessVariation};

        let fabric = Fabric::spartan6();
        let (device, process) = (DeviceSeed::new(0), ProcessVariation::default());
        let placement = TrngPlacement::auto(&fabric, 3, 36, 4, 1).expect("placement");
        let site = placement.oscillator_site(0);
        let config = RingOscillatorConfig {
            process,
            device,
            base_site: (u64::from(site.x), u64::from(site.y)),
            history_window: Ps::from_ps(17.0 * 36.0 * 2.0 + 500.0),
            ..RingOscillatorConfig::ideal(3, stage_delay, Ps::ZERO)
        };
        let lines = (0..3)
            .map(|i| {
                let c4 = placement.carry4_site(i, 0);
                TappedDelayLine::placed(
                    Ps::from_ps(17.0),
                    device,
                    &process,
                    &fabric,
                    c4.x,
                    c4.y,
                    placement.carry4s_per_line,
                    CaptureFf::new(Ps::from_ps(9.0)),
                )
            })
            .collect();
        (config, lines)
    }

    #[test]
    fn placed_lines_match_scalar_sampler_exactly() {
        // Edge times are deterministic without jitter, so on the real
        // (unequal-bin, skewed) lines the engine must reproduce the
        // scalar words and coin sequence bit for bit. The paper ring
        // sees at most one edge per line; 200 ps stages put two edges
        // of one node in a line's window (the general nearest-edge
        // path).
        let t_a = Ps::from_ps(9973.0);
        let count = 2500;
        for stage in [480.0, 200.0] {
            let (config, lines) = placed(Ps::from_ps(stage));
            let scalar = scalar_words(&config, &lines, 3, 4, t_a, count);
            let batched = batched_words(&config, &lines, 3, 4, t_a, count);
            assert_eq!(scalar, batched, "{stage} ps stages");
            // Coins decide some of those words: another coin seed moves them.
            let reseeded = batched_words(&config, &lines, 3, 5, t_a, count);
            assert_ne!(batched, reseeded, "{stage} ps stages");
        }
    }

    #[test]
    fn sample_line_matches_the_scalar_sampler_on_dense_edges() {
        // No supported ring puts two edges of one node closer than the
        // aperture, so place them by hand: one to four edges around the
        // taps of a placed line, about half of them spaced under the
        // 9 ps aperture (overlapping apertures, taps settled by a later
        // edge, a split below the walk's start). The word and the
        // number of coins used must match the scalar sampler reading
        // the same edges.
        let (config, lines) = placed(Ps::from_ps(480.0));
        let mut e =
            BatchedRingEngine::new(&config, &lines, SimRng::seed_from(0)).expect("supported");
        let mut layout = SimRng::seed_from(8);
        let t = Ps::from_ps(50_000.0);
        let t_ps = t.as_ps();
        for trial in 0..4000u64 {
            let count = 1 + trial as usize % 4;
            let mut at = t_ps + e.window_lo + layout.uniform() * 300.0;
            let mut train = crate::edge_train::EdgeTrain::new(false, Ps::ZERO);
            for slot in &mut e.nodes[0].edges[..count] {
                let spacing = if layout.bernoulli(0.5) { 12.0 } else { 300.0 };
                at += 0.1 + layout.uniform() * spacing;
                *slot = at;
                train.push(Ps::from_ps(at));
            }
            // Every edge since t = 0 is live: node 0 has toggled `count`
            // times, from the initial low level of line 0.
            e.nodes[0].len = count;
            (e.cycles, e.next_stage) = (count as u64, 0);
            let (mut scalar_coins, mut coins) =
                (SimRng::seed_from(trial), SimRng::seed_from(trial));
            let scalar =
                lines[0].sample_into(&train, t, &mut EdgeCursor::default(), &mut scalar_coins);
            let batched = e.sample_line(0, t_ps, &mut coins);
            let edges = &e.nodes[0].edges[..count];
            assert_eq!(batched, scalar, "trial {trial}: edges {edges:?}");
            assert_eq!(
                coins.uniform(),
                scalar_coins.uniform(),
                "trial {trial}: coins used"
            );
        }
    }

    #[test]
    fn rejects_mismatched_line_count() {
        let config = RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::ZERO);
        let lines = ideal_lines(2, 8, Ps::from_ps(17.0));
        assert!(BatchedRingEngine::new(&config, &lines, SimRng::seed_from(0)).is_err());
    }

    #[test]
    fn rejects_wide_lines() {
        let config = RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::ZERO);
        let lines = ideal_lines(3, 65, Ps::from_ps(17.0));
        assert!(BatchedRingEngine::new(&config, &lines, SimRng::seed_from(0)).is_err());
    }

    #[test]
    fn rejects_windows_that_could_overflow_a_node_array() {
        // 20 ps stages clamp at 1 ps, so a ~630 ps window could see
        // ~200 edges of one node; 480 ps stages need only a dozen.
        let lines = ideal_lines(3, 36, Ps::from_ps(17.0));
        let fast = RingOscillatorConfig::ideal(3, Ps::from_ps(20.0), Ps::from_ps(0.1));
        let err = BatchedRingEngine::new(&fast, &lines, SimRng::seed_from(0)).unwrap_err();
        assert!(err.contains("edges per node"), "{err}");
        let paper = RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.6));
        assert!(BatchedRingEngine::new(&paper, &lines, SimRng::seed_from(0)).is_ok());
    }

    #[test]
    fn edge_intervals_match_scalar_statistics() {
        // White sigma 2.6 ps per stage: node-0 toggle intervals are
        // the half-period with variance 3 sigma^2.
        let config = RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.6));
        let mut engine = engine(&config, 7);
        let mut v = Vec::new();
        for _ in 0..4 * 4096 {
            let stage = engine.next_stage;
            step_events(&mut engine, f64::INFINITY, |e| e.next_stage != stage);
            if stage == 0 {
                v.push(engine.t);
            }
        }
        let n = v.len() - 1;
        assert!(n > 4000, "expected thousands of edges, got {n}");
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for k in 1..=n {
            let dt = v[k] - v[k - 1];
            sum += dt;
            sum2 += dt * dt;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 1440.0).abs() < 1.0, "mean interval {mean}");
        let expect = 3.0 * 2.6 * 2.6;
        assert!(
            (var - expect).abs() < 0.15 * expect,
            "interval variance {var}, expected ~{expect}"
        );
    }

    #[test]
    fn flicker_state_stays_stationary() {
        let config = RingOscillatorConfig {
            noise: NoiseConfig::white_only(Ps::from_ps(2.6)).with_flicker(FlickerParams::default()),
            ..RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.6))
        };
        let mut engine = engine(&config, 11);
        let mut sum2 = 0.0;
        let rounds = 400;
        for _ in 0..rounds {
            // 32 flicker windows per round (4096 events).
            for _ in 0..32 {
                engine.next_flicker_window();
            }
            for &s in &engine.flicker.as_ref().expect("flicker on").state {
                sum2 += s * s;
            }
        }
        // Stationary variance sigma^2 = 0.25 ps^2 (sigma = 0.5 ps).
        let var = sum2 / (rounds * 3) as f64;
        assert!(
            (var - 0.25).abs() < 0.05,
            "flicker stationary variance {var}"
        );
    }

    #[test]
    fn flicker_window_autocorrelation_is_exponential() {
        // The per-window OU update must keep the exact exponential
        // autocorrelation exp(-lag/tau_c) at window granularity.
        let config = RingOscillatorConfig {
            noise: NoiseConfig::white_only(Ps::ZERO).with_flicker(FlickerParams::default()),
            ..RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::ZERO)
        };
        let mut engine = engine(&config, 3);
        // Record stage-0 state once per 4096 events (32 windows), long
        // enough for several correlation times.
        let mut series = Vec::new();
        for _ in 0..6000 {
            for _ in 0..32 {
                engine.next_flicker_window();
            }
            series.push(engine.flicker.as_ref().expect("flicker on").state[0]);
        }
        let block_span: f64 = 4096.0 * 480.0; // ps per 32 windows
        let lag_blocks = (1e6 / block_span).round() as usize; // ~tau_c
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        let var = series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / series.len() as f64;
        let mut cov = 0.0;
        let pairs = series.len() - lag_blocks;
        for i in 0..pairs {
            cov += (series[i] - mean) * (series[i + lag_blocks] - mean);
        }
        cov /= pairs as f64;
        let rho = cov / var;
        let expect = (-(lag_blocks as f64 * block_span) / 1e6).exp();
        assert!(
            (rho - expect).abs() < 0.08,
            "autocorrelation at ~tau_c: {rho}, expected ~{expect}"
        );
    }

    #[test]
    fn word_bias_matches_scalar_path() {
        // Same physics, different draw sequences: the per-tap one-bit
        // frequency of batched words must agree with scalar within a
        // few sigma over 1500 samples of 36 taps.
        let config = RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.6));
        let lines = ideal_lines(3, 36, Ps::from_ps(17.0));
        let t_a = Ps::from_ps(9973.0);
        let count = 1500;
        let ones = |words: &[Vec<u64>]| -> f64 {
            words
                .iter()
                .map(|per_line| per_line.iter().map(|w| w.count_ones()).sum::<u32>())
                .sum::<u32>() as f64
                / (words.len() * 3 * 36) as f64
        };
        let s = ones(&scalar_words(&config, &lines, 21, 22, t_a, count));
        let b = ones(&batched_words(&config, &lines, 21, 22, t_a, count));
        assert!(
            (s - b).abs() < 0.02,
            "one-bit frequency scalar {s} vs batched {b}"
        );
    }

    #[test]
    fn z_max_bounds_the_block_ziggurat() {
        use crate::rng::{word_to_open01, ziggurat_tail};
        // The smallest open-interval uniform is 2^-53; the tail returns
        // R - ln(u)/R, so Z_MAX is its value there.
        let u_min = word_to_open01(0);
        assert_eq!(u_min, 2f64.powi(-53));
        let r = 3.654_152_885_361_009;
        assert!(
            (Z_MAX - (r - u_min.ln() / r)).abs() < 1e-12,
            "Z_MAX {Z_MAX}"
        );
        assert!((Z_MAX - 13.7076).abs() < 1e-3);
        // Every tail draw stays inside it, including the extreme words
        // (a second word of 0 accepts the widest x the first allows; a
        // rejected first pair retries with a moderate x).
        for first in [0u64, 1, 1 << 12, 1 << 40, u64::MAX / 3, u64::MAX] {
            for negative in [false, true] {
                let mut words = [first, 0, 1 << 40, 0].into_iter().cycle();
                let z = ziggurat_tail(&mut || words.next().expect("cycle"), negative);
                assert!(z.abs() <= Z_MAX && z.abs() >= r, "tail draw {z}");
            }
        }
        // And a long batched stream never exceeds it.
        let mut rng = SimRng::seed_from(77);
        rng.enable_batched_normals();
        let mut buf = vec![0.0; 1 << 16];
        for _ in 0..16 {
            rng.fill_standard_normals(&mut buf);
            assert!(buf.iter().all(|z| z.abs() <= Z_MAX));
        }
    }

    #[test]
    fn jump_time_has_the_summed_mean_and_variance() {
        // k events of base 480 ps and sigma 2.6 ps: one jump must
        // advance t by N(k*480, k*sigma^2).
        let config = RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.6));
        let mut engine = engine(&config, 13);
        let k = 17;
        let trials = 20_000;
        let mut dts = Vec::with_capacity(trials);
        for _ in 0..trials {
            engine.next_flicker_window();
            assert!(engine.jump_ok);
            let (t0, counts0): (f64, Vec<u64>) = (engine.t, edge_counts(&engine));
            let s0 = engine.next_stage;
            engine.jump(k);
            dts.push(engine.t - t0);
            // 17 = 5 traversals + 2: stages s0 and s0+1 toggle once more.
            for (i, count) in edge_counts(&engine).into_iter().enumerate() {
                let extra = u64::from((i + 3 - s0) % 3 < 2);
                assert_eq!(count - counts0[i], 5 + extra, "node {i}");
            }
            assert_eq!(engine.next_stage, (s0 + 2) % 3);
        }
        let (mean, var) = mean_var(&dts);
        let expect_var = k as f64 * 2.6 * 2.6;
        let se_mean = (expect_var / trials as f64).sqrt();
        let se_var = expect_var * (2.0 / trials as f64).sqrt();
        assert!(
            (mean - k as f64 * 480.0).abs() < 5.0 * se_mean,
            "mean {mean}"
        );
        assert!(
            (var - expect_var).abs() < 5.0 * se_var,
            "variance {var}, expected {expect_var}"
        );
    }

    #[test]
    fn jumped_and_per_event_windows_agree() {
        // Bring fresh engines to the sampling window of t = 20 ns,
        // once through the jump and once event by event: the window's
        // edges must be equally distributed.
        let config = RingOscillatorConfig {
            noise: NoiseConfig::white_only(Ps::from_ps(2.6)).with_flicker(FlickerParams::default()),
            ..RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.6))
        };
        let t_s = 20_000.0;
        let trials = 3000;
        let record = |e: &BatchedRingEngine| -> (f64, u64, f64) {
            // Offset of the earliest window edge, total edge count,
            // and the newest event's offset.
            let first = e
                .nodes
                .iter()
                .filter_map(|n| n.live().first())
                .fold(f64::INFINITY, |a, &b| a.min(b));
            (first - t_s, edge_counts(e).iter().sum(), e.t - t_s)
        };
        // Fresh engines from one template: new noise stream, new
        // stationary flicker state.
        let template = engine(&config, 0);
        let fresh = |seed: u64| {
            let mut e = template.clone();
            e.normals.rng = SimRng::seed_from(seed);
            e.normals.rng.enable_batched_normals();
            if let Some(f) = &mut e.flicker {
                for x in &mut f.state {
                    *x = e.normals.rng.gaussian(0.0, 0.5);
                }
            }
            e
        };
        let (lo, hi) = (t_s + template.window_lo, t_s + template.window_hi);
        let mut jumped = Vec::new();
        let mut stepped = Vec::new();
        for seed in 0..trials {
            let mut e = fresh(seed);
            let mut jumps = 0;
            while e.t <= hi {
                if e.window_left == 0 {
                    e.next_flicker_window();
                }
                let k = e.jump_len(lo - e.t);
                if k > 0 {
                    e.jump(k);
                    jumps += 1;
                } else {
                    e.step(lo);
                }
            }
            assert!(jumps > 0, "trial {seed} never jumped");
            jumped.push(record(&e));
            let mut e = fresh(seed + 1_000_000);
            step_events(&mut e, lo, |e| e.t > hi);
            stepped.push(record(&e));
        }
        for (name, pick) in [
            (
                "first edge",
                (|r: &(f64, u64, f64)| r.0) as fn(&(f64, u64, f64)) -> f64,
            ),
            ("edge count", |r| r.1 as f64),
            ("newest event", |r| r.2),
        ] {
            let a: Vec<f64> = jumped.iter().map(pick).collect();
            let b: Vec<f64> = stepped.iter().map(pick).collect();
            let ((ma, va), (mb, vb)) = (mean_var(&a), mean_var(&b));
            let se = ((va + vb) / trials as f64).sqrt().max(1e-9);
            assert!((ma - mb).abs() < 5.0 * se, "{name}: mean {ma} vs {mb}");
            assert!(
                (va - vb).abs() <= 0.2 * va.max(vb) + 1e-9,
                "{name}: variance {va} vs {vb}"
            );
        }
    }

    #[test]
    fn advance_leaves_no_event_inside_the_window() {
        // After each sample the next event, synthesised on a copy, must
        // land past the window: stepping may stop early only when that
        // is certain.
        let tone = GlobalModulation::supply_tone(SupplyTone::new(1e6, 0.002));
        let configs = [
            RingOscillatorConfig {
                noise: NoiseConfig::white_only(Ps::from_ps(2.6))
                    .with_flicker(FlickerParams::default()),
                ..RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.6))
            },
            RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(30.0)),
            RingOscillatorConfig {
                noise: NoiseConfig::white_only(Ps::from_ps(2.6)).with_global(tone),
                ..RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.6))
            },
        ];
        for (i, config) in configs.iter().enumerate() {
            let mut e = engine(config, 17);
            let mut words = vec![0u64; 3];
            let mut coins = SimRng::seed_from(3);
            for s in 1..=2000u64 {
                let t_s = s as f64 * 10_000.0;
                e.sample_words(Ps::from_ps(t_s), &mut coins, &mut words);
                let mut next = e.clone();
                step_events(&mut next, f64::INFINITY, |n| n.t != e.t);
                assert!(next.t > t_s + e.window_hi, "config {i} sample {s}");
            }
        }
    }

    #[test]
    fn no_jump_when_the_clamp_is_reachable_or_delays_vary_in_time() {
        let tone = GlobalModulation::supply_tone(SupplyTone::new(1e6, 0.002));
        let attack = AttackInjection::periodic(Ps::from_ps(3.0), 5e6);
        let configs = [
            // (480 - 24) / 13.71 = 33.3 ps: 40 ps can reach the clamp.
            RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(40.0)),
            RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::ZERO),
            RingOscillatorConfig {
                noise: NoiseConfig::white_only(Ps::from_ps(2.6)).with_global(tone),
                ..RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.6))
            },
            RingOscillatorConfig {
                noise: NoiseConfig::white_only(Ps::from_ps(2.6)).with_attack(attack),
                ..RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.6))
            },
        ];
        for (i, config) in configs.iter().enumerate() {
            let mut e = engine(config, 5);
            e.next_flicker_window();
            assert!(!e.jump_ok, "config {i}");
            assert_eq!(e.jump_len(1e6), 0, "config {i}");
            // No flicker window of a driven engine allows a jump.
            let mut words = vec![0u64; 3];
            let mut coins = SimRng::seed_from(1);
            for s in 1..=50 {
                e.sample_words(Ps::from_ps(s as f64 * 10_000.0), &mut coins, &mut words);
                assert!(!e.jump_ok, "config {i} sample {s}");
            }
        }
        // Just under the reach, the paper ring jumps.
        let config = RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(33.0));
        let mut e = engine(&config, 5);
        e.next_flicker_window();
        assert!(e.jump_ok && e.jump_len(1e4) > 0);
    }

    #[test]
    fn jump_len_is_the_largest_admissible_k() {
        // Process-spread stages under flicker: Σbase(k) is not k·b_max,
        // and the engine must take exactly the largest k whose bound
        // Σbase(k) + Z_MAX·σ·√k stays short of the gap — found here by
        // scanning every k — capped at the rest of the flicker window.
        let config = RingOscillatorConfig {
            noise: NoiseConfig::white_only(Ps::from_ps(2.6)).with_flicker(FlickerParams::default()),
            ..RingOscillatorConfig::paper_default()
        };
        let mut e = engine(&config, 19);
        let mut jumps = 0;
        for _ in 0..8 {
            e.next_flicker_window();
            assert!(e.jump_ok);
            for stage in 0..3 {
                e.next_stage = stage;
                let bound: Vec<f64> = (0..=FLICKER_WINDOW)
                    .map(|k| summed_base(&e, k) + Z_MAX * 2.6 * (k as f64).sqrt())
                    .collect();
                for left in [1, 2, 3, 17, 64, FLICKER_WINDOW] {
                    e.window_left = left;
                    let gaps = (0..260).map(|i| -50.0 + i as f64 * 61.7);
                    for gap in gaps.chain([1e5, 1e9]) {
                        let largest = (2..=FLICKER_WINDOW).take_while(|&k| bound[k] < gap).last();
                        let expect = largest.map_or(0, |k| k.min(left));
                        assert_eq!(
                            e.jump_len(gap),
                            expect,
                            "gap {gap}, stage {stage}, left {left}"
                        );
                        jumps += usize::from(expect > 0);
                    }
                }
            }
        }
        assert!(jumps > 10_000, "only {jumps} admissible gaps");
    }

    #[test]
    fn jumps_never_cross_a_flicker_window() {
        let config = RingOscillatorConfig {
            noise: NoiseConfig::white_only(Ps::from_ps(2.6)).with_flicker(FlickerParams::default()),
            ..RingOscillatorConfig::ideal(3, Ps::from_ps(480.0), Ps::from_ps(2.6))
        };
        let mut e = engine(&config, 9);
        e.next_flicker_window();
        for left in [1, 2, 5, 17, FLICKER_WINDOW] {
            e.window_left = left;
            assert_eq!(e.jump_len(1e9), left, "window_left {left}");
        }
        // The jump bound holds with a short gap too.
        e.window_left = FLICKER_WINDOW;
        let gap = 5_000.0;
        let k = e.jump_len(gap);
        let reach = summed_base(&e, k) + Z_MAX * 2.6 * (k as f64).sqrt();
        assert!(k > 0 && reach < gap, "k {k} reaches {reach}");
        // Over a long run every window opens exactly on its 128-event
        // boundary: events so far plus events left in the open window
        // is always a whole number of windows.
        let mut words = vec![0u64; 3];
        let mut coins = SimRng::seed_from(2);
        for s in 1..=3000u64 {
            e.sample_words(Ps::from_ps(s as f64 * 10_000.0), &mut coins, &mut words);
            let events: u64 = edge_counts(&e).iter().sum();
            assert!(e.window_left <= FLICKER_WINDOW);
            assert_eq!(
                (events + e.window_left as u64) % FLICKER_WINDOW as u64,
                0,
                "sample {s}"
            );
        }
    }
}
