//! Fast tapped delay line — the time-to-digital converter.
//!
//! Figure 3 of the paper: a chain of fast buffers (carry-chain stages)
//! with a flip-flop on every tap. On the sampling clock edge, tap `j`
//! has seen the input signal as it was `D_j` earlier, where `D_j` is
//! the accumulated chain delay to that tap, so the captured word is a
//! time-reversed snapshot of the input waveform with ~`tstep`
//! resolution.
//!
//! Non-idealities modelled (all frozen per device):
//!
//! * bin widths vary — CARRY4 structural DNL + process variation
//!   ([`Carry4`]);
//! * capture flip-flops in different slices see slightly different
//!   clock arrival times; crossing a 16-row clock-region boundary adds
//!   a step of several ps ([`Fabric::clock_skew`]) — the dominant
//!   non-linearity per Menninga et al. \[6\];
//! * flip-flops go metastable near edges, producing bubbles
//!   ([`CaptureFf`]).

use crate::edge_train::{EdgeCursor, EdgeTrain, SignalSource};
use crate::fabric::{Fabric, SliceCoord};
use crate::primitives::{CaptureFf, Carry4, CARRY4_BINS};
use crate::process::{DeviceSeed, ProcessVariation};
use crate::rng::SimRng;
use crate::time::Ps;

/// A placed tapped delay line with `m` capture taps.
///
/// # Examples
///
/// ```
/// use trng_fpga_sim::delay_line::TappedDelayLine;
/// use trng_fpga_sim::edge_train::EdgeTrain;
/// use trng_fpga_sim::rng::SimRng;
/// use trng_fpga_sim::time::Ps;
///
/// let line = TappedDelayLine::ideal(36, Ps::from_ps(17.0));
/// let mut signal = EdgeTrain::new(false, Ps::ZERO);
/// signal.push(Ps::from_ps(700.0)); // rising edge
/// let mut rng = SimRng::seed_from(0);
/// // Sample at t=1000: taps looking back more than 300 ps see 'false'.
/// let word = line.sample(&signal, Ps::from_ps(1000.0), &mut rng);
/// assert_eq!(word.len(), 36);
/// assert!(word[0]);          // looks back 17 ps -> after the edge
/// assert!(!word[35]);        // looks back 612 ps -> before the edge
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TappedDelayLine {
    bin_widths: Vec<Ps>,
    /// `cum_delay[j] = w_0 + ... + w_j`: look-back of tap `j`.
    cum_delay: Vec<Ps>,
    /// Per-tap capture-clock arrival offset.
    capture_skew: Vec<Ps>,
    /// Mean bin width, cached at construction (`total_delay / m`).
    mean_width: Ps,
    ff: CaptureFf,
}

impl TappedDelayLine {
    /// An ideal line: `m` equal bins of `tstep`, zero skew, ideal FFs.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `tstep` is not strictly positive.
    pub fn ideal(m: usize, tstep: Ps) -> Self {
        assert!(m > 0, "delay line needs at least one tap");
        assert!(tstep.as_ps() > 0.0, "tstep must be positive, got {tstep}");
        Self::from_bins(vec![tstep; m], vec![Ps::ZERO; m], CaptureFf::ideal())
    }

    /// Builds a line from explicit bin widths, skews and FF model.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty, have mismatched lengths, or any
    /// width is non-positive.
    pub fn from_bins(bin_widths: Vec<Ps>, capture_skew: Vec<Ps>, ff: CaptureFf) -> Self {
        assert!(!bin_widths.is_empty(), "delay line needs at least one tap");
        assert_eq!(
            bin_widths.len(),
            capture_skew.len(),
            "bin widths and skews must have equal length"
        );
        let mut cum = Vec::with_capacity(bin_widths.len());
        let mut acc = Ps::ZERO;
        for &w in &bin_widths {
            assert!(w.as_ps() > 0.0, "bin width must be positive, got {w}");
            acc += w;
            cum.push(acc);
        }
        let mean_width = acc / bin_widths.len() as f64;
        TappedDelayLine {
            bin_widths,
            cum_delay: cum,
            capture_skew,
            mean_width,
            ff,
        }
    }

    /// Builds a chain of `num_carry4` CARRY4 primitives in `column`
    /// starting at `first_row`, with per-slice clock skew from the
    /// fabric model and the given flip-flop model.
    ///
    /// # Panics
    ///
    /// Panics if `num_carry4 == 0` or `tstep` is not positive.
    #[allow(clippy::too_many_arguments)] // mirrors the physical parameter list
    pub fn placed(
        tstep: Ps,
        device: DeviceSeed,
        variation: &ProcessVariation,
        fabric: &Fabric,
        column: u32,
        first_row: u32,
        num_carry4: u32,
        ff: CaptureFf,
    ) -> Self {
        assert!(num_carry4 > 0, "delay line needs at least one CARRY4");
        let m = num_carry4 as usize * CARRY4_BINS;
        let mut widths = Vec::with_capacity(m);
        let mut skews = Vec::with_capacity(m);
        for c in 0..num_carry4 {
            let row = first_row + c;
            let c4 = Carry4::placed(tstep, device, variation, u64::from(column), u64::from(row));
            let slice_skew = fabric.clock_skew(device, variation, SliceCoord::new(column, row));
            for w in c4.bin_widths() {
                widths.push(w);
                skews.push(slice_skew);
            }
        }
        Self::from_bins(widths, skews, ff)
    }

    /// Number of taps `m`.
    pub fn len(&self) -> usize {
        self.bin_widths.len()
    }

    /// `true` if the line has no taps (never: constructors forbid it).
    pub fn is_empty(&self) -> bool {
        self.bin_widths.is_empty()
    }

    /// All bin widths.
    pub fn bin_widths(&self) -> &[Ps] {
        &self.bin_widths
    }

    /// Mean bin width (the effective `tstep`), cached at construction.
    pub fn mean_bin_width(&self) -> Ps {
        self.mean_width
    }

    /// Total propagation delay of the chain (`D_m`): the observation
    /// window. The paper requires `m · tstep > d0` so an edge is always
    /// captured.
    pub fn total_delay(&self) -> Ps {
        self.cum_delay[self.len() - 1]
    }

    /// Differential non-linearity of bin `j` in LSB units:
    /// `w_j / mean(w) − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn dnl(&self, j: usize) -> f64 {
        self.bin_widths[j] / self.mean_bin_width() - 1.0
    }

    /// Cumulative tap delays `D_j` (crate-internal, for the batched
    /// engine's offset precomputation).
    pub(crate) fn cum_delays(&self) -> &[Ps] {
        &self.cum_delay
    }

    /// Per-tap capture-clock skews (crate-internal, for the batched
    /// engine).
    pub(crate) fn capture_skews(&self) -> &[Ps] {
        &self.capture_skew
    }

    /// The capture flip-flop model (crate-internal, for the batched
    /// engine's metastability port).
    pub(crate) fn capture_ff(&self) -> &CaptureFf {
        &self.ff
    }

    /// The effective observation instant of tap `j` for a sample taken
    /// at `t_sample`: `t_sample + skew_j − D_j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn tap_instant(&self, t_sample: Ps, j: usize) -> Ps {
        t_sample + self.capture_skew[j] - self.cum_delay[j]
    }

    /// Captures the signal into all `m` flip-flops at clock edge
    /// `t_sample`, returning the raw word (tap 0 first — the tap
    /// closest in time to the clock edge).
    ///
    /// The signal must have history covering
    /// `[t_sample − total_delay − max skew, t_sample]`.
    pub fn sample<S: SignalSource + ?Sized>(
        &self,
        signal: &S,
        t_sample: Ps,
        rng: &mut SimRng,
    ) -> Vec<bool> {
        (0..self.len())
            .map(|j| self.ff.capture(signal, self.tap_instant(t_sample, j), rng))
            .collect()
    }

    /// Allocation-free capture of all `m ≤ 64` taps at clock edge
    /// `t_sample`, packed into a `u64` with tap 0 in the LSB.
    ///
    /// Bit- and RNG-draw-identical to [`TappedDelayLine::sample`]: the
    /// taps produce the same levels and the metastability coin is
    /// flipped for the same taps, in the same (ascending `j`) order,
    /// from the same RNG position; only the storage (packed word vs
    /// `Vec<bool>`) and the lookup strategy differ.
    ///
    /// When the signal exposes its [`EdgeTrain`]
    /// and the tap instants are monotone, the word is built by
    /// run-length over the few edges inside the observation window —
    /// O(edges · log m) instead of O(m) point queries — with exact
    /// per-tap handling only inside the metastability apertures.
    /// Otherwise each tap is captured through the resumable
    /// [`EdgeCursor`], an amortized O(1) walk since successive tap
    /// instants step backwards by about one bin width.
    ///
    /// # Panics
    ///
    /// Panics if the line has more than 64 taps.
    pub fn sample_into<S: SignalSource + ?Sized>(
        &self,
        signal: &S,
        t_sample: Ps,
        cursor: &mut EdgeCursor,
        rng: &mut SimRng,
    ) -> u64 {
        assert!(
            self.len() <= 64,
            "packed sampling supports at most 64 taps, line has {}",
            self.len()
        );
        if let Some(train) = signal.as_edge_train() {
            if let Some(word) = self.sample_runs(train, t_sample, rng) {
                return word;
            }
        }
        self.sample_walk(signal, t_sample, cursor, rng)
    }

    /// Per-tap fallback: capture every tap through the cursor.
    fn sample_walk<S: SignalSource + ?Sized>(
        &self,
        signal: &S,
        t_sample: Ps,
        cursor: &mut EdgeCursor,
        rng: &mut SimRng,
    ) -> u64 {
        let mut word = 0u64;
        for j in 0..self.len() {
            let bit = self
                .ff
                .capture_with(signal, self.tap_instant(t_sample, j), cursor, rng);
            word |= u64::from(bit) << j;
        }
        word
    }

    /// Run-length sampler over the edge list. Returns `None` when the
    /// tap instants are not monotone non-increasing (a clock-skew step
    /// larger than a bin width), in which case the caller must use the
    /// per-tap path.
    fn sample_runs(&self, train: &EdgeTrain, t_sample: Ps, rng: &mut SimRng) -> Option<u64> {
        let m = self.len();
        // Tap observation instants, with exactly the arithmetic of
        // `tap_instant` so every float matches the per-tap path bit
        // for bit.
        let mut u = [Ps::ZERO; 64];
        let mut prev = Ps::from_ps(f64::INFINITY);
        for ((slot, &skew), &cum) in u.iter_mut().zip(&self.capture_skew).zip(&self.cum_delay) {
            let inst = t_sample + skew - cum;
            if inst > prev {
                return None;
            }
            *slot = inst;
            prev = inst;
        }
        let u = &u[..m];
        // The per-tap path asserts per query; the earliest instant is
        // the strictest, so one check covers all of them.
        assert!(
            u[m - 1] >= train.valid_from(),
            "query at {} precedes history start {}",
            u[m - 1],
            train.valid_from()
        );

        // Levels: tap j sees initial_level XOR parity(#edges <= u_j).
        // Taps sharing an edge count form a contiguous run (u is
        // non-increasing), so walk the in-window edges from latest to
        // earliest and emit one bit-range per run.
        let p_min = train.edges_at_or_before(u[m - 1]);
        let p_max = train.edges_at_or_before(u[0]);
        let init = train.initial();
        let mut word = 0u64;
        let mut j_start = 0usize;
        for c in (p_min + 1..=p_max).rev() {
            // Taps with count c: u_j >= edge(c - 1), i.e. up to the
            // first j whose instant falls before that edge.
            let split = Self::first_below(u, j_start, train.edge(c - 1));
            if init ^ (c % 2 == 1) {
                word |= range_mask(j_start, split);
            }
            j_start = split;
        }
        if init ^ (p_min % 2 == 1) {
            word |= range_mask(j_start, m);
        }

        // Metastability: only taps within the aperture of some edge
        // can flip, and those apertures cover a contiguous tap range
        // per edge. Walk candidate edges from latest to earliest so
        // the coin flips happen in ascending-j order, exactly as the
        // per-tap path draws them.
        let w = self.ff.meta_window();
        if w > Ps::ZERO {
            let e_lo = train.edges_at_or_before(u[m - 1] - w);
            let e_hi = train.edges_at_or_before(u[0] + w);
            let mut next_j = 0usize;
            for i in (e_lo..e_hi).rev() {
                let e = train.edge(i);
                let jlo = Self::first_below(u, next_j, e + w);
                let jhi = Self::first_at_or_below(u, jlo, e - w);
                for (j, &uj) in u.iter().enumerate().take(jhi).skip(jlo) {
                    // Exact aperture test against the *nearest* edge,
                    // which may differ from the one that nominated j.
                    if let Some(d) = train.nearest_edge_distance(uj) {
                        if d < w {
                            let p_correct = 0.5 + 0.5 * (d / w);
                            if !rng.bernoulli(p_correct) {
                                word ^= 1u64 << j;
                            }
                        }
                    }
                }
                next_j = jhi.max(next_j);
            }
        }
        Some(word)
    }

    /// First index `j >= lo` with `u[j] < t` (`u` non-increasing).
    fn first_below(u: &[Ps], lo: usize, t: Ps) -> usize {
        let (mut lo, mut hi) = (lo, u.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if u[mid] >= t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// First index `j >= lo` with `u[j] <= t` (`u` non-increasing).
    fn first_at_or_below(u: &[Ps], lo: usize, t: Ps) -> usize {
        let (mut lo, mut hi) = (lo, u.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if u[mid] > t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Mask with bits `lo..hi` set (`lo <= hi <= 64`).
pub(crate) fn range_mask(lo: usize, hi: usize) -> u64 {
    if hi == lo {
        return 0;
    }
    let hi_mask = if hi >= 64 { u64::MAX } else { (1u64 << hi) - 1 };
    hi_mask ^ ((1u64 << lo) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    fn rising_edge_at(t: f64) -> EdgeTrain {
        let mut s = EdgeTrain::new(false, Ps::ZERO);
        s.push(Ps::from_ps(t));
        s
    }

    #[test]
    fn ideal_line_produces_thermometer_code() {
        let line = TappedDelayLine::ideal(36, Ps::from_ps(17.0));
        let signal = rising_edge_at(700.0);
        let mut rng = SimRng::seed_from(0);
        let word = line.sample(&signal, Ps::from_ps(1000.0), &mut rng);
        // Tap j sees the signal at 1000 - 17*(j+1); edge at 700 ->
        // taps 0..=16 (look-back <= 289 < 300) see true, rest false.
        let ones: usize = word.iter().filter(|&&b| b).count();
        assert_eq!(ones, 17);
        assert!(word[..17].iter().all(|&b| b));
        assert!(word[17..].iter().all(|&b| !b));
    }

    #[test]
    fn edge_position_moves_with_signal() {
        let line = TappedDelayLine::ideal(36, Ps::from_ps(17.0));
        let mut rng = SimRng::seed_from(0);
        let w1 = line.sample(&rising_edge_at(700.0), Ps::from_ps(1000.0), &mut rng);
        let w2 = line.sample(&rising_edge_at(750.0), Ps::from_ps(1000.0), &mut rng);
        let p1 = w1.iter().position(|&b| !b).unwrap();
        let p2 = w2.iter().position(|&b| !b).unwrap();
        // Later edge -> smaller look-back reach -> fewer leading ones:
        // edge at 750: tap j sees true iff 1000 - 17(j+1) >= 750, i.e.
        // j <= 13, so the first false tap is index 14.
        assert_eq!(p1, 17);
        assert_eq!(p2, 14);
    }

    #[test]
    fn total_delay_and_mean_width() {
        let line = TappedDelayLine::ideal(36, Ps::from_ps(17.0));
        assert!((line.total_delay().as_ps() - 612.0).abs() < 1e-9);
        assert!((line.mean_bin_width().as_ps() - 17.0).abs() < 1e-12);
        assert_eq!(line.len(), 36);
        assert!(!line.is_empty());
        assert_eq!(line.dnl(0), 0.0);
    }

    #[test]
    fn placed_line_reflects_carry4_structure() {
        let fabric = Fabric::spartan6();
        let line = TappedDelayLine::placed(
            Ps::from_ps(17.0),
            DeviceSeed::new(1),
            &ProcessVariation::NONE,
            &fabric,
            4,
            1,
            9,
            CaptureFf::ideal(),
        );
        assert_eq!(line.len(), 36);
        // Structural pattern repeats every 4 bins; DNL of bin 0 = +0.35.
        assert!((line.dnl(0) - 0.35).abs() < 1e-9);
        assert!((line.dnl(1) + 0.20).abs() < 1e-9);
        assert!((line.dnl(4) - 0.35).abs() < 1e-9);
        // Zero-mean pattern preserves the total delay.
        assert!((line.total_delay().as_ps() - 612.0).abs() < 1e-9);
    }

    #[test]
    fn clock_region_crossing_adds_skew_step() {
        let fabric = Fabric::spartan6();
        // Chain from row 12 to 20 crosses the boundary at row 16.
        let line = TappedDelayLine::placed(
            Ps::from_ps(17.0),
            DeviceSeed::new(2),
            &ProcessVariation::NONE,
            &fabric,
            4,
            12,
            9,
            CaptureFf::ideal(),
        );
        // Taps 0..16 (rows 12..15) share one skew; taps 16.. have another.
        let skew_a = line.capture_skew[0];
        let skew_b = line.capture_skew[16];
        assert_eq!(line.capture_skew[15], skew_a);
        assert_ne!(skew_a, skew_b);
    }

    #[test]
    fn metastable_ff_produces_bubbles_near_edge() {
        let widths = vec![Ps::from_ps(17.0); 36];
        let skews = vec![Ps::ZERO; 36];
        let line = TappedDelayLine::from_bins(widths, skews, CaptureFf::new(Ps::from_ps(8.0)));
        let mut rng = SimRng::seed_from(3);
        // Put the edge exactly on tap 17's observation instant.
        // Tap 17 looks back 18*17 = 306 ps; sample at 1000 -> edge at 694.
        let signal = rising_edge_at(694.0);
        let mut flips = 0;
        for _ in 0..200 {
            let w = line.sample(&signal, Ps::from_ps(1000.0), &mut rng);
            if w[17] {
                flips += 1;
            }
        }
        // Metastable tap resolves randomly: neither always 0 nor always 1.
        assert!(flips > 40 && flips < 160, "flips {flips}");
    }

    #[test]
    fn falling_edges_are_captured_too() {
        let line = TappedDelayLine::ideal(36, Ps::from_ps(17.0));
        let mut s = EdgeTrain::new(true, Ps::ZERO);
        s.push(Ps::from_ps(700.0)); // falling edge
        let mut rng = SimRng::seed_from(0);
        let word = line.sample(&s, Ps::from_ps(1000.0), &mut rng);
        assert!(word[..17].iter().all(|&b| !b));
        assert!(word[17..].iter().all(|&b| b));
    }

    #[test]
    fn packed_sample_matches_unpacked_bit_and_draw_exact() {
        use crate::edge_train::EdgeCursor;
        // Ragged bins, clock skew and a metastable FF: the worst case
        // for a lookup-strategy change. The packed path must produce
        // the same bits AND leave the RNG at the same stream position.
        let widths: Vec<Ps> = (0..36)
            .map(|j| Ps::from_ps(17.0 + 4.0 * ((j % 4) as f64 - 1.5)))
            .collect();
        let skews: Vec<Ps> = (0..36)
            .map(|j| Ps::from_ps(if j < 16 { 0.0 } else { 3.0 }))
            .collect();
        let line = TappedDelayLine::from_bins(widths, skews, CaptureFf::new(Ps::from_ps(9.0)));
        for seed in 0..20u64 {
            // A signal with many edges sweeping across the window so
            // several taps land inside the metastability aperture.
            let mut signal = EdgeTrain::new(false, Ps::ZERO);
            let mut t = 300.0 + seed as f64 * 7.3;
            while t < 1000.0 {
                signal.push(Ps::from_ps(t));
                t += 90.0 + (seed % 5) as f64 * 13.0;
            }
            let mut rng_a = SimRng::seed_from(seed);
            let mut rng_b = SimRng::seed_from(seed);
            let mut cursor = EdgeCursor::new();
            for s in 0..4 {
                let t_sample = Ps::from_ps(1000.0 + s as f64 * 0.5);
                let unpacked = line.sample(&signal, t_sample, &mut rng_a);
                let packed = line.sample_into(&signal, t_sample, &mut cursor, &mut rng_b);
                for (j, &bit) in unpacked.iter().enumerate() {
                    assert_eq!(packed >> j & 1 == 1, bit, "seed {seed} sample {s} tap {j}");
                }
            }
            // Same number of Bernoulli draws consumed ⇒ streams align.
            for _ in 0..8 {
                assert_eq!(rng_a.bernoulli(0.5), rng_b.bernoulli(0.5), "seed {seed}");
            }
        }
    }

    #[test]
    fn run_length_matches_walk_across_random_lines() {
        // The run-length sampler and the per-tap cursor walk must be
        // bit- and draw-identical over ragged bins, skew steps, dense
        // and sparse edge trains, and edges landing exactly on tap
        // instants and aperture boundaries.
        for seed in 0..40u64 {
            let m = 1 + (seed as usize * 7) % 64;
            let widths: Vec<Ps> = (0..m)
                .map(|j| Ps::from_ps(11.0 + ((seed as usize + j * 5) % 13) as f64))
                .collect();
            let skews: Vec<Ps> = (0..m)
                .map(|j| Ps::from_ps(if j % 16 < 8 { 0.0 } else { 3.0 }))
                .collect();
            let w_meta = Ps::from_ps((seed % 3) as f64 * 4.5); // 0, 4.5, 9
            let line = TappedDelayLine::from_bins(widths, skews, CaptureFf::new(w_meta));
            let mut signal = EdgeTrain::new(seed % 2 == 0, Ps::ZERO);
            let mut t = 100.0 + (seed % 7) as f64 * 11.0;
            while t < 2600.0 {
                signal.push(Ps::from_ps(t));
                t += 40.0 + (seed % 11) as f64 * 60.0;
            }
            let mut rng_a = SimRng::seed_from(seed);
            let mut rng_b = SimRng::seed_from(seed);
            for s in 0..6 {
                let t_sample = Ps::from_ps(2500.0 + s as f64 * 0.7);
                let runs = line
                    .sample_runs(&signal, t_sample, &mut rng_a)
                    .expect("monotone instants");
                let walk = line.sample_walk(&signal, t_sample, &mut EdgeCursor::new(), &mut rng_b);
                assert_eq!(runs, walk, "seed {seed} sample {s}");
            }
            for _ in 0..8 {
                assert_eq!(rng_a.bernoulli(0.5), rng_b.bernoulli(0.5), "seed {seed}");
            }
        }
    }

    #[test]
    fn non_monotone_instants_fall_back_to_walk() {
        // A skew step larger than a bin width makes tap instants
        // non-monotone; `sample_into` must detect it and still match
        // the scalar per-tap reference exactly.
        let widths = vec![Ps::from_ps(17.0); 8];
        let skews: Vec<Ps> = (0..8)
            .map(|j| Ps::from_ps(if j >= 4 { 40.0 } else { 0.0 }))
            .collect();
        let line = TappedDelayLine::from_bins(widths, skews, CaptureFf::new(Ps::from_ps(9.0)));
        let mut signal = EdgeTrain::new(false, Ps::ZERO);
        for i in 0..12 {
            signal.push(Ps::from_ps(120.0 + i as f64 * 73.0));
        }
        let t_sample = Ps::from_ps(1000.0);
        assert!(line
            .sample_runs(&signal, t_sample, &mut SimRng::seed_from(0))
            .is_none());
        let mut rng_a = SimRng::seed_from(9);
        let mut rng_b = SimRng::seed_from(9);
        let reference = line.sample(&signal, t_sample, &mut rng_a);
        let packed = line.sample_into(&signal, t_sample, &mut EdgeCursor::new(), &mut rng_b);
        for (j, &bit) in reference.iter().enumerate() {
            assert_eq!(packed >> j & 1 == 1, bit, "tap {j}");
        }
    }

    #[test]
    fn run_length_handles_edgeless_and_boundary_windows() {
        let line = TappedDelayLine::ideal(36, Ps::from_ps(17.0));
        let mut rng = SimRng::seed_from(0);
        // No edges at all: the word is the initial level everywhere.
        let quiet = EdgeTrain::new(true, Ps::ZERO);
        let word = line.sample_into(
            &quiet,
            Ps::from_ps(1000.0),
            &mut EdgeCursor::new(),
            &mut rng,
        );
        assert_eq!(word, (1u64 << 36) - 1);
        // An edge exactly on a tap instant: left-closed transitions,
        // same as `level_at`.
        let signal = rising_edge_at(1000.0 - 17.0 * 18.0); // tap 17's instant
        let word = line.sample_into(
            &signal,
            Ps::from_ps(1000.0),
            &mut EdgeCursor::new(),
            &mut rng,
        );
        let reference = line.sample(&signal, Ps::from_ps(1000.0), &mut rng);
        for (j, &bit) in reference.iter().enumerate() {
            assert_eq!(word >> j & 1 == 1, bit, "tap {j}");
        }
    }

    #[test]
    #[should_panic(expected = "precedes history start")]
    fn run_length_rejects_queries_before_history() {
        let line = TappedDelayLine::ideal(36, Ps::from_ps(17.0));
        let signal = EdgeTrain::new(false, Ps::from_ps(900.0));
        // Sample at 1000: tap 35 looks back to 388 < 900.
        let _ = line.sample_into(
            &signal,
            Ps::from_ps(1000.0),
            &mut EdgeCursor::new(),
            &mut SimRng::seed_from(0),
        );
    }

    #[test]
    #[should_panic(expected = "at most 64 taps")]
    fn packed_sample_rejects_wide_lines() {
        use crate::edge_train::EdgeCursor;
        let line = TappedDelayLine::ideal(68, Ps::from_ps(17.0));
        let signal = rising_edge_at(700.0);
        let mut rng = SimRng::seed_from(0);
        let _ = line.sample_into(
            &signal,
            Ps::from_ps(2000.0),
            &mut EdgeCursor::new(),
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn rejects_non_positive_bin() {
        let _ = TappedDelayLine::from_bins(
            vec![Ps::from_ps(17.0), Ps::ZERO],
            vec![Ps::ZERO; 2],
            CaptureFf::ideal(),
        );
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_mismatched_lengths() {
        let _ = TappedDelayLine::from_bins(
            vec![Ps::from_ps(17.0); 3],
            vec![Ps::ZERO; 2],
            CaptureFf::ideal(),
        );
    }
}
