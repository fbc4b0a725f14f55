//! Physics-level timing simulator of FPGA ring oscillators and
//! carry-chain time-to-digital converters.
//!
//! This crate is the hardware substrate for the reproduction of
//! *"Highly Efficient Entropy Extraction for True Random Number
//! Generators on FPGAs"* (Rozic, Yang, Dehaene, Verbauwhede —
//! DAC 2015). The paper's entropy source is analog timing jitter in a
//! Xilinx Spartan-6; this crate replaces the silicon with an
//! event-driven simulation whose stochastic behaviour follows the
//! paper's own platform model:
//!
//! * [`ring_oscillator`] — free-running LUT ring with per-transition
//!   white (thermal) jitter, optional flicker noise, global supply /
//!   temperature modulation and attacker injection ([`noise`]);
//! * [`delay_line`] — CARRY4-based tapped delay lines with structural
//!   and process DNL, clock-region skew and flip-flop metastability
//!   ([`primitives`]);
//! * [`fabric`] / [`placement`] — Spartan-6-like geometry, clock
//!   regions, placement constraints and slice accounting;
//! * [`process`] — frozen per-device process variation.
//!
//! # Quick example
//!
//! Sample a noisy ring oscillator with a 17 ps TDC, as the paper's
//! digitization block does:
//!
//! ```
//! use trng_fpga_sim::delay_line::TappedDelayLine;
//! use trng_fpga_sim::ring_oscillator::{RingOscillator, RingOscillatorConfig};
//! use trng_fpga_sim::rng::SimRng;
//! use trng_fpga_sim::time::Ps;
//!
//! let mut rng = SimRng::seed_from(2015);
//! let mut ro = RingOscillator::new(RingOscillatorConfig::paper_default(), rng.fork())
//!     .expect("valid configuration");
//! let line = TappedDelayLine::ideal(36, Ps::from_ps(17.0));
//!
//! let t_sample = Ps::from_ns(10.0); // tA = 10 ns of jitter accumulation
//! ro.run_until(t_sample);
//! let word = line.sample(&ro.node(0), t_sample, &mut rng);
//! assert_eq!(word.len(), 36);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod delay_line;
pub mod edge_train;
pub mod fabric;
pub mod noise;
pub mod placement;
pub mod primitives;
pub mod process;
pub mod ring_oscillator;
pub mod rng;
pub mod scenario;
pub mod time;

pub use batch::BatchedRingEngine;
pub use delay_line::TappedDelayLine;
pub use edge_train::{EdgeTrain, SignalSource};
pub use fabric::{Fabric, ResourceUsage, SliceCoord};
pub use noise::{NoiseBackend, NoiseConfig};
pub use placement::{PlacementError, TrngPlacement};
pub use process::{DeviceSeed, ProcessVariation};
pub use ring_oscillator::{RingOscillator, RingOscillatorConfig};
pub use rng::SimRng;
pub use scenario::{NoiseEnvironment, Scenario, ScenarioPhase};
pub use time::Ps;
