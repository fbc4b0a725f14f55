//! The carry-chain TDC backend: [`CarryChainTrng`] behind the
//! [`EntropySource`] contract.
//!
//! This adapter is the byte-identity anchor for the whole subsystem:
//! given the same `(TrngConfig, seed)` and the same sequence of
//! rebuilds, it produces *exactly* the raw stream the pool's
//! hard-wired shard produced before the trait existed — same seed
//! lanes (`mix_seed(seed, rebuild_count)`), same time/raw-bit banking
//! across rebuilds, same fault-to-config mapping. Replay fixtures
//! recorded against the old pool therefore stay valid.

use trng_core::trng::{CarryChainTrng, TrngConfig};
use trng_fpga_sim::time::Ps;

use crate::source::{mix_seed, CaptureStats, EntropySource, SourceError, SourceFault, SourceKind};

/// The DAC'15 carry-chain TDC simulator as a pool backend.
#[derive(Debug)]
pub struct CarryChainSource {
    base: TrngConfig,
    seed: u64,
    rebuilds: u64,
    trng: CarryChainTrng,
    sim_base_ns: u64,
    raw_base: u64,
    claim: f64,
    stuck: bool,
}

impl CarryChainSource {
    /// Builds the source from a carry-chain configuration and a
    /// simulation seed (the same pair [`CarryChainTrng::new`] takes).
    ///
    /// # Errors
    ///
    /// [`SourceError::Build`] when the entropy claim cannot be derived
    /// from the parameters or the simulator rejects the configuration.
    pub fn new(config: TrngConfig, seed: u64) -> Result<Self, SourceError> {
        let claim = trng_core::selftest::claimed_min_entropy(&config)?;
        let trng = CarryChainTrng::new(config.clone(), seed)?;
        Ok(CarryChainSource {
            base: config,
            seed,
            rebuilds: 0,
            trng,
            sim_base_ns: 0,
            raw_base: 0,
            claim,
            stuck: false,
        })
    }

    /// The live simulator configuration (after any applied fault).
    pub fn config(&self) -> &TrngConfig {
        self.trng.config()
    }

    fn faulted_config(&self, fault: &SourceFault) -> Result<TrngConfig, SourceError> {
        match fault {
            SourceFault::Attack(a) => {
                let mut c = self.base.clone();
                c.attack = Some(*a);
                Ok(c)
            }
            SourceFault::Config(c) => Ok((**c).clone()),
            SourceFault::Env(env) => Ok(self.base.with_environment(env)),
            SourceFault::Stuck => unreachable!("stuck handled before config mapping"),
        }
    }
}

impl EntropySource for CarryChainSource {
    fn kind(&self) -> SourceKind {
        SourceKind::CarryChain
    }

    fn claimed_min_entropy(&self) -> f64 {
        self.claim
    }

    fn native_xor_rate(&self) -> u32 {
        self.base.design.np
    }

    fn next_raw_bit(&mut self) -> bool {
        if self.stuck {
            return false;
        }
        self.trng.next_raw_bit()
    }

    fn fill_raw(&mut self, out: &mut [u8]) {
        if self.stuck {
            out.fill(0);
            return;
        }
        self.trng.fill_raw(out);
    }

    fn raw_bits(&self) -> u64 {
        self.raw_base + self.trng.stats().samples
    }

    fn sim_now_ns(&self) -> u64 {
        self.sim_base_ns + self.trng.now().as_ns() as u64
    }

    fn capture_stats(&self) -> CaptureStats {
        let stats = self.trng.stats();
        CaptureStats {
            samples: stats.samples,
            missed_edges: stats.missed_edges,
        }
    }

    fn rebuild(&mut self, fault: Option<&SourceFault>) -> Result<(), SourceError> {
        if let Some(SourceFault::Stuck) = fault {
            // Freeze in place: the live instance stops advancing, so
            // no time is banked and no fresh seed lane is consumed.
            self.stuck = true;
            return Ok(());
        }
        let config = match fault {
            Some(f) => self.faulted_config(f)?,
            None => self.base.clone(),
        };
        self.sim_base_ns += self.trng.now().as_ns() as u64;
        self.raw_base += self.trng.stats().samples;
        self.rebuilds += 1;
        self.trng = CarryChainTrng::new(config, mix_seed(self.seed, self.rebuilds))?;
        self.stuck = false;
        Ok(())
    }

    fn monitor_view(&self) -> Option<(&TrngConfig, Ps)> {
        Some((self.trng.config(), self.trng.now()))
    }

    fn noise_backend(&self) -> trng_fpga_sim::noise::NoiseBackend {
        // Report what the live instance actually runs: a requested
        // batched engine that fell back to scalar reads as scalar.
        self.trng.active_noise_backend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(seed: u64) -> CarryChainSource {
        CarryChainSource::new(TrngConfig::paper_k1(), seed).expect("paper config builds")
    }

    #[test]
    fn matches_the_bare_trng_bit_for_bit() {
        let mut src = source(77);
        let mut bare = CarryChainTrng::new(TrngConfig::paper_k1(), 77).expect("builds");
        for _ in 0..4_096 {
            assert_eq!(src.next_raw_bit(), bare.next_raw_bit());
        }
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        src.fill_raw(&mut a);
        bare.fill_raw(&mut b);
        assert_eq!(a, b);
        assert_eq!(src.raw_bits(), bare.stats().samples);
    }

    #[test]
    fn lines_wider_than_a_word_are_a_build_error() {
        let wide = TrngConfig::paper_k1().with_design(trng_model::params::DesignParams {
            m: 68,
            ..trng_model::params::DesignParams::paper_k1()
        });
        let err = CarryChainSource::new(wide, 1).expect_err("m = 68 is refused");
        assert!(
            matches!(&err, SourceError::Build(why) if why.contains("68-tap delay lines")),
            "{err}"
        );
    }

    #[test]
    fn rebuild_banks_time_and_derives_the_next_lane() {
        let mut src = source(9);
        let mut buf = [0u8; 32];
        src.fill_raw(&mut buf);
        let before_ns = src.sim_now_ns();
        let before_bits = src.raw_bits();
        src.rebuild(None).expect("healthy rebuild");
        assert_eq!(src.sim_now_ns(), before_ns);
        assert_eq!(src.raw_bits(), before_bits);

        // The replacement runs on the lane the old shard used.
        let mut lane = CarryChainTrng::new(TrngConfig::paper_k1(), mix_seed(9, 1)).expect("builds");
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        src.fill_raw(&mut a);
        lane.fill_raw(&mut b);
        assert_eq!(a, b);
        assert!(src.sim_now_ns() > before_ns);
    }

    #[test]
    fn stuck_freezes_output_and_clock_until_rebuilt() {
        let mut src = source(3);
        let mut buf = [0u8; 8];
        src.fill_raw(&mut buf);
        let frozen_ns = src.sim_now_ns();
        src.rebuild(Some(&SourceFault::Stuck))
            .expect("stuck applies");
        let mut out = [0xFFu8; 16];
        src.fill_raw(&mut out);
        assert!(out.iter().all(|&b| b == 0));
        assert!(!src.next_raw_bit());
        assert_eq!(src.sim_now_ns(), frozen_ns);
        src.rebuild(None).expect("recovers");
        let mut post = [0u8; 16];
        src.fill_raw(&mut post);
        assert!(post.iter().any(|&b| b != 0));
    }
}
