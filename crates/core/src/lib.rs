//! Carry-chain entropy-extraction TRNG — the primary contribution of
//! *"Highly Efficient Entropy Extraction for True Random Number
//! Generators on FPGAs"* (Rozic, Yang, Dehaene, Verbauwhede —
//! DAC 2015), reproduced in simulation.
//!
//! The crate assembles the paper's architecture on top of the
//! [`trng_fpga_sim`] substrate and the [`trng_model`] stochastic model:
//!
//! * [`snippet`] — raw TDC captures and their Figure-4 taxonomy;
//! * [`extractor`] — XOR combine + priority-encoded first-edge LSB
//!   (Figure 5), with pluggable [`bubble`] filtering and
//!   [`downsample`]-by-`k` support;
//! * [`trng`] — the complete [`CarryChainTrng`] generator;
//! * [`elementary`] — the elementary-TRNG baseline of Section 5.3;
//! * [`postprocess`] — streaming XOR compression (Section 4.5);
//! * [`health`] / [`selftest`] — embedded start-up and online tests
//!   (the paper's stated future work, per AIS-31 / SP 800-90B
//!   practice);
//! * [`von_neumann`] — the classical alternative post-processor, for
//!   ablation against XOR;
//! * [`rng_adapter`] — a [`trng_testkit::prng::RngCore`] view of the generator;
//! * [`resources`] — slice-count estimation reproducing Table 2.
//!
//! # Quickstart
//!
//! ```
//! use trng_core::trng::{CarryChainTrng, TrngConfig};
//!
//! // The paper's 14.3 Mb/s configuration (k = 1, tA = 10 ns, np = 7).
//! let mut trng = CarryChainTrng::new(TrngConfig::paper_k1(), 42)?;
//! let bits = trng.generate_postprocessed(128);
//! assert_eq!(bits.len(), 128);
//! # Ok::<(), trng_core::trng::BuildTrngError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bubble;
pub mod downsample;
pub mod elementary;
pub mod extractor;
pub mod health;
pub mod postprocess;
pub mod resources;
pub mod restart;
pub mod rng_adapter;
pub mod self_timed;
pub mod selftest;
pub mod snippet;
pub mod trng;
pub mod von_neumann;

pub use bubble::BubbleFilter;
pub use elementary::{ElementaryConfig, ElementaryTrng};
pub use extractor::{EntropyExtractor, ExtractedBit};
pub use health::{HealthStatus, OnlineHealth};
pub use postprocess::XorCompressor;
pub use resources::{estimate, estimate_usage, ResourceBreakdown};
pub use restart::RestartMatrix;
pub use rng_adapter::TrngRng;
pub use self_timed::{SelfTimedConfig, SelfTimedTrng};
pub use selftest::{claimed_min_entropy, run_startup, StartupReport, StartupSource};
pub use snippet::{Snippet, SnippetKind};
pub use trng::{BuildTrngError, CarryChainTrng, TrngConfig, TrngStats};
pub use von_neumann::VonNeumann;

#[cfg(test)]
mod thread_safety {
    //! C-SEND-SYNC: generators move across threads (the benchmark
    //! harness parallelizes sequence generation).

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn generators_are_send_and_sync() {
        assert_send::<crate::trng::CarryChainTrng>();
        assert_sync::<crate::trng::CarryChainTrng>();
        assert_send::<crate::elementary::ElementaryTrng>();
        assert_send::<crate::rng_adapter::TrngRng>();
        assert_send::<crate::restart::RestartMatrix>();
    }

    #[test]
    fn parallel_generation_works() {
        let bits: Vec<Vec<bool>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|s| {
                    scope.spawn(move || {
                        let cfg = crate::trng::TrngConfig::paper_k1();
                        let mut trng = crate::trng::CarryChainTrng::new(cfg, s).expect("build");
                        trng.generate_raw(500)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });
        assert_eq!(bits.len(), 4);
        // Different seeds produce different streams.
        assert_ne!(bits[0], bits[1]);
    }
}
