//! OS-entropy fallback: the operating system's pool behind the
//! [`EntropySource`] contract, as a production fallback tier.
//!
//! Two backings share one implementation:
//!
//! * **Live** ([`OsEntropySource::from_os`]) reads `/dev/urandom`
//!   through a 4 KiB buffer. Inherently non-replayable — use it only
//!   in non-deterministic pools.
//! * **Seeded** ([`OsEntropySource::seeded`]) draws a splitmix64
//!   counter stream instead, standing in for the OS pool wherever the
//!   deterministic replay contract must hold (replay-mode pools, CI,
//!   benchmarks). Also the automatic fallback when the device cannot
//!   be opened, so hermetic environments without `/dev/urandom` still
//!   come up.
//!
//! The entropy claim is a deliberately conservative 0.98 per bit —
//! the OS pool is conditioned full-entropy output, but claiming
//! slightly less keeps the SP 800-90B repetition cutoff finite (22 at
//! 0.98) so a latched-up stream is still caught. The source has no
//! physical clock; it reports a documented nominal rate of one raw
//! bit per simulated nanosecond so pool throughput accounting stays
//! defined.

use std::fs::File;
use std::io::Read;

use trng_fpga_sim::rng::splitmix64;

use crate::source::{mix_seed, CaptureStats, EntropySource, SourceError, SourceFault, SourceKind};

/// Conservative per-raw-bit min-entropy claim for the OS pool.
const OS_CLAIM: f64 = 0.98;

const BUF_BYTES: usize = 4_096;

#[derive(Debug)]
enum Backing {
    /// Deterministic splitmix64 counter stream.
    Seeded { lane: u64, counter: u64 },
    /// Buffered reads from the OS entropy device.
    Device(File),
}

/// The operating system's entropy pool (or its seeded stand-in) as a
/// pool backend — see the [module docs](self).
#[derive(Debug)]
pub struct OsEntropySource {
    backing: Backing,
    seed: u64,
    rebuilds: u64,
    buf: Vec<u8>,
    /// Bit cursor into `buf`; `buf.len() * 8` means exhausted.
    cursor: usize,
    bits: u64,
    bits_at_rebuild: u64,
    stuck: bool,
}

impl OsEntropySource {
    /// A deterministic seeded stream — the replay-safe stand-in.
    pub fn seeded(seed: u64) -> Self {
        OsEntropySource {
            backing: Backing::Seeded {
                lane: mix_seed(seed, 0),
                counter: 0,
            },
            seed,
            rebuilds: 0,
            buf: Vec::new(),
            cursor: 0,
            bits: 0,
            bits_at_rebuild: 0,
            stuck: false,
        }
    }

    /// The live OS pool, falling back to a seeded stream if the
    /// entropy device cannot be opened.
    pub fn from_os(seed: u64) -> Self {
        match File::open("/dev/urandom") {
            Ok(f) => OsEntropySource {
                backing: Backing::Device(f),
                seed,
                rebuilds: 0,
                buf: Vec::new(),
                cursor: 0,
                bits: 0,
                bits_at_rebuild: 0,
                stuck: false,
            },
            Err(_) => OsEntropySource::seeded(seed),
        }
    }

    fn refill(&mut self) {
        self.buf.resize(BUF_BYTES, 0);
        match &mut self.backing {
            Backing::Seeded { lane, counter } => {
                for chunk in self.buf.chunks_exact_mut(8) {
                    let word = splitmix64(*lane ^ *counter);
                    *counter += 1;
                    chunk.copy_from_slice(&word.to_be_bytes());
                }
            }
            Backing::Device(f) => {
                if f.read_exact(&mut self.buf).is_err() {
                    // A failing device degrades to the seeded stream
                    // rather than serving stale buffer contents.
                    self.backing = Backing::Seeded {
                        lane: mix_seed(self.seed, self.rebuilds),
                        counter: 0,
                    };
                    self.refill();
                    return;
                }
            }
        }
        self.cursor = 0;
    }
}

impl EntropySource for OsEntropySource {
    fn kind(&self) -> SourceKind {
        SourceKind::OsEntropy
    }

    fn claimed_min_entropy(&self) -> f64 {
        OS_CLAIM
    }

    fn native_xor_rate(&self) -> u32 {
        1
    }

    fn next_raw_bit(&mut self) -> bool {
        if self.stuck {
            return false;
        }
        if self.cursor >= self.buf.len() * 8 {
            self.refill();
        }
        let bit = self.buf[self.cursor / 8] >> (7 - self.cursor % 8) & 1 == 1;
        self.cursor += 1;
        self.bits += 1;
        bit
    }

    fn fill_raw(&mut self, out: &mut [u8]) {
        if self.stuck {
            out.fill(0);
            return;
        }
        for slot in out.iter_mut() {
            if self.cursor.is_multiple_of(8) {
                if self.cursor >= self.buf.len() * 8 {
                    self.refill();
                }
                *slot = self.buf[self.cursor / 8];
                self.cursor += 8;
                self.bits += 8;
            } else {
                let mut b = 0u8;
                for _ in 0..8 {
                    b = b << 1 | u8::from(self.next_raw_bit());
                }
                *slot = b;
            }
        }
    }

    fn raw_bits(&self) -> u64 {
        self.bits
    }

    fn sim_now_ns(&self) -> u64 {
        // Nominal clock: one raw bit per nanosecond.
        self.bits
    }

    fn capture_stats(&self) -> CaptureStats {
        CaptureStats {
            samples: self.bits - self.bits_at_rebuild,
            missed_edges: 0,
        }
    }

    fn rebuild(&mut self, fault: Option<&SourceFault>) -> Result<(), SourceError> {
        match fault {
            Some(SourceFault::Stuck) => {
                self.stuck = true;
                Ok(())
            }
            Some(f) => Err(SourceError::UnsupportedFault {
                kind: SourceKind::OsEntropy,
                fault: match f {
                    SourceFault::Attack(_) => "attack",
                    SourceFault::Config(_) => "carry-chain config",
                    SourceFault::Env(_) => "environment",
                    SourceFault::Stuck => unreachable!("handled above"),
                },
            }),
            None => {
                self.rebuilds += 1;
                if let Backing::Seeded { lane, counter } = &mut self.backing {
                    *lane = mix_seed(self.seed, self.rebuilds);
                    *counter = 0;
                }
                self.buf.clear();
                self.cursor = 0;
                self.bits_at_rebuild = self.bits;
                self.stuck = false;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_replay() {
        let mut a = OsEntropySource::seeded(9);
        let mut b = OsEntropySource::seeded(9);
        let mut x = [0u8; 128];
        let mut y = [0u8; 128];
        a.fill_raw(&mut x);
        b.fill_raw(&mut y);
        assert_eq!(x, y);
        assert_ne!(x, [0u8; 128]);
        assert_eq!(a.raw_bits(), 1_024);
    }

    #[test]
    fn per_bit_and_per_byte_reads_agree() {
        let mut a = OsEntropySource::seeded(5);
        let mut b = OsEntropySource::seeded(5);
        let mut bytes = [0u8; 16];
        a.fill_raw(&mut bytes);
        for byte in bytes {
            for k in 0..8 {
                assert_eq!(byte >> (7 - k) & 1 == 1, b.next_raw_bit());
            }
        }
    }

    #[test]
    fn rebuild_switches_lanes_without_losing_totals() {
        let mut src = OsEntropySource::seeded(7);
        let mut first = [0u8; 32];
        src.fill_raw(&mut first);
        src.rebuild(None).expect("replay restart");
        assert_eq!(src.raw_bits(), 256, "lifetime bits survive the rebuild");
        assert_eq!(src.capture_stats().samples, 0, "live counters reset");
        let mut second = [0u8; 32];
        src.fill_raw(&mut second);
        assert_ne!(first, second, "rebuild draws a fresh lane");
    }

    #[test]
    fn stuck_freezes_until_rebuilt() {
        let mut src = OsEntropySource::seeded(3);
        src.rebuild(Some(&SourceFault::Stuck))
            .expect("stuck applies");
        let mut out = [0xFFu8; 8];
        src.fill_raw(&mut out);
        assert_eq!(out, [0u8; 8]);
        src.rebuild(None).expect("recovers");
        src.fill_raw(&mut out);
        assert_ne!(out, [0u8; 8]);
    }

    #[test]
    fn live_mode_serves_bytes() {
        let mut src = OsEntropySource::from_os(0);
        let mut out = [0u8; 64];
        src.fill_raw(&mut out);
        assert_eq!(src.raw_bits(), 512);
    }
}
