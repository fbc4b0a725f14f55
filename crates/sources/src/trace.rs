//! Recorded-trace replay: captured raw TDC output fed back through
//! the live health/conditioning stack.
//!
//! A [`RecordedTrace`] stores the raw byte stream of a real capture
//! *plus* per-byte cumulative checkpoints of the capture's missed-edge
//! counter; its sample count and simulated clock follow from the byte
//! index and the sampling period. Replaying the trace through
//! a [`TraceReplaySource`] therefore reproduces not just the bits but
//! the progress accounting the original run published — the pool's
//! startup test, missed-edge check, statistics and incident journal
//! all see exactly what they saw live. This holds at every point the
//! pool actually reads the counters (startup completion and block
//! boundaries) because every conditioning mode consumes a fixed number
//! of raw bits per output bit, so every pool read is whole-raw-byte
//! aligned; mid-byte reads floor to the previous byte checkpoint.
//!
//! When the trace is exhausted it wraps, and the checkpoint totals
//! keep accumulating across passes so lifetime counters stay
//! monotonic.

use std::sync::Arc;

use trng_core::trng::{CarryChainTrng, TrngConfig};

use crate::source::{CaptureStats, EntropySource, SourceError, SourceFault, SourceKind};

/// A captured raw stream with per-byte progress checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    /// The recorded source's worst-case min-entropy claim per raw bit.
    pub claimed_min_entropy: f64,
    /// The recorded source's natural XOR-compression rate.
    pub xor_rate: u32,
    /// The raw bytes, MSB-first within each byte.
    pub bytes: Vec<u8>,
    /// The sampling period in picoseconds. The capture's clock starts
    /// at zero and advances by exactly this much per sample, so the
    /// simulated time after byte `i` follows from its sample count.
    t_a_ps: f64,
    /// Cumulative missed-edge count after each byte was drawn.
    missed_at: Vec<u32>,
}

impl RecordedTrace {
    /// Captures `nbytes` of raw output from a fresh carry-chain TDC
    /// run, checkpointing its missed-edge counter after every byte.
    ///
    /// # Errors
    ///
    /// [`SourceError::Build`] when the configuration is rejected or
    /// the capture has `2^32` raw bits or more.
    pub fn record(config: &TrngConfig, seed: u64, nbytes: usize) -> Result<Self, SourceError> {
        let claim = trng_core::selftest::claimed_min_entropy(config)?;
        if u32::try_from(nbytes.saturating_mul(8)).is_err() {
            return Err(SourceError::Build(format!(
                "trace of {nbytes} bytes is too long to checkpoint"
            )));
        }
        let mut trng = CarryChainTrng::new(config.clone(), seed)?;
        let mut bytes = Vec::with_capacity(nbytes);
        let mut missed_at = Vec::with_capacity(nbytes);
        let mut byte = [0u8; 1];
        for _ in 0..nbytes {
            trng.fill_raw(&mut byte);
            bytes.push(byte[0]);
            // At most 8 misses per byte, so the length check above
            // keeps the count in range.
            missed_at.push(trng.stats().missed_edges as u32);
        }
        Ok(RecordedTrace {
            claimed_min_entropy: claim,
            xor_rate: config.design.np,
            bytes,
            t_a_ps: config.design.t_a_ps(),
            missed_at,
        })
    }

    /// Cumulative `[simulated ns, samples, missed edges]` after byte
    /// `i` was drawn. Every byte is 8 samples, one per `t_a`.
    ///
    /// # Panics
    ///
    /// When `i` is past the last byte.
    pub fn checkpoint(&self, i: usize) -> [u64; 3] {
        let samples = 8 * (i as u64 + 1);
        let sim_ns = (self.t_a_ps * samples as f64 / 1e3) as u64;
        [sim_ns, samples, u64::from(self.missed_at[i])]
    }

    fn validate(&self) -> Result<(), SourceError> {
        if self.bytes.is_empty() {
            return Err(SourceError::Build("trace has no bytes".into()));
        }
        if self.missed_at.len() != self.bytes.len() {
            return Err(SourceError::Build(format!(
                "trace checkpoints out of step: {} bytes vs {} checkpoints",
                self.bytes.len(),
                self.missed_at.len()
            )));
        }
        if !(self.t_a_ps.is_finite() && self.t_a_ps > 0.0) {
            return Err(SourceError::Build(format!(
                "trace sampling period {} ps is not positive",
                self.t_a_ps
            )));
        }
        if !(0.0 < self.claimed_min_entropy && self.claimed_min_entropy <= 1.0) {
            return Err(SourceError::Build(format!(
                "trace entropy claim {} outside (0, 1]",
                self.claimed_min_entropy
            )));
        }
        if self.xor_rate == 0 {
            return Err(SourceError::Build(
                "trace xor rate must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Replays a [`RecordedTrace`] behind the [`EntropySource`] contract.
#[derive(Debug)]
pub struct TraceReplaySource {
    trace: Arc<RecordedTrace>,
    /// Bit position within the current pass.
    pos: u64,
    /// Completed passes since the last rebuild.
    wraps: u64,
    sim_base_ns: u64,
    raw_base: u64,
    stuck: bool,
}

impl TraceReplaySource {
    /// Wraps a trace for replay.
    ///
    /// # Errors
    ///
    /// [`SourceError::Build`] when the trace is empty or its
    /// checkpoint vectors are inconsistent.
    pub fn new(trace: Arc<RecordedTrace>) -> Result<Self, SourceError> {
        trace.validate()?;
        Ok(TraceReplaySource {
            trace,
            pos: 0,
            wraps: 0,
            sim_base_ns: 0,
            raw_base: 0,
            stuck: false,
        })
    }

    /// Checkpoint totals at the current pass position, floored to the
    /// previous whole byte.
    fn pass_totals(&self) -> (u64, u64, u64) {
        let byte = (self.pos / 8) as usize;
        if byte == 0 {
            (0, 0, 0)
        } else {
            let [ns, samples, missed] = self.trace.checkpoint(byte - 1);
            (ns, samples, missed)
        }
    }

    /// Totals accumulated since the last rebuild (all passes).
    fn live_totals(&self) -> (u64, u64, u64) {
        let full = self.trace.checkpoint(self.trace.bytes.len() - 1);
        let (ns, samples, missed) = self.pass_totals();
        (
            self.wraps * full[0] + ns,
            self.wraps * full[1] + samples,
            self.wraps * full[2] + missed,
        )
    }
}

impl EntropySource for TraceReplaySource {
    fn kind(&self) -> SourceKind {
        SourceKind::TraceReplay
    }

    fn claimed_min_entropy(&self) -> f64 {
        self.trace.claimed_min_entropy
    }

    fn native_xor_rate(&self) -> u32 {
        self.trace.xor_rate
    }

    fn next_raw_bit(&mut self) -> bool {
        if self.stuck {
            return false;
        }
        let byte = self.trace.bytes[(self.pos / 8) as usize];
        let bit = byte >> (7 - self.pos % 8) & 1 == 1;
        self.pos += 1;
        if self.pos == self.trace.bytes.len() as u64 * 8 {
            self.pos = 0;
            self.wraps += 1;
        }
        bit
    }

    fn fill_raw(&mut self, out: &mut [u8]) {
        if self.stuck {
            out.fill(0);
            return;
        }
        for slot in out.iter_mut() {
            if self.pos.is_multiple_of(8) {
                *slot = self.trace.bytes[(self.pos / 8) as usize];
                self.pos += 8;
                if self.pos == self.trace.bytes.len() as u64 * 8 {
                    self.pos = 0;
                    self.wraps += 1;
                }
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
        self.raw_base + self.live_totals().1
    }

    fn sim_now_ns(&self) -> u64 {
        self.sim_base_ns + self.live_totals().0
    }

    fn capture_stats(&self) -> CaptureStats {
        let (_, samples, missed) = self.live_totals();
        CaptureStats {
            samples,
            missed_edges: missed,
        }
    }

    fn rebuild(&mut self, fault: Option<&SourceFault>) -> Result<(), SourceError> {
        match fault {
            Some(SourceFault::Stuck) => {
                self.stuck = true;
                Ok(())
            }
            Some(f) => Err(SourceError::UnsupportedFault {
                kind: SourceKind::TraceReplay,
                fault: match f {
                    SourceFault::Attack(_) => "attack",
                    SourceFault::Config(_) => "carry-chain config",
                    SourceFault::Env(_) => "environment",
                    SourceFault::Stuck => unreachable!("handled above"),
                },
            }),
            None => {
                // Replay restart: bank what this pass produced and
                // rewind to the head of the trace.
                let (ns, samples, _) = self.live_totals();
                self.sim_base_ns += ns;
                self.raw_base += samples;
                self.pos = 0;
                self.wraps = 0;
                self.stuck = false;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Arc<RecordedTrace> {
        Arc::new(RecordedTrace::record(&TrngConfig::paper_k1(), 11, 64).expect("capture succeeds"))
    }

    #[test]
    fn replay_reproduces_the_recorded_bytes_and_counters() {
        let trace = trace();
        let mut src = TraceReplaySource::new(trace.clone()).expect("valid trace");
        let mut out = [0u8; 64];
        src.fill_raw(&mut out);
        assert_eq!(&out[..], &trace.bytes[..]);
        // After a full pass the counters equal the recording's finals.
        let [ns, samples, _] = trace.checkpoint(63);
        assert_eq!(src.raw_bits(), samples);
        assert_eq!(src.sim_now_ns(), ns);
        // Second pass wraps and keeps accumulating.
        src.fill_raw(&mut out);
        assert_eq!(&out[..], &trace.bytes[..]);
        assert_eq!(src.raw_bits(), 2 * samples);
    }

    #[test]
    fn per_bit_and_per_byte_reads_agree() {
        let trace = trace();
        let mut a = TraceReplaySource::new(trace.clone()).expect("valid trace");
        let mut b = TraceReplaySource::new(trace).expect("valid trace");
        let mut bytes = [0u8; 16];
        a.fill_raw(&mut bytes);
        for byte in bytes {
            for k in 0..8 {
                assert_eq!(byte >> (7 - k) & 1 == 1, b.next_raw_bit());
            }
        }
    }

    #[test]
    fn rebuild_banks_and_rewinds() {
        let trace = trace();
        let mut src = TraceReplaySource::new(trace.clone()).expect("valid trace");
        let mut out = [0u8; 32];
        src.fill_raw(&mut out);
        let bits = src.raw_bits();
        src.rebuild(None).expect("replay restart");
        assert_eq!(src.raw_bits(), bits, "banked totals survive the rewind");
        let mut again = [0u8; 32];
        src.fill_raw(&mut again);
        assert_eq!(&again[..], &trace.bytes[..32], "rewound to the head");
    }

    #[test]
    fn foreign_faults_are_typed_rejections() {
        let mut src = TraceReplaySource::new(trace()).expect("valid trace");
        let fault = SourceFault::Env(Default::default());
        match src.rebuild(Some(&fault)) {
            Err(SourceError::UnsupportedFault { kind, .. }) => {
                assert_eq!(kind, SourceKind::TraceReplay);
            }
            other => panic!("expected UnsupportedFault, got {other:?}"),
        }
    }

    #[test]
    fn derived_checkpoints_match_the_live_counters() {
        for config in [TrngConfig::paper_k1(), TrngConfig::paper_k4()] {
            let trace = RecordedTrace::record(&config, 5, 256).expect("capture");
            let mut trng = CarryChainTrng::new(config, 5).expect("same build");
            let mut byte = [0u8; 1];
            for i in 0..trace.bytes.len() {
                trng.fill_raw(&mut byte);
                let stats = trng.stats();
                let live = [trng.now().as_ns() as u64, stats.samples, stats.missed_edges];
                assert_eq!(trace.checkpoint(i), live, "byte {i}");
            }
        }
    }

    #[test]
    fn inconsistent_checkpoints_are_rejected() {
        let mut t = (*trace()).clone();
        t.missed_at.pop();
        assert!(TraceReplaySource::new(Arc::new(t)).is_err());
    }
}
