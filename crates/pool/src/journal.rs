//! Auditable incident journal: a bounded, lock-free event log every
//! shard (and the respawn supervisor) records its lifecycle incidents
//! into.
//!
//! AIS-31 evaluation is not a one-time certificate: an entropy claim
//! over a device's lifetime rests on being able to account for *every*
//! health incident after the fact. Bare counters ("3 alarms") cannot
//! do that — an evaluator needs to know *when* each alarm fired,
//! where in the delivered stream it sat, and how the supervisor
//! responded. The journal records exactly that:
//!
//! * one [`IncidentEvent`] per lifecycle transition —
//!   [`IncidentKind::Spawn`] / [`Alarm`](IncidentKind::Alarm) /
//!   [`Quarantine`](IncidentKind::Quarantine) /
//!   [`Readmit`](IncidentKind::Readmit) /
//!   [`Retire`](IncidentKind::Retire) /
//!   [`Respawn`](IncidentKind::Respawn) — stamped with the shard's
//!   simulated clock and its healthy-byte offset at the moment of the
//!   event;
//! * recording is lock-free (a fetch-add slot claim plus seqlock-style
//!   publication), so shard worker threads never contend with each
//!   other or with snapshot readers;
//! * the log is **bounded**: a fixed-capacity ring where the oldest
//!   events are overwritten once `capacity` is exceeded. Eviction is
//!   *detectable*, never silent — [`Journal::snapshot`] reports the
//!   total number of events ever recorded alongside the retained
//!   window, so an auditor can tell a complete history from a
//!   truncated one (and size the capacity accordingly).

use std::sync::atomic::{AtomicU64, Ordering};

use trng_testkit::json::Json;

/// Default number of events a pool journal retains.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// [`IncidentEvent::detail`] of a [`IncidentKind::Retire`] whose shard
/// worker panicked. Above every startup failure mask, so it cannot be
/// mistaken for a failed (re-)admission test.
pub const RETIRE_WORKER_PANIC: u64 = 1 << 8;

/// Which physics probe a monitoring event's `detail` word describes —
/// the exhaustive code set shared by every probe-carrying incident
/// ([`IncidentKind::JitterDrift`] and
/// [`IncidentKind::CommonModeCoherence`]). The code always sits in the
/// top byte of [`IncidentEvent::detail`]; the layout of the low bits is
/// probe-specific (see the incident-kind docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeCode {
    /// The per-shard differential two-RO sigma probe.
    Sigma,
    /// The per-shard oscillation-period probe.
    Period,
    /// The pool-level cross-shard coherence detector (Goertzel bank
    /// over period-probe residuals).
    Coherence,
}

impl ProbeCode {
    /// Every probe code, for exhaustive round-trip tests.
    pub const ALL: [ProbeCode; 3] = [ProbeCode::Sigma, ProbeCode::Period, ProbeCode::Coherence];

    /// The wire code stored in the detail word's top byte. Codes start
    /// at 1 so a zero detail word never reads as a probe event.
    pub fn as_u8(self) -> u8 {
        match self {
            ProbeCode::Sigma => 1,
            ProbeCode::Period => 2,
            ProbeCode::Coherence => 3,
        }
    }

    /// Decodes a wire code; `None` for values no probe has claimed.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ProbeCode::Sigma),
            2 => Some(ProbeCode::Period),
            3 => Some(ProbeCode::Coherence),
            _ => None,
        }
    }

    /// Extracts the probe code from a journal detail word.
    pub fn from_detail(detail: u64) -> Option<Self> {
        ProbeCode::from_u8((detail >> 56) as u8)
    }

    /// Metrics label of the probe.
    pub fn as_str(self) -> &'static str {
        match self {
            ProbeCode::Sigma => "sigma",
            ProbeCode::Period => "period",
            ProbeCode::Coherence => "coherence",
        }
    }
}

impl core::fmt::Display for ProbeCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What happened to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncidentKind {
    /// The shard was built as part of the pool's initial complement.
    Spawn,
    /// A continuous online test alarmed; the in-flight block was
    /// discarded.
    Alarm,
    /// The shard was isolated pending a fresh start-up test.
    Quarantine,
    /// The shard passed its re-admission start-up test and rejoined.
    Readmit,
    /// The shard left service permanently. For a retirement caused by
    /// a failed (re-)admission test, [`IncidentEvent::detail`] carries
    /// the startup failure mask; a worker that panicked retires with
    /// [`RETIRE_WORKER_PANIC`].
    Retire,
    /// The supervisor spawned this shard as a replacement on a fresh
    /// fabric placement; [`IncidentEvent::detail`] carries the id of
    /// the retired shard it supersedes.
    Respawn,
    /// The online jitter monitor saw the shard's differential jitter
    /// or oscillation period leave its baseline band — an entropy-
    /// degradation early warning that does *not* by itself quarantine
    /// the shard. [`IncidentEvent::detail`] encodes the offending
    /// probe (`1` = jitter sigma, `2` = period, in the top byte) and
    /// the observed/baseline ratio in permille (low bits).
    JitterDrift,
    /// The pool-level coherence detector saw the *same* spectral line
    /// elevated on a quorum of shards' period-probe residual series —
    /// the signature of a common-mode environmental attack that every
    /// per-shard differential probe cancels by construction.
    /// [`IncidentEvent::detail`] packs
    /// [`ProbeCode::Coherence`] in the top byte, the DFT bin index in
    /// bits 48..56, the quorum shard bitmask in bits 32..48 and the
    /// line magnitude in permille of the baseline period in the low 32
    /// bits (see `trng_pool::coherence` for the encode/decode pair).
    /// The event is recorded against the lowest-indexed shard in the
    /// quorum and stamped with that shard's clock and byte offset.
    CommonModeCoherence,
}

impl IncidentKind {
    fn as_u8(self) -> u8 {
        match self {
            IncidentKind::Spawn => 0,
            IncidentKind::Alarm => 1,
            IncidentKind::Quarantine => 2,
            IncidentKind::Readmit => 3,
            IncidentKind::Retire => 4,
            IncidentKind::Respawn => 5,
            IncidentKind::JitterDrift => 6,
            IncidentKind::CommonModeCoherence => 7,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => IncidentKind::Spawn,
            1 => IncidentKind::Alarm,
            2 => IncidentKind::Quarantine,
            3 => IncidentKind::Readmit,
            4 => IncidentKind::Retire,
            6 => IncidentKind::JitterDrift,
            7 => IncidentKind::CommonModeCoherence,
            _ => IncidentKind::Respawn,
        }
    }
}

impl core::fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            IncidentKind::Spawn => "spawn",
            IncidentKind::Alarm => "alarm",
            IncidentKind::Quarantine => "quarantine",
            IncidentKind::Readmit => "readmit",
            IncidentKind::Retire => "retire",
            IncidentKind::Respawn => "respawn",
            IncidentKind::JitterDrift => "jitter_drift",
            IncidentKind::CommonModeCoherence => "common_mode_coherence",
        })
    }
}

/// One journaled lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncidentEvent {
    /// Global sequence number (0-based, gap-free across the pool).
    pub seq: u64,
    /// Shard the event concerns.
    pub shard: usize,
    /// What happened.
    pub kind: IncidentKind,
    /// The shard's simulated clock at the event, in nanoseconds
    /// (respawn events are stamped with the superseded shard's final
    /// simulated time).
    pub sim_ns: u64,
    /// The shard's healthy-byte offset at the event (for respawn
    /// events: the pool's delivered-byte offset when the replacement
    /// was spawned).
    pub at_bytes: u64,
    /// Event-specific detail: the startup failure mask for a
    /// retirement caused by a failed (re-)admission test
    /// (see [`trng_core::selftest::StartupReport::failure_mask`]),
    /// [`RETIRE_WORKER_PANIC`] for a worker that panicked, the
    /// superseded shard id for a respawn, 0 otherwise.
    pub detail: u64,
}

impl IncidentEvent {
    /// Renders the event as a JSON object (field names match).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::u64(self.seq)),
            ("shard", Json::u64(self.shard as u64)),
            ("kind", Json::str(self.kind.to_string())),
            ("sim_ns", Json::u64(self.sim_ns)),
            ("at_bytes", Json::u64(self.at_bytes)),
            ("detail", Json::u64(self.detail)),
        ])
    }
}

impl core::fmt::Display for IncidentEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "#{} shard {} {} @ {} ns / {} B",
            self.seq, self.shard, self.kind, self.sim_ns, self.at_bytes
        )?;
        if self.detail != 0 {
            write!(f, " (detail {:#x})", self.detail)?;
        }
        Ok(())
    }
}

/// One ring slot. `stamp` is 0 while empty or being (re)written and
/// `seq + 1` once the payload fields are published.
#[derive(Debug, Default)]
struct Slot {
    stamp: AtomicU64,
    /// `shard << 8 | kind`.
    who: AtomicU64,
    sim_ns: AtomicU64,
    at_bytes: AtomicU64,
    detail: AtomicU64,
}

/// The bounded, lock-free event log. See the module docs for the
/// recording and eviction semantics.
#[derive(Debug)]
pub struct Journal {
    slots: Box<[Slot]>,
    /// Total events ever recorded; doubles as the sequence allocator.
    recorded: AtomicU64,
}

impl Journal {
    /// Creates a journal retaining at least `capacity` events
    /// (rounded up to a power of two, floored at 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        Journal {
            slots: (0..cap).map(|_| Slot::default()).collect(),
            recorded: AtomicU64::new(0),
        }
    }

    /// Number of events the journal retains before evicting the
    /// oldest.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Acquire)
    }

    /// Records one event, evicting the oldest if the ring is full.
    /// Lock-free; safe to call from any shard worker.
    pub fn record(
        &self,
        shard: usize,
        kind: IncidentKind,
        sim_ns: u64,
        at_bytes: u64,
        detail: u64,
    ) {
        let seq = self.recorded.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
        // Seqlock-style publication: invalidate, write fields, then
        // publish the stamp. A snapshot that races a lapping writer
        // sees a stamp mismatch and drops the slot instead of reading
        // torn fields.
        slot.stamp.store(0, Ordering::Release);
        slot.who.store(
            (shard as u64) << 8 | u64::from(kind.as_u8()),
            Ordering::Relaxed,
        );
        slot.sim_ns.store(sim_ns, Ordering::Relaxed);
        slot.at_bytes.store(at_bytes, Ordering::Relaxed);
        slot.detail.store(detail, Ordering::Relaxed);
        slot.stamp.store(seq + 1, Ordering::Release);
    }

    /// Snapshots the retained window, oldest first. Returns the events
    /// and the count of events evicted from the bounded ring (`0`
    /// means the snapshot is the complete history).
    ///
    /// Events still mid-publication by a racing writer are skipped —
    /// they surface in the next snapshot.
    pub fn snapshot(&self) -> (Vec<IncidentEvent>, u64) {
        let total = self.recorded.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = total.saturating_sub(cap);
        let mut events = Vec::with_capacity((total - start) as usize);
        for seq in start..total {
            let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
            if slot.stamp.load(Ordering::Acquire) != seq + 1 {
                continue; // being overwritten or not yet published
            }
            let who = slot.who.load(Ordering::Relaxed);
            let sim_ns = slot.sim_ns.load(Ordering::Relaxed);
            let at_bytes = slot.at_bytes.load(Ordering::Relaxed);
            let detail = slot.detail.load(Ordering::Relaxed);
            // Re-check after reading the fields: a writer lapping this
            // slot mid-read would have bumped (or zeroed) the stamp.
            if slot.stamp.load(Ordering::Acquire) != seq + 1 {
                continue;
            }
            events.push(IncidentEvent {
                seq,
                shard: (who >> 8) as usize,
                kind: IncidentKind::from_u8((who & 0xFF) as u8),
                sim_ns,
                at_bytes,
                detail,
            });
        }
        (events, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every incident kind, in wire-code order. Adding a kind without
    /// extending this list fails the round-trip test below.
    const ALL_KINDS: [IncidentKind; 8] = [
        IncidentKind::Spawn,
        IncidentKind::Alarm,
        IncidentKind::Quarantine,
        IncidentKind::Readmit,
        IncidentKind::Retire,
        IncidentKind::Respawn,
        IncidentKind::JitterDrift,
        IncidentKind::CommonModeCoherence,
    ];

    #[test]
    fn kinds_round_trip_and_render() {
        for (i, kind) in ALL_KINDS.into_iter().enumerate() {
            assert_eq!(kind.as_u8() as usize, i, "wire codes must be dense");
            assert_eq!(IncidentKind::from_u8(kind.as_u8()), kind);
            assert!(!kind.to_string().is_empty());
        }
        // Unclaimed codes decode to the historical wildcard.
        assert_eq!(IncidentKind::from_u8(200), IncidentKind::Respawn);
    }

    #[test]
    fn every_kind_journals_and_snapshots_round_trip() {
        // One full record/snapshot cycle per kind — including the
        // coherence event — so a kind whose `who` packing breaks can
        // never reach a release.
        let journal = Journal::new(ALL_KINDS.len());
        for (i, kind) in ALL_KINDS.into_iter().enumerate() {
            journal.record(i, kind, i as u64 * 10, i as u64 * 100, i as u64 ^ 0x5A);
        }
        let (events, dropped) = journal.snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), ALL_KINDS.len());
        for (i, (e, kind)) in events.iter().zip(ALL_KINDS).enumerate() {
            assert_eq!(e.kind, kind);
            assert_eq!(e.shard, i);
            assert_eq!(e.sim_ns, i as u64 * 10);
            assert_eq!(e.at_bytes, i as u64 * 100);
            assert_eq!(e.detail, i as u64 ^ 0x5A);
            let json = e.to_json();
            assert_eq!(
                json.get("kind").and_then(Json::as_str),
                Some(kind.to_string().as_str())
            );
        }
    }

    #[test]
    fn probe_codes_are_exhaustive_and_round_trip() {
        for code in ProbeCode::ALL {
            assert_eq!(ProbeCode::from_u8(code.as_u8()), Some(code));
            assert_eq!(
                ProbeCode::from_detail(u64::from(code.as_u8()) << 56 | 0x1234),
                Some(code)
            );
            assert_eq!(code.to_string(), code.as_str());
        }
        assert_eq!(ProbeCode::from_u8(0), None, "zero is never a probe");
        assert_eq!(ProbeCode::from_detail(0), None);
        assert_eq!(ProbeCode::from_u8(9), None);
    }

    #[test]
    fn records_in_order_with_stamps() {
        let journal = Journal::new(64);
        journal.record(0, IncidentKind::Spawn, 0, 0, 0);
        journal.record(1, IncidentKind::Spawn, 0, 0, 0);
        journal.record(1, IncidentKind::Alarm, 5_000, 2048, 0);
        journal.record(1, IncidentKind::Quarantine, 5_000, 2048, 0);
        journal.record(1, IncidentKind::Retire, 9_000, 2048, 0b1001);
        journal.record(2, IncidentKind::Respawn, 9_000, 6144, 1);
        let (events, dropped) = journal.snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(journal.recorded(), 6);
        assert_eq!(events.len(), 6);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        let retire = &events[4];
        assert_eq!(retire.shard, 1);
        assert_eq!(retire.kind, IncidentKind::Retire);
        assert_eq!(retire.sim_ns, 9_000);
        assert_eq!(retire.at_bytes, 2048);
        assert_eq!(retire.detail, 0b1001);
        let respawn = &events[5];
        assert_eq!(respawn.kind, IncidentKind::Respawn);
        assert_eq!(respawn.detail, 1, "supersedes shard 1");
    }

    #[test]
    fn bounded_ring_evicts_oldest_but_counts_everything() {
        let journal = Journal::new(8);
        assert_eq!(journal.capacity(), 8);
        for i in 0..20u64 {
            journal.record(0, IncidentKind::Alarm, i, i, 0);
        }
        let (events, dropped) = journal.snapshot();
        assert_eq!(journal.recorded(), 20, "evictions must stay countable");
        assert_eq!(dropped, 12);
        assert_eq!(events.len(), 8);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            (12..20).collect::<Vec<_>>(),
            "the retained window is the newest events, oldest first"
        );
    }

    #[test]
    fn capacity_is_floored_and_rounded() {
        assert_eq!(Journal::new(0).capacity(), 8);
        assert_eq!(Journal::new(9).capacity(), 16);
        assert_eq!(Journal::new(64).capacity(), 64);
    }

    #[test]
    fn concurrent_recorders_never_tear_a_snapshot() {
        use std::sync::Arc;
        let journal = Arc::new(Journal::new(64));
        let writers: Vec<_> = (0..4)
            .map(|shard| {
                let j = Arc::clone(&journal);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        j.record(shard, IncidentKind::Alarm, i * 10, i, shard as u64);
                    }
                })
            })
            .collect();
        // Snapshot while writers run: every returned event must be
        // internally consistent (detail always equals the shard id).
        for _ in 0..200 {
            let (events, _) = journal.snapshot();
            for e in &events {
                assert_eq!(e.detail, e.shard as u64, "torn event {e}");
                assert_eq!(e.kind, IncidentKind::Alarm);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(journal.recorded(), 2000);
        let (events, dropped) = journal.snapshot();
        assert_eq!(events.len(), 64);
        assert_eq!(dropped, 2000 - 64);
    }

    #[test]
    fn wraparound_preserves_payloads_and_eviction_order() {
        // Fill well past capacity with distinguishable payloads and
        // check the retained window carries exactly the newest events,
        // oldest first, each with its own (untorn) payload.
        let journal = Journal::new(16);
        let cap = journal.capacity() as u64;
        let total = 5 * cap + 3; // lands mid-ring, not on a boundary
        for i in 0..total {
            journal.record(
                (i % 7) as usize,
                IncidentKind::from_u8((i % 7) as u8),
                i * 1000,
                i * 64,
                i ^ 0xABCD,
            );
        }
        let (events, dropped) = journal.snapshot();
        assert_eq!(journal.recorded(), total);
        assert_eq!(dropped, total - cap, "eviction count must be exact");
        assert_eq!(events.len(), cap as usize);
        for (offset, e) in events.iter().enumerate() {
            let i = dropped + offset as u64;
            assert_eq!(e.seq, i, "retained window must be gap-free");
            assert_eq!(e.shard, (i % 7) as usize);
            assert_eq!(e.kind, IncidentKind::from_u8((i % 7) as u8));
            assert_eq!(e.sim_ns, i * 1000);
            assert_eq!(e.at_bytes, i * 64);
            assert_eq!(e.detail, i ^ 0xABCD);
        }
    }

    #[test]
    fn snapshot_stays_consistent_under_a_lapping_writer() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // A tiny ring and a writer that laps it continuously: every
        // snapshot must return internally consistent events (payload
        // fields derived from the sequence number must agree) in
        // strictly increasing seq order within the retained window.
        let journal = Arc::new(Journal::new(8));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let j = Arc::clone(&journal);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    j.record(0, IncidentKind::Alarm, i, i * 2, i * 3);
                    i += 1;
                }
            })
        };
        for _ in 0..2000 {
            let (events, dropped) = journal.snapshot();
            assert!(dropped <= journal.recorded());
            let mut last_seq = None;
            for e in &events {
                assert_eq!(e.at_bytes, e.sim_ns * 2, "torn event {e}");
                assert_eq!(e.detail, e.sim_ns * 3, "torn event {e}");
                if let Some(prev) = last_seq {
                    assert!(e.seq > prev, "snapshot out of order");
                }
                last_seq = Some(e.seq);
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn json_form_matches_event_field_for_field() {
        let event = IncidentEvent {
            seq: 7,
            shard: 3,
            kind: IncidentKind::Respawn,
            sim_ns: 123_456,
            at_bytes: 8192,
            detail: 1,
        };
        let json = event.to_json();
        let f = |k: &str| json.get(k).and_then(Json::as_f64).expect(k);
        assert_eq!(f("seq"), 7.0);
        assert_eq!(f("shard"), 3.0);
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("respawn"));
        assert_eq!(f("sim_ns"), 123_456.0);
        assert_eq!(f("at_bytes"), 8192.0);
        assert_eq!(f("detail"), 1.0);
        let text = event.to_string();
        assert!(
            text.contains("shard 3") && text.contains("respawn"),
            "{text}"
        );
    }
}
