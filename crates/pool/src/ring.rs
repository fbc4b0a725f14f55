//! Bounded lock-free single-producer/single-consumer byte ring.
//!
//! Each pool shard owns the producer end of one ring; the pool handle
//! owns all consumer ends. The SPSC discipline keeps the fast path
//! wait-free on both sides without unsafe code: slots are `AtomicU8`
//! and the head/tail counters are monotonically increasing `usize`
//! positions (index = position masked by the power-of-two capacity),
//! so "full" and "empty" are unambiguous without a sacrificial slot.
//!
//! Memory ordering: the producer publishes slot writes with a
//! `Release` store of `head`; the consumer `Acquire`-loads `head`
//! before reading slots, and symmetrically publishes consumed space
//! with a `Release` store of `tail`.
//!
//! Waiting: a side that finds the ring full (producer) or empty
//! (consumer) parks its thread with a timeout instead of sleeping. It
//! first *arms* its parker — records its thread and raises a
//! `parked` flag — then re-checks the ring, and only then parks. The
//! other side unparks it after every `push`/`pop` that finds the flag
//! raised. A `SeqCst` fence sits between the flag store and the
//! re-check on one side and between the `head`/`tail` store and the
//! flag load on the other, so at least one of them sees the other's
//! write: either the waiter sees the new bytes (or space) and does not
//! park, or the other side sees the flag and unparks it. The timeout
//! bounds what a wakeup lost anyway (a bug, or a dropped peer) can
//! cost.

use std::sync::atomic::{fence, AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, Thread};
use std::time::Duration;

/// Smallest capacity a ring will be created with.
pub const MIN_RING_CAPACITY: usize = 64;

#[derive(Debug)]
struct Shared {
    slots: Box<[AtomicU8]>,
    mask: usize,
    /// Next write position (owned by the producer).
    head: AtomicUsize,
    /// Next read position (owned by the consumer).
    tail: AtomicUsize,
    /// Highest occupancy ever observed by the producer.
    high_water: AtomicUsize,
    /// Where the producer waits for space.
    writer: Parker,
    /// Where the consumer waits for bytes.
    reader: Parker,
}

/// One side's parking spot.
#[derive(Debug, Default)]
struct Parker {
    parked: AtomicBool,
    /// The thread to unpark; the consumer end can move between
    /// threads, so it is re-recorded on every arm.
    thread: Mutex<Option<Thread>>,
}

impl Parker {
    /// Announces the calling thread as about to park. The caller must
    /// issue a `SeqCst` fence and re-check the ring before parking.
    fn arm(&self) {
        *self.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(thread::current());
        self.parked.store(true, Ordering::Relaxed);
    }

    fn disarm(&self) {
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Unparks the armed thread, if any. Called after publishing a
    /// `head`/`tail` move.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) && self.parked.swap(false, Ordering::Relaxed) {
            if let Some(waiter) = &*self.thread.lock().unwrap_or_else(PoisonError::into_inner) {
                waiter.unpark();
            }
        }
    }
}

/// Producer end: exactly one per ring, held by the shard.
#[derive(Debug)]
pub struct Producer {
    shared: Arc<Shared>,
}

/// Consumer end: exactly one per ring, held by the pool handle.
#[derive(Debug)]
pub struct Consumer {
    shared: Arc<Shared>,
}

/// Creates a ring with at least `capacity` bytes of buffer (rounded up
/// to a power of two, floored at [`MIN_RING_CAPACITY`]).
pub fn ring(capacity: usize) -> (Producer, Consumer) {
    let cap = capacity.max(MIN_RING_CAPACITY).next_power_of_two();
    let shared = Arc::new(Shared {
        slots: (0..cap).map(|_| AtomicU8::new(0)).collect(),
        mask: cap - 1,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        high_water: AtomicUsize::new(0),
        writer: Parker::default(),
        reader: Parker::default(),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
        },
        Consumer { shared },
    )
}

impl Producer {
    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Bytes of free space (may race stale low, never high).
    pub fn free(&self) -> usize {
        let head = self.shared.head.load(Ordering::Relaxed);
        let tail = self.shared.tail.load(Ordering::Acquire);
        self.capacity() - head.wrapping_sub(tail)
    }

    /// Appends as much of `bytes` as fits; returns the count written.
    pub fn push(&self, bytes: &[u8]) -> usize {
        let head = self.shared.head.load(Ordering::Relaxed);
        let tail = self.shared.tail.load(Ordering::Acquire);
        let used = head.wrapping_sub(tail);
        let n = bytes.len().min(self.capacity() - used);
        for (i, &b) in bytes[..n].iter().enumerate() {
            self.shared.slots[head.wrapping_add(i) & self.shared.mask].store(b, Ordering::Relaxed);
        }
        self.shared
            .head
            .store(head.wrapping_add(n), Ordering::Release);
        let occupancy = used + n;
        self.shared
            .high_water
            .fetch_max(occupancy, Ordering::Relaxed);
        if n > 0 {
            self.shared.reader.wake();
        }
        n
    }

    /// Parks the calling thread until the ring has free space, a pop
    /// wakes it, or `timeout` passes. Returns at once when there is
    /// space already.
    pub fn wait_writable(&self, timeout: Duration) {
        let parker = &self.shared.writer;
        parker.arm();
        fence(Ordering::SeqCst);
        if self.free() == 0 {
            thread::park_timeout(timeout);
        }
        parker.disarm();
    }
}

impl Consumer {
    /// Bytes currently readable (may race stale low, never high).
    pub fn len(&self) -> usize {
        let head = self.shared.head.load(Ordering::Acquire);
        let tail = self.shared.tail.load(Ordering::Relaxed);
        head.wrapping_sub(tail)
    }

    /// `true` when no bytes are readable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops up to `out.len()` bytes into `out`; returns the count read.
    pub fn pop(&self, out: &mut [u8]) -> usize {
        let head = self.shared.head.load(Ordering::Acquire);
        let tail = self.shared.tail.load(Ordering::Relaxed);
        let n = out.len().min(head.wrapping_sub(tail));
        for (i, slot) in out[..n].iter_mut().enumerate() {
            *slot =
                self.shared.slots[tail.wrapping_add(i) & self.shared.mask].load(Ordering::Relaxed);
        }
        self.shared
            .tail
            .store(tail.wrapping_add(n), Ordering::Release);
        if n > 0 {
            self.shared.writer.wake();
        }
        n
    }

    /// Highest occupancy the producer ever observed.
    pub fn high_water(&self) -> usize {
        self.shared.high_water.load(Ordering::Relaxed)
    }
}

/// Parks the calling thread until any of `consumers` has bytes, a
/// push into one of them wakes it, or `timeout` passes. Returns at
/// once when bytes are already readable.
pub fn wait_readable(consumers: &[Consumer], timeout: Duration) {
    for c in consumers {
        c.shared.reader.arm();
    }
    fence(Ordering::SeqCst);
    if consumers.iter().all(Consumer::is_empty) {
        thread::park_timeout(timeout);
    }
    for c in consumers {
        c.shared.reader.disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_across_wraparound() {
        let (p, c) = ring(64);
        assert_eq!(p.capacity(), 64);
        let mut out = [0u8; 48];
        // Push/pop more than capacity in total to exercise wraparound.
        for round in 0..10u32 {
            let data: Vec<u8> = (0..48).map(|i| (round * 48 + i) as u8).collect();
            assert_eq!(p.push(&data), 48);
            assert_eq!(c.pop(&mut out), 48);
            assert_eq!(out[..], data[..], "round {round}");
        }
    }

    #[test]
    fn rejects_overflow_and_underflow() {
        let (p, c) = ring(64);
        let data = [7u8; 100];
        assert_eq!(p.push(&data), 64); // only capacity fits
        assert_eq!(p.push(&data), 0); // full
        assert_eq!(p.free(), 0);
        let mut out = [0u8; 100];
        assert_eq!(c.pop(&mut out), 64);
        assert!(out[..64].iter().all(|&b| b == 7));
        assert_eq!(c.pop(&mut out), 0); // empty
        assert!(c.is_empty());
    }

    #[test]
    fn partial_push_preserves_order() {
        let (p, c) = ring(64);
        assert_eq!(p.push(&[1; 40]), 40);
        assert_eq!(p.push(&[2; 40]), 24); // only 24 fit
        let mut out = [0u8; 64];
        assert_eq!(c.pop(&mut out), 64);
        assert!(out[..40].iter().all(|&b| b == 1));
        assert!(out[40..].iter().all(|&b| b == 2));
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let (p, c) = ring(64);
        let _ = p.push(&[0; 10]);
        let mut out = [0u8; 8];
        let _ = c.pop(&mut out);
        let _ = p.push(&[0; 30]);
        assert_eq!(c.high_water(), 32); // 2 leftover + 30
    }

    #[test]
    fn capacity_is_rounded_up() {
        let (p, _c) = ring(100);
        assert_eq!(p.capacity(), 128);
        let (p, _c) = ring(0);
        assert_eq!(p.capacity(), MIN_RING_CAPACITY);
    }

    #[test]
    fn concurrent_stream_is_unchanged() {
        // One producer thread streaming a known sequence, the consumer
        // on the main thread: every byte must arrive exactly once and
        // in order.
        const TOTAL: usize = 1 << 18;
        let (p, c) = ring(256);
        let producer = std::thread::spawn(move || {
            let mut sent = 0usize;
            while sent < TOTAL {
                let chunk: Vec<u8> = (sent..(sent + 64).min(TOTAL))
                    .map(|i| (i % 251) as u8)
                    .collect();
                let mut off = 0;
                while off < chunk.len() {
                    let n = p.push(&chunk[off..]);
                    off += n;
                    if n == 0 {
                        std::thread::yield_now();
                    }
                }
                sent += chunk.len();
            }
        });
        let mut received = 0usize;
        let mut buf = [0u8; 97]; // deliberately co-prime with the chunking
        while received < TOTAL {
            let n = c.pop(&mut buf);
            for &b in &buf[..n] {
                assert_eq!(b, (received % 251) as u8, "at byte {received}");
                received += 1;
            }
            if n == 0 {
                std::thread::yield_now();
            }
        }
        producer.join().expect("producer");
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn parked_sides_never_lose_a_wakeup() {
        // The concurrent stream again, but both sides park on a 1 s
        // timeout whenever they cannot make progress. A lost wakeup
        // costs a whole timeout, so every park must return well inside
        // it; the loose total bound only catches a stream that crawls
        // from park to park (it leaves room for debug builds and a
        // loaded host).
        const TOTAL: usize = 1 << 20;
        let timeout = std::time::Duration::from_secs(1);
        let park = move |wait: &dyn Fn()| {
            let t = std::time::Instant::now();
            wait();
            assert!(
                t.elapsed() < timeout / 2,
                "parked {:?}: lost wakeup",
                t.elapsed()
            );
        };
        let (p, c) = ring(256);
        let start = std::time::Instant::now();
        let producer = std::thread::spawn(move || {
            let mut sent = 0usize;
            while sent < TOTAL {
                let chunk: Vec<u8> = (sent..(sent + 64).min(TOTAL))
                    .map(|i| (i % 251) as u8)
                    .collect();
                let mut off = 0;
                while off < chunk.len() {
                    let n = p.push(&chunk[off..]);
                    off += n;
                    if n == 0 {
                        park(&|| p.wait_writable(timeout));
                    }
                }
                sent += chunk.len();
            }
        });
        let consumers = [c];
        let mut received = 0usize;
        let mut buf = [0u8; 97];
        while received < TOTAL {
            let n = consumers[0].pop(&mut buf);
            for &b in &buf[..n] {
                assert_eq!(b, (received % 251) as u8, "at byte {received}");
                received += 1;
            }
            if n == 0 {
                park(&|| wait_readable(&consumers, timeout));
            }
        }
        producer.join().expect("producer");
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "1 MiB took {elapsed:?}"
        );
    }

    #[test]
    fn producer_parked_on_a_full_ring_resumes_after_a_pop() {
        let (p, c) = ring(64);
        assert_eq!(p.push(&[1; 64]), 64);
        let producer = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            while p.push(&[2]) == 0 {
                p.wait_writable(std::time::Duration::from_secs(30));
            }
            start.elapsed()
        });
        // Pop only once the producer has found the ring full and armed
        // its parker.
        while !c.shared.writer.parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let mut out = [0u8; 1];
        assert_eq!(c.pop(&mut out), 1);
        let waited = producer.join().expect("producer");
        assert!(
            waited < std::time::Duration::from_secs(5),
            "producer slept {waited:?} instead of waking on the pop"
        );
        assert_eq!(c.len(), 64);
    }
}
