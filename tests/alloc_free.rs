//! Zero-allocation assertion for the steady-state sampling hot path.
//!
//! This binary installs [`trng_testkit::alloc_counter::CountingAllocator`]
//! as the global allocator, so it must stay a *dedicated* test target:
//! any other test running in the same process would pollute the
//! counter. After warm-up (edge-train buffers reach their pruned
//! steady-state capacity), `fill_raw` must perform no heap allocation
//! at all. The tests below also take [`SERIAL`] for their whole body,
//! so one test's set-up never lands in another's measured window.

use std::sync::Mutex;

use trng_core::trng::{CarryChainTrng, TrngConfig};
use trng_fpga_sim::noise::NoiseBackend;
use trng_testkit::alloc_counter::{allocation_count, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Held by each test for its whole body: the counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// The paper's design on the scalar engine, whose oscillator and
/// per-tap sampler the first two cases hold to zero allocations.
fn scalar() -> TrngConfig {
    TrngConfig::paper_k1().with_noise_backend(NoiseBackend::Scalar)
}

#[test]
fn steady_state_fill_raw_does_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut trng = CarryChainTrng::new(scalar(), 0xA110C).expect("build");
    let mut buf = [0u8; 256];

    // Warm up: let the scalar ring-oscillator edge trains grow to
    // their steady-state capacity and the pruning cadence settle.
    for _ in 0..8 {
        trng.fill_raw(&mut buf);
    }

    let before = allocation_count();
    trng.fill_raw(&mut buf);
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "steady-state fill_raw allocated {} times for {} bytes",
        after - before,
        buf.len()
    );
    // The buffer actually got entropy (all-zero is p ~ 2^-2048).
    assert!(buf.iter().any(|&b| b != 0));
}

#[test]
fn steady_state_fill_postprocessed_does_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut trng = CarryChainTrng::new(scalar(), 0xA110D).expect("build");
    let mut buf = [0u8; 64];
    for _ in 0..8 {
        trng.fill_postprocessed(&mut buf);
    }

    let before = allocation_count();
    trng.fill_postprocessed(&mut buf);
    assert_eq!(allocation_count() - before, 0);
}

#[test]
fn steady_state_batched_fill_raw_does_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The batched engine keeps fixed-size per-node windows and the
    // block ziggurat reuses its scratch, so once warm no refill of the
    // normal buffer may touch the heap. 1 KiB is 8192 samples, a few
    // dozen 1024-normal refills.
    let config = TrngConfig::paper_k1().with_noise_backend(NoiseBackend::Batched);
    let mut trng = CarryChainTrng::new(config, 0xA110E).expect("build");
    assert_eq!(trng.active_noise_backend(), NoiseBackend::Batched);
    let mut buf = [0u8; 1024];
    for _ in 0..8 {
        trng.fill_raw(&mut buf);
    }

    let before = allocation_count();
    trng.fill_raw(&mut buf);
    let allocations = allocation_count() - before;
    assert_eq!(
        allocations,
        0,
        "steady-state batched fill_raw allocated {allocations} times for {} bytes",
        buf.len()
    );
    assert!(buf.iter().any(|&b| b != 0));
}
