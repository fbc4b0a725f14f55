//! The start-up self-test runs on the word path
//! (`trng_core::selftest::run_startup`); this file keeps the
//! bit-at-a-time loop it replaced as the oracle and demands the two
//! agree on every backend, healthy or failing: the same report, the
//! same gate and compressor state afterwards, and the same stream
//! position.

use std::sync::Arc;

use trng_core::health::{HealthStatus, OnlineHealth};
use trng_core::postprocess::XorCompressor;
use trng_core::selftest::{
    claimed_min_entropy, run_startup, StartupReport, StartupSource, STARTUP_BITS,
};
use trng_core::trng::{CarryChainTrng, TrngConfig};
use trng_fpga_sim::noise::NoiseBackend;
use trng_pool::testing::dead_config;
use trng_sources::{
    run_source_startup, CarryChainSource, DualOscConfig, DualOscillatorSource, EntropySource,
    OsEntropySource, RecordedTrace, SourceFault, TraceReplaySource,
};

/// The start-up test one raw bit at a time: every bit through the
/// per-bit gate and compressor, the monobit count and longest run
/// tallied per output bit.
fn per_bit_startup<S: StartupSource + ?Sized>(
    source: &mut S,
    health: &mut OnlineHealth,
    compressor: &mut XorCompressor,
) -> StartupReport {
    let (samples_before, missed_before) = source.capture_counts();
    let mut collected = 0usize;
    let mut ones = 0usize;
    let mut longest_run = 0usize;
    let mut run = 0usize;
    let mut prev = None;
    while collected < STARTUP_BITS {
        let raw = source.next_raw_bit();
        let _ = health.push(raw);
        if let Some(bit) = compressor.push(raw) {
            ones += usize::from(bit);
            if prev == Some(bit) {
                run += 1;
            } else {
                run = 1;
                prev = Some(bit);
            }
            longest_run = longest_run.max(run);
            collected += 1;
        }
    }
    let (samples_after, missed_after) = source.capture_counts();
    let samples = samples_after - samples_before;
    let missed = missed_after - missed_before;
    let missed_rate = if samples == 0 {
        0.0
    } else {
        missed as f64 / samples as f64
    };
    StartupReport {
        ones,
        longest_run,
        monobit_ok: (899..=1149).contains(&ones),
        long_run_ok: longest_run < 34,
        missed_edge_ok: missed_rate < 0.01 || samples < 1000,
        online_ok: health.status() == HealthStatus::Ok,
    }
}

/// Offset of the first bit of a fixed follow-up stream at which `health`
/// alarms: 0xEE bytes never repeat a bit four times but are 75 % ones,
/// so the adaptive proportion test trips at a point that depends on
/// where its window stood after start-up.
fn first_alarm_on_follow_up(mut health: OnlineHealth) -> Option<usize> {
    (0..2048 * 8).find(|&i| health.push(0xEEu8 >> (7 - i % 8) & 1 == 1) == HealthStatus::Alarm)
}

/// One start-up run's observable outcome.
#[derive(Debug, PartialEq)]
struct Outcome {
    report: StartupReport,
    health: OnlineHealth,
    compressor: XorCompressor,
    follow_up_alarm: Option<usize>,
    /// The source's progress counters after the run.
    progress: Vec<u64>,
}

/// Runs `word_path` on one fresh source and the per-bit oracle on a
/// twin, from a compressor pre-fed with `lead_in` raw bits, and demands
/// identical outcomes. Returns the report.
fn assert_matches_oracle<S: StartupSource + ?Sized>(
    case: &str,
    make: impl Fn() -> Box<S>,
    claim: f64,
    rate: u32,
    lead_in: &[bool],
    word_path: impl Fn(&mut S, &mut OnlineHealth, &mut XorCompressor) -> StartupReport,
    progress: impl Fn(&S) -> Vec<u64>,
) -> StartupReport {
    let run = |via_words: bool| {
        let mut source = make();
        let mut health = OnlineHealth::new(claim);
        let mut compressor = XorCompressor::new(rate);
        for &bit in lead_in {
            let _ = compressor.push(bit);
        }
        let report = if via_words {
            word_path(&mut source, &mut health, &mut compressor)
        } else {
            per_bit_startup(source.as_mut(), &mut health, &mut compressor)
        };
        Outcome {
            report,
            health,
            compressor,
            follow_up_alarm: first_alarm_on_follow_up(health),
            progress: progress(&source),
        }
    };
    let word = run(true);
    let oracle = run(false);
    assert_eq!(word, oracle, "{case}: word path diverged from the oracle");
    assert_eq!(
        word.report.failure_mask(),
        oracle.report.failure_mask(),
        "{case}"
    );
    word.report
}

/// `run_source_startup` on a boxed backend.
fn source_startup(
    source: &mut (dyn EntropySource + 'static),
    health: &mut OnlineHealth,
    compressor: &mut XorCompressor,
) -> StartupReport {
    run_source_startup(source, health, compressor)
}

/// The source-generic path on one backend built by `make`.
fn check_source(
    case: &str,
    make: impl Fn() -> Box<dyn EntropySource>,
    lead_in: &[bool],
) -> StartupReport {
    let probe = make();
    let (claim, rate) = (probe.claimed_min_entropy(), probe.native_xor_rate());
    assert_matches_oracle(
        case,
        make,
        claim,
        rate,
        lead_in,
        source_startup,
        |s: &(dyn EntropySource + 'static)| {
            let stats = s.capture_stats();
            vec![
                s.raw_bits(),
                s.sim_now_ns(),
                stats.samples,
                stats.missed_edges,
            ]
        },
    )
}

/// The carry-chain path (`run_startup`) on the bare generator.
fn check_carry_chain(case: &str, config: &TrngConfig, seed: u64) -> StartupReport {
    let claim = claimed_min_entropy(config).expect("valid");
    assert_matches_oracle(
        case,
        || Box::new(CarryChainTrng::new(config.clone(), seed).expect("build")),
        claim,
        config.design.np,
        &[],
        run_startup,
        |t: &CarryChainTrng| {
            let s = t.stats();
            vec![
                s.samples,
                s.missed_edges,
                s.regular,
                s.double_edge,
                s.bubbled,
                t.now().as_ps() as u64,
            ]
        },
    )
}

fn carry_chain(config: TrngConfig, seed: u64) -> impl Fn() -> Box<dyn EntropySource> {
    move || Box::new(CarryChainSource::new(config.clone(), seed).expect("build"))
}

#[test]
fn carry_chain_matches_the_oracle_on_both_engines() {
    for backend in [NoiseBackend::Scalar, NoiseBackend::Batched] {
        let config = TrngConfig::paper_k1().with_noise_backend(backend);
        let report = check_carry_chain(&format!("{backend:?} k1"), &config, 7);
        assert!(report.passed(), "{backend:?}: {report}");
        let report = check_source(
            &format!("{backend:?} k1 source"),
            carry_chain(config, 7),
            &[],
        );
        assert!(report.passed(), "{backend:?}: {report}");
        let k4 = TrngConfig::paper_k4().with_noise_backend(backend);
        check_carry_chain(&format!("{backend:?} k4"), &k4, 11);
    }
}

#[test]
fn other_backends_match_the_oracle() {
    let dual = check_source(
        "dual oscillator",
        || Box::new(DualOscillatorSource::new(DualOscConfig::default(), 3).expect("build")),
        &[],
    );
    assert!(dual.passed(), "{dual}");
    let trace = Arc::new(RecordedTrace::record(&TrngConfig::paper_k1(), 5, 4096).expect("record"));
    let replay = check_source(
        "trace replay",
        || Box::new(TraceReplaySource::new(Arc::clone(&trace)).expect("replay")),
        &[],
    );
    assert!(replay.passed(), "{replay}");
    let os = check_source(
        "seeded OS stand-in",
        || Box::new(OsEntropySource::seeded(9)),
        &[],
    );
    assert!(os.passed(), "{os}");
}

#[test]
fn a_compressor_handed_over_mid_group_matches_the_oracle() {
    // Three raw bits already pending in a rate-7 compressor: the demand
    // ends off a byte boundary, so the word path draws a short head one
    // bit at a time.
    let config = TrngConfig::paper_k1();
    check_source(
        "3 bits pending",
        carry_chain(config.clone(), 2),
        &[true, false, true],
    );
    check_source("6 bits pending", carry_chain(config, 3), &[false; 6]);
}

#[test]
fn failing_sources_fail_identically() {
    let dead = check_carry_chain("dead config", &dead_config(), 2);
    assert!(!dead.passed(), "{dead}");
    let dead = check_source("dead config source", carry_chain(dead_config(), 2), &[]);
    assert!(!dead.passed(), "{dead}");

    let stuck_carry_chain = || {
        let mut source = carry_chain(TrngConfig::paper_k1(), 6)();
        source.rebuild(Some(&SourceFault::Stuck)).expect("stuck");
        source
    };
    let report = check_source("stuck carry chain", stuck_carry_chain, &[]);
    assert!(!report.passed(), "{report}");
    let stuck_os = || -> Box<dyn EntropySource> {
        let mut source = OsEntropySource::seeded(6);
        source.rebuild(Some(&SourceFault::Stuck)).expect("stuck");
        Box::new(source)
    };
    let report = check_source("stuck OS stand-in", stuck_os, &[]);
    assert!(!report.passed(), "{report}");

    // A trace whose bytes gained a set bit wherever either of the next
    // two bits had one: about 87 % ones, past the proportion cutoff of
    // the recorded claim.
    let mut biased = RecordedTrace::record(&TrngConfig::paper_k1(), 8, 4096).expect("record");
    for b in &mut biased.bytes {
        *b |= b.rotate_left(1) | b.rotate_left(2);
    }
    let biased = Arc::new(biased);
    let report = check_source(
        "biased trace",
        || Box::new(TraceReplaySource::new(Arc::clone(&biased)).expect("replay")),
        &[],
    );
    assert!(!report.passed(), "{report}");
}
