//! The traced run: the per-layer ledger.
//!
//! Shard work happens on worker threads the benchmark cannot see into,
//! so the ledger times each layer's public call from outside:
//!
//! 1. the workload's own stack, untraced then traced, for
//!    `trace.overhead_pct` and the pool's and daemon's counters;
//! 2. a single-threaded replica of the shard stack built from the same
//!    public calls (`sources.fill_raw` → `health.push` → conditioning),
//!    spanned per chunk;
//! 3. probes of the layers below and beside that stack — the noise
//!    engine, `CarryChainTrng::fill_raw`, whichever conditioner the
//!    workload does not use, and the start-up self-test;
//! 4. `pool.fill_bytes`, `handle.fill_bytes` and `serve.fetch` at the
//!    workload's request size on a fresh stack.
//!
//! Per-layer figures are span self times divided by the work the spans
//! processed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use trng_core::health::{HealthStatus, OnlineHealth};
use trng_core::postprocess::XorCompressor;
use trng_core::trng::{CarryChainTrng, TrngConfig};
use trng_extract::{leftover_hash_ratio, ToeplitzExtractor};
use trng_fpga_sim::batch::BatchedRingEngine;
use trng_fpga_sim::delay_line::TappedDelayLine;
use trng_fpga_sim::noise::{NoiseBackend, NoiseConfig};
use trng_fpga_sim::placement::TrngPlacement;
use trng_fpga_sim::primitives::CaptureFf;
use trng_fpga_sim::ring_oscillator::RingOscillatorConfig;
use trng_fpga_sim::rng::SimRng;
use trng_fpga_sim::time::Ps;
use trng_pool::{Conditioning, EntropyPool, PoolError, ShardState};
use trng_serve::{ServeStats, Server};
use trng_sources::{mix_seed, run_source_startup};

use crate::metrics::{Metric, Outcome};
use crate::span::{LayerTotal, Recorder};
use crate::stats::median;
use crate::workload::{
    check_gates, check_session, serve_config, sim_mbps, Inputs, Session, Stack, Tally, EPSILON_LOG2,
};

/// Every per-layer metric the traced run reports, with its unit.
pub const LAYER_METRICS: [(&str, &str); 28] = [
    ("fpga_sim.noise_ns_per_raw_bit", "ns"),
    ("core.fill_raw_ns_per_raw_bit", "ns"),
    ("core.sample_ns_per_raw_bit", "ns"),
    ("sources.fill_raw_ns_per_raw_bit", "ns"),
    ("sources.startup_ms", "ms"),
    ("health.ns_per_raw_bit", "ns"),
    ("health.alarms", "count"),
    ("health.alarms_per_mbit", "1/Mbit"),
    ("postprocess.ns_per_raw_bit", "ns"),
    ("extract.ns_per_raw_bit", "ns"),
    ("stack.ns_per_raw_bit", "ns"),
    ("pool.fill_ns_per_output_bit", "ns"),
    ("pool.overhead_ns_per_output_bit", "ns"),
    ("pool.refill_wait_max_ms", "ms"),
    ("pool.ring_high_water_bytes", "bytes"),
    ("pool.raw_bits_per_delivered_bit", "ratio"),
    ("pool.readmissions", "count"),
    ("pool.retired", "count"),
    ("handle.overhead_ns_per_request", "ns"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.latency_max_ms", "ms"),
    ("serve.requests_ok", "count"),
    ("serve.requests_timeout", "count"),
    ("serve.requests_exhausted", "count"),
    ("serve.requests_rejected", "count"),
    ("serve.shed", "count"),
    ("trace.overhead_pct", "%"),
    ("sim_mbps", "Mb/s"),
];

/// Start-up self-tests timed per run; `sources.startup_ms` is their
/// median.
const STARTUP_REPS: u64 = 5;

/// Empty-request batches timed on the pool and on its handle. An empty
/// request never waits for the source, so the difference is the
/// handle's own cost (lock plus call) per request.
const CALL_BATCHES: u64 = 200;
/// Empty requests per timed batch.
const CALLS_PER_BATCH: u64 = 1000;

/// How long the daemon sits idle before the ledger's clients connect.
const DAEMON_IDLE: Duration = Duration::from_millis(5);

/// Alternating untraced/traced slices of the workload's own stack.
const TRACE_SLICES: u32 = 4;

/// Raw bytes per replica chunk: about a millisecond of work per span
/// on either source, so span overhead stays far below 1 %.
fn chunk_bytes(inputs: &Inputs) -> usize {
    if inputs.trace.is_some() {
        4096
    } else {
        512
    }
}

/// A conditioning stage plus the MSB-first byte packing the shard
/// applies to its output bits.
enum Stage {
    Xor(XorCompressor),
    Toeplitz(ToeplitzExtractor),
    Raw,
}

impl Stage {
    fn of(conditioning: Conditioning, np: u32) -> Self {
        match conditioning {
            Conditioning::Toeplitz { ratio, seed } => Stage::toeplitz(ratio, seed),
            Conditioning::Raw => Stage::Raw,
            _ => Stage::Xor(XorCompressor::new(np)),
        }
    }

    fn toeplitz(ratio: u32, seed: u64) -> Self {
        Stage::Toeplitz(ToeplitzExtractor::from_seed(64, ratio as usize * 64, seed))
    }

    fn span_name(&self) -> &'static str {
        match self {
            Stage::Xor(_) => "postprocess.push",
            Stage::Toeplitz(_) => "extract.push",
            Stage::Raw => "raw.pack",
        }
    }

    /// Conditions every bit of `raw` (MSB first) and packs the output
    /// bits into `out`.
    fn absorb(&mut self, raw: &[u8], out: &mut Vec<u8>) {
        let mut byte = 0u8;
        let mut nbits = 0u32;
        let mut emit = |bit: bool| {
            byte = byte << 1 | u8::from(bit);
            nbits += 1;
            if nbits == 8 {
                out.push(byte);
                nbits = 0;
            }
        };
        for &b in raw {
            for k in (0..8).rev() {
                let bit = b >> k & 1 == 1;
                match self {
                    Stage::Xor(c) => {
                        if let Some(y) = c.push(bit) {
                            emit(y);
                        }
                    }
                    Stage::Toeplitz(t) => {
                        if let Some(word) = t.push(bit) {
                            for i in 0..64 {
                                emit(word >> i & 1 == 1);
                            }
                        }
                    }
                    Stage::Raw => emit(bit),
                }
            }
        }
    }
}

/// The batched noise engine of one carry-chain instance, built from
/// the same public pieces `CarryChainTrng::new` uses, advanced one
/// accumulation window per raw bit. The engine fuses edge synthesis
/// with tap sampling; it has no noise-only public call.
struct NoiseProbe {
    engine: BatchedRingEngine,
    coins: SimRng,
    words: Vec<u64>,
    t: Ps,
    t_a: Ps,
}

impl NoiseProbe {
    fn new(config: &TrngConfig, seed: u64) -> Result<Self, String> {
        let (n, m) = (config.design.n, config.design.m);
        let tstep = Ps::from_ps(config.platform.tstep_ps);
        let placement =
            TrngPlacement::auto(&config.fabric, n, m, config.start_column, config.first_row)
                .map_err(|e| e.to_string())?;
        let mut noise = NoiseConfig::white_only(Ps::from_ps(config.platform.sigma_lut_ps));
        noise.flicker = config.flicker;
        noise.global = config.global.clone();
        noise.attack = config.attack;
        let site = placement.oscillator_site(0);
        let ring = RingOscillatorConfig {
            stages: n,
            stage_delay: Ps::from_ps(config.platform.d0_lut_ps),
            noise,
            process: config.process,
            device: config.device,
            base_site: (u64::from(site.x), u64::from(site.y)),
            history_window: Ps::from_ps(config.platform.tstep_ps * m as f64 * 2.0 + 500.0),
            backend: NoiseBackend::Batched,
        };
        let lines: Vec<TappedDelayLine> = (0..n)
            .map(|i| {
                if config.ideal_tdc {
                    return TappedDelayLine::ideal(m, tstep);
                }
                let site = placement.carry4_site(i, 0);
                TappedDelayLine::placed(
                    tstep,
                    config.device,
                    &config.process,
                    &config.fabric,
                    site.x,
                    site.y,
                    placement.carry4s_per_line,
                    CaptureFf::new(config.meta_window),
                )
            })
            .collect();
        let mut rng = SimRng::seed_from(seed);
        let engine = BatchedRingEngine::new(&ring, &lines, rng.fork())?;
        Ok(NoiseProbe {
            engine,
            coins: rng,
            words: vec![0; n],
            t: Ps::ZERO,
            t_a: Ps::from_ps(config.design.t_a_ps()),
        })
    }

    fn windows(&mut self, count: u64) -> u64 {
        let mut acc = 0;
        for _ in 0..count {
            self.t += self.t_a;
            acc ^= self
                .engine
                .sample_words(self.t, &mut self.coins, &mut self.words);
        }
        acc
    }
}

/// Times each `(name, work)` pair (one chunk of `units` units per call)
/// as root spans, taking turns so slow drift of the host hits every
/// probe alike, until `budget` is spent; one untimed call each first.
fn time_chunks(
    rec: &mut Recorder,
    budget: Duration,
    units: u64,
    probes: &mut [(&'static str, &mut dyn FnMut())],
) {
    for (_, work) in probes.iter_mut() {
        work();
    }
    let deadline = Instant::now() + budget;
    let mut id = 0;
    while Instant::now() < deadline {
        for (name, work) in probes.iter_mut() {
            let start = Instant::now();
            work();
            rec.record(name, None, id, start, Instant::now(), units);
        }
        id += 1;
    }
}

/// The single-threaded replica of the workload's shard stack, spanned
/// per chunk. Returns the replica gate's alarm count.
fn replica(inputs: &Inputs, budget: Duration, rec: &mut Recorder) -> Result<u64, String> {
    let mut source = inputs.source(inputs.source_seed)?;
    let mut health = OnlineHealth::new(source.claimed_min_entropy());
    let mut stage = Stage::of(inputs.conditioning, source.native_xor_rate());
    let mut raw = vec![0u8; chunk_bytes(inputs)];
    let mut out = Vec::with_capacity(raw.len());
    let bits = raw.len() as u64 * 8;
    let mut alarms = 0;
    let deadline = Instant::now() + budget;
    let mut chunk = 0;
    while Instant::now() < deadline {
        let t0 = Instant::now();
        source.fill_raw(&mut raw);
        let t1 = Instant::now();
        for &byte in &raw {
            for k in (0..8).rev() {
                if health.push(byte >> k & 1 == 1) == HealthStatus::Alarm {
                    alarms += 1;
                    health.reset();
                }
            }
        }
        let t2 = Instant::now();
        out.clear();
        stage.absorb(&raw, &mut out);
        black_box(&out);
        let t3 = Instant::now();
        let root = rec.record("stack.chunk", None, chunk, t0, t3, bits);
        rec.record("sources.fill_raw", Some(root), chunk, t0, t1, bits);
        rec.record("health.push", Some(root), chunk, t1, t2, bits);
        rec.record(stage.span_name(), Some(root), chunk, t2, t3, bits);
        chunk += 1;
    }
    Ok(alarms)
}

/// Probes of the simulator layers (on every workload: on the replay
/// workloads they time the generator the trace was recorded with) and
/// of the conditioner the workload does not use, over its raw bits.
fn probes(inputs: &Inputs, budget: Duration, rec: &mut Recorder) -> Result<(), String> {
    let windows = chunk_bytes(inputs) as u64 * 8;

    let mut noise = NoiseProbe::new(&inputs.config, inputs.source_seed)?;
    let mut trng = CarryChainTrng::new(inputs.config.clone(), inputs.source_seed)
        .map_err(|e| e.to_string())?;
    let mut buf = vec![0u8; chunk_bytes(inputs)];
    time_chunks(
        rec,
        budget / 2,
        windows,
        &mut [
            ("fpga_sim.noise", &mut || {
                black_box(noise.windows(windows));
            }),
            ("core.fill_raw", &mut || {
                trng.fill_raw(&mut buf);
                black_box(&buf);
            }),
        ],
    );

    let mut raw = vec![0u8; 4096];
    inputs.source(inputs.source_seed)?.fill_raw(&mut raw);
    let bits = raw.len() as u64 * 8;
    let mut out = Vec::with_capacity(raw.len());
    let np = inputs.config.design.np;
    let toeplitz_ratio = leftover_hash_ratio(inputs.claim, EPSILON_LOG2, 64);
    let mut off_path = Vec::new();
    if !matches!(inputs.conditioning, Conditioning::DesignXor) {
        off_path.push(Stage::Xor(XorCompressor::new(np)));
    }
    if !matches!(inputs.conditioning, Conditioning::Toeplitz { .. }) {
        off_path.push(Stage::toeplitz(toeplitz_ratio, inputs.source_seed));
    }
    let each = budget / 2 / off_path.len() as u32;
    for mut stage in off_path {
        let name = stage.span_name();
        let mut work = || {
            out.clear();
            stage.absorb(&raw, &mut out);
            black_box(&out);
        };
        time_chunks(rec, each, bits, &mut [(name, &mut work)]);
    }
    Ok(())
}

/// Times the start-up self-test on fresh sources of the workload's
/// backend.
fn startup(inputs: &Inputs, rec: &mut Recorder) -> Result<(), String> {
    for rep in 0..STARTUP_REPS {
        let mut source = inputs.source(mix_seed(inputs.source_seed, rep))?;
        let mut health = OnlineHealth::new(source.claimed_min_entropy());
        let mut compressor = XorCompressor::new(source.native_xor_rate());
        let start = Instant::now();
        let report = run_source_startup(source.as_mut(), &mut health, &mut compressor);
        rec.record("sources.startup", None, rep, start, Instant::now(), 1);
        if !report.passed() {
            return Err(format!(
                "start-up self-test failed: {:?}",
                report.failed_checks()
            ));
        }
    }
    Ok(())
}

/// Times [`CALL_BATCHES`] batches of [`CALLS_PER_BATCH`] calls of
/// `call` as root spans named `name`, one unit per call.
fn time_calls(
    rec: &mut Recorder,
    name: &'static str,
    mut call: impl FnMut() -> Result<(), PoolError>,
) -> Result<(), String> {
    for batch in 0..CALL_BATCHES {
        let start = Instant::now();
        for _ in 0..CALLS_PER_BATCH {
            call().map_err(|e| e.to_string())?;
        }
        rec.record(name, None, batch, start, Instant::now(), CALLS_PER_BATCH);
    }
    Ok(())
}

/// Counters summed over every daemon the traced run started.
#[derive(Debug, Default)]
struct ServeTotals {
    ok: u64,
    timeout: u64,
    exhausted: u64,
    rejected: u64,
    shed: u64,
}

impl ServeTotals {
    fn add(&mut self, s: &ServeStats) {
        self.ok += s.requests_ok;
        self.timeout += s.requests_timeout;
        self.exhausted += s.requests_exhausted;
        self.rejected += s.requests_rejected;
        self.shed += s.shed;
    }
}

/// Requests issued and failed across the traced run.
#[derive(Debug, Default)]
struct Requests {
    attempted: u64,
    failed: u64,
}

impl Requests {
    fn add(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
    }
}

/// `pool.fill_bytes`, then `handle.fill_bytes`, then `serve.fetch` at
/// the workload's request size, each for `each`, on one fresh pool.
fn delivery(
    inputs: &Inputs,
    each: Duration,
    warm: Duration,
    rec: &mut Recorder,
    requests: &mut Requests,
    serve: &mut ServeTotals,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let mut pool = EntropyPool::new(inputs.pool_config()).map_err(|e| e.to_string())?;
    pool.wait_online(Duration::from_secs(60))
        .map_err(|e| e.to_string())?;
    let mut delivered = 0;
    let mut phase = |session: &mut Session, rec: &mut Recorder| {
        let (tally, spans) = session.run(each, Some(rec.epoch()));
        requests.add(&tally);
        rec.absorb(spans.expect("traced phase records spans"));
    };

    let mut session = Session::open(Stack::InProcess(pool), inputs)?;
    session.warm_up(warm)?;
    phase(&mut session, rec);
    check_gates(&session, problems);
    delivered += session.delivered;
    let Stack::InProcess(mut pool) = session.into_stack() else {
        unreachable!("opened in process");
    };
    let mut empty = [0u8; 0];
    time_calls(rec, "pool.call", || pool.fill_bytes(&mut empty))?;
    let handle = pool.into_shared();
    time_calls(rec, "handle.call", || handle.fill_bytes(&mut empty))?;

    let mut session = Session::open(Stack::Shared(handle.clone()), inputs)?;
    phase(&mut session, rec);
    check_gates(&session, problems);
    delivered += session.delivered;
    drop(session);

    // Clients connect to a daemon that has sat idle for a moment, as
    // they do in service, so the first fetch shows how long a new
    // connection waits for the acceptor.
    let server = Server::start(handle.clone(), serve_config()).map_err(|e| e.to_string())?;
    std::thread::sleep(DAEMON_IDLE);
    let mut session = Session::open(Stack::Served { handle, server }, inputs)?;
    phase(&mut session, rec);
    delivered += session.delivered;
    let stats = session.stack().pool_stats();
    check_session(&session, &stats, delivered, problems);
    if let Some(s) = session.stack().serve_stats() {
        serve.add(&s);
    }
    Ok(())
}

fn layer(layers: &BTreeMap<&'static str, LayerTotal>, name: &str) -> LayerTotal {
    layers.get(name).copied().unwrap_or_default()
}

/// The traced run. Returns the per-layer metrics and every span.
///
/// # Errors
///
/// When a stack cannot be built or warmed up, or a probe's source
/// cannot be built.
pub fn run_traced(inputs: &Inputs, seconds: f64) -> Result<(Outcome, Recorder), String> {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let share = |s: f64| Duration::from_secs_f64(seconds * s);
    let warm = Duration::from_secs_f64((seconds * 0.05).clamp(0.25, 1.0));
    let mut problems = Vec::new();
    let mut requests = Requests::default();
    let mut serve = ServeTotals::default();

    // 1. The workload's own stack, in alternating untraced and traced
    //    slices.
    let (stack, _) = Stack::build(inputs)?;
    let mut session = Session::open(stack, inputs)?;
    session.warm_up(warm)?;
    let before = session.stack().pool_stats();
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    for _ in 0..TRACE_SLICES {
        let slice = share(0.2) / TRACE_SLICES;
        plain.then(session.run(slice, None).0);
        let (tally, spans) = session.run(slice, Some(epoch));
        traced.then(tally);
        rec.absorb(spans.expect("traced phase records spans"));
    }
    requests.add(&plain);
    requests.add(&traced);
    let pool = session.stack().pool_stats();
    check_session(&session, &pool, session.delivered, &mut problems);
    if let Some(s) = session.stack().serve_stats() {
        serve.add(&s);
    }
    drop(session);
    let overhead_pct = (1.0 - traced.mbps() / plain.mbps()) * 100.0;
    let sim = sim_mbps(&before, &pool, (plain.bytes + traced.bytes) as f64 * 8.0);
    let raw_bits: u64 = pool.shards.iter().map(|s| s.raw_bits).sum();
    let delivered_bits = pool.bytes_delivered as f64 * 8.0;
    let alarms = pool.total_alarms();

    // 2–4. Replica stack, layer probes, start-up, delivery layers.
    let replica_alarms = replica(inputs, share(0.2), &mut rec)?;
    if replica_alarms > 0 {
        problems.push(format!("replica stack raised {replica_alarms} gate alarms"));
    }
    probes(inputs, share(0.1), &mut rec)?;
    startup(inputs, &mut rec)?;
    delivery(
        inputs,
        share(0.1),
        warm,
        &mut rec,
        &mut requests,
        &mut serve,
        &mut problems,
    )?;

    let layers = rec.layers();
    let per = |name: &str| layer(&layers, name).self_ns_per_unit();
    let noise = per("fpga_sim.noise");
    let core_fill = per("core.fill_raw");
    let stack_ns = layer(&layers, "stack.chunk").total_ns_per_unit();
    let pool_fill = layer(&layers, "pool.fill_bytes").total_ns_per_unit();
    let med = |name: &str| median(&rec.durations(name));
    let shards = inputs.workload.shards() as f64;
    let values = [
        noise,
        core_fill,
        core_fill - noise,
        per("sources.fill_raw"),
        med("sources.startup") / 1e6,
        per("health.push"),
        alarms as f64,
        alarms as f64 / (raw_bits as f64 / 1e6),
        per("postprocess.push"),
        per("extract.push"),
        stack_ns,
        pool_fill,
        pool_fill - stack_ns * f64::from(inputs.ratio) / shards,
        pool.max_refill_wait.as_secs_f64() * 1e3,
        pool.shards
            .iter()
            .map(|s| s.ring_high_water)
            .max()
            .unwrap_or(0) as f64,
        raw_bits as f64 / delivered_bits,
        pool.shards.iter().map(|s| s.readmissions).sum::<u64>() as f64,
        pool.shards
            .iter()
            .filter(|s| s.state == ShardState::Retired)
            .count() as f64,
        per("handle.call") - per("pool.call"),
        (med("serve.fetch") - med("handle.fill_bytes")) / 1e6,
        rec.durations("serve.fetch").into_iter().fold(0.0, f64::max) / 1e6,
        serve.ok as f64,
        serve.timeout as f64,
        serve.exhausted as f64,
        serve.rejected as f64,
        serve.shed as f64,
        overhead_pct,
        sim,
    ];
    let metrics = LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect();

    let notes = ledger_table(inputs, &layers, noise, core_fill, stack_ns);
    let outcome = Outcome {
        correct: problems.is_empty(),
        attempted: requests.attempted,
        failed: requests.failed,
        metrics,
        problems,
        notes,
    };
    Ok((outcome, rec))
}

/// The replica stack's cost per raw bit, layer by layer, with each
/// layer's share. On the carry chain the source splits into the noise
/// engine, the core's sampling and decoding, and the source adapter.
fn ledger_table(
    inputs: &Inputs,
    layers: &BTreeMap<&'static str, LayerTotal>,
    noise: f64,
    core_fill: f64,
    stack_ns: f64,
) -> Vec<String> {
    let per = |name: &str| layer(layers, name).self_ns_per_unit();
    let source = per("sources.fill_raw");
    let mut rows: Vec<(&str, f64)> = if inputs.trace.is_some() {
        vec![("sources.fill_raw", source)]
    } else {
        vec![
            ("fpga_sim.noise", noise),
            ("core.sample", core_fill - noise),
            ("sources.adapter", source - core_fill),
        ]
    };
    let stage = Stage::of(inputs.conditioning, inputs.config.design.np).span_name();
    rows.push(("health.push", per("health.push")));
    rows.push((stage, per(stage)));
    rows.push(("stack.chunk (self)", per("stack.chunk")));
    let mut out = vec![format!(
        "ledger: replica stack {stack_ns:.2} ns per raw bit, ratio {} raw bits per output bit",
        inputs.ratio
    )];
    for (name, ns) in rows {
        out.push(format!(
            "  {name:<22} {ns:>10.2} ns/raw bit {:>6.1} %",
            100.0 * ns / stack_ns
        ));
    }
    out
}
