//! Hot-path bench: wall-clock cost per generated bit for the packed,
//! allocation-free sampling pipeline, the SP 800-90B gate and whole
//! pools, written to `BENCH_hotpath.json`. It is the only bench CI
//! runs, and it carries every timed gate.
//!
//! The report carries a pinned *before* column measured on the
//! pre-optimization pipeline (per-bit `Vec<Vec<bool>>` snippets,
//! per-tap binary search, per-bit `Vec` returns) at the same commit
//! the packed rewrite landed, so the speedup is a like-for-like
//! wall-clock comparison on the same noise model and RNG sequence.
//!
//! Run with `cargo bench --bench hotpath`; set
//! `TRNG_HOTPATH_BENCH_BYTES` to change the measured volume (CI uses a
//! small value for a quick run). `TRNG_BENCH_OUT_DIR` redirects the
//! JSON report.
//!
//! Every gate is always on and is a ratio measured in this process, so
//! it holds on any host:
//! * the scalar raw row must cost at most [`SCALAR_MAX_REF_RATIO`]
//!   times a reference kernel ([`reference_kernel`], plain integer and
//!   float arithmetic sharing no code with the sampler);
//! * the batched rows keep the best of three fills (a fill is several
//!   times shorter than the scalar one, so a single run would follow
//!   host noise) and read their *before* column from the scalar row of
//!   this run; the raw pair's ratio — the figure the speedup column
//!   prints — must reach [`BATCHED_MIN_SPEEDUP`].
//!
//! A second table times the SP 800-90B gate: the per-bit
//! `OnlineHealth::push` oracle against the word-level `push_word` the
//! pool shards run, over the same buffer. The word gate must be at
//! least [`WORD_GATE_MIN_SPEEDUP`] times faster.
//!
//! A third table prices whole deterministic pools, where noise
//! synthesis, gating, conditioning and ring transport all count:
//! * per-shard Toeplitz extraction (leftover-hash ratio 5) and the
//!   composed cross-shard Toeplitz stage against the paper's np = 7 XOR
//!   tree, 2 shards on the batched engine — each Toeplitz row may cost
//!   at most [`TOEPLITZ_MAX_XOR_RATIO`] times the XOR row per output
//!   bit. The gate is pool-level on purpose: the bare Toeplitz word
//!   conditioner costs more per output bit than the XOR tree, and only
//!   the 5-vs-7 raw-bit saving in noise synthesis makes it cheaper end
//!   to end;
//! * the OS-backed source against the carry-chain simulator on its
//!   default batched engine, 1 shard each under design-rate XOR — the
//!   OS pool must deliver more than
//!   [`OS_MIN_SPEEDUP_OVER_CARRY_CHAIN`] times the carry-chain wall
//!   rate.

use std::hint::black_box;
use std::time::{Duration, Instant};

use trng_core::health::{HealthStatus, OnlineHealth};
use trng_core::trng::{CarryChainTrng, TrngConfig};
use trng_fpga_sim::noise::NoiseBackend;
use trng_pool::{ComposedExtract, Conditioning, EntropyPool, PoolConfig, SourceSpec};
use trng_testkit::bench::{env, write_report};
use trng_testkit::json::Json;
use trng_testkit::prng::{RngCore, SeedableRng, StdRng};

/// Bytes the gate rows run over (uniform, so neither gate alarms).
const GATE_BYTES: usize = 256 * 1024;
/// The gate rows' claimed min-entropy: the paper's k = 1 eq. (7) bound.
const GATE_CLAIM: f64 = 0.4215;

/// Pre-optimization cost of one raw bit (ns), `paper_k1`, this host.
const BEFORE_RAW_NS_PER_BIT: f64 = 2909.7;
/// Pre-optimization cost of one post-processed (np = 7) bit in ns.
const BEFORE_POST_NS_PER_BIT: f64 = 19123.6;
/// Upper bound on scalar raw-bit cost in reference-kernel iterations.
/// Forty-six quick runs on a shared 2-vCPU x86-64 host read 102–203
/// (best of three each; the sampler's own speed swings ~1.8x with host
/// load while the reference holds), and six runs with the scalar fill
/// doubled read 255–377. At that host's reference speed (~15 ns/iter)
/// the bound sits where the former pinned 3230 ns/bit gate did, now
/// carried as a ratio.
const SCALAR_MAX_REF_RATIO: f64 = 215.0;
/// Lower bound on the batched raw row's speedup over the scalar one.
const BATCHED_MIN_SPEEDUP: f64 = 9.0;
/// Lower bound on the word-level 90B gate's speedup over the per-bit one.
const WORD_GATE_MIN_SPEEDUP: f64 = 4.0;
/// Upper bound on a Toeplitz pool row's ns per output bit, in units of
/// the design-XOR pool row's.
const TOEPLITZ_MAX_XOR_RATIO: f64 = 2.0;
/// The OS-backed pool's wall Mb/s must exceed this multiple of the
/// carry-chain pool's.
const OS_MIN_SPEEDUP_OVER_CARRY_CHAIN: f64 = 1.0;
/// Seed of the extraction pool rows.
const EXTRACT_SEED: u64 = 0x5EED7;
/// Extractor error bound of the Toeplitz rows, as log2(1/epsilon).
const EPSILON_LOG2: u32 = 32;
/// Seed of the source pool rows.
const SOURCES_SEED: u64 = 0x5EED5;
/// Reference-kernel iterations per timed run (~0.1 s).
const REFERENCE_ITERS: u64 = 8_000_000;

struct Run {
    name: &'static str,
    bytes: usize,
    wall_ns: f64,
    ns_per_bit: f64,
    wall_mbps: f64,
    before_ns_per_bit: f64,
}

/// One deterministic pool fill, timed after admission.
struct PoolRow {
    name: &'static str,
    shards: usize,
    bytes: usize,
    ns_per_bit: f64,
    wall_mbps: f64,
    sim_mbps: f64,
}

/// Fills `bytes` from a deterministic pool built from `config`,
/// asserting the healthy run raised no alarm.
fn pool_row(name: &'static str, config: PoolConfig, bytes: usize) -> PoolRow {
    let mut pool = EntropyPool::new(config.deterministic(true)).expect("pool build");
    pool.wait_online(Duration::from_secs(600))
        .expect("admission");
    let mut sink = vec![0u8; bytes];
    let t0 = Instant::now();
    pool.fill_bytes(&mut sink).expect("fill");
    let wall = t0.elapsed();
    let stats = pool.stats();
    assert_eq!(stats.total_alarms(), 0, "{name}: healthy pool alarmed");
    let bits = bytes as f64 * 8.0;
    PoolRow {
        name,
        shards: stats.shards.len(),
        bytes,
        ns_per_bit: wall.as_nanos() as f64 / bits,
        wall_mbps: bits / wall.as_secs_f64() / 1e6,
        sim_mbps: stats.sim_throughput_bps() / 1e6,
    }
}

/// The pool table: three 2-shard extraction rows over `bytes`, then
/// the carry-chain and OS source rows over `bytes / 2`.
fn pool_rows(bytes: usize) -> Vec<PoolRow> {
    let extract = |conditioning| {
        PoolConfig::new(TrngConfig::paper_k1(), 2)
            .with_conditioning(conditioning)
            .with_seed(EXTRACT_SEED)
    };
    let source = |spec| {
        PoolConfig::new(TrngConfig::paper_k1(), 1)
            .with_conditioning(Conditioning::DesignXor)
            .with_seed(SOURCES_SEED)
            .with_sources(vec![spec])
    };
    let claim = trng_core::selftest::claimed_min_entropy(&TrngConfig::paper_k1())
        .expect("carry-chain claim");
    vec![
        pool_row("design_xor", extract(Conditioning::DesignXor), bytes),
        pool_row(
            "toeplitz_shard",
            extract(Conditioning::toeplitz_sized(
                claim,
                EPSILON_LOG2,
                EXTRACT_SEED,
            )),
            bytes,
        ),
        pool_row(
            "composed",
            extract(Conditioning::Raw)
                .with_composed_extract(ComposedExtract::new(EPSILON_LOG2, EXTRACT_SEED)),
            bytes,
        ),
        pool_row("carry_chain", source(SourceSpec::CarryChain), bytes / 2),
        pool_row("os_entropy", source(SourceSpec::OsEntropy), bytes / 2),
    ]
}

/// Times one fill of `bytes` after a warm-up; `best_of` keeps the best
/// of three fills instead, for rows short enough that one run is at
/// the mercy of host noise.
fn measure(
    name: &'static str,
    bytes: usize,
    before_ns: f64,
    best_of: bool,
    mut fill: impl FnMut(&mut [u8]),
) -> Run {
    let mut buf = vec![0u8; bytes];
    // Warm-up: reach edge-train steady state before timing.
    fill(&mut buf[..bytes.min(1024)]);
    let wall = if best_of {
        best_of_three(|| fill(&mut buf))
    } else {
        let t0 = Instant::now();
        fill(&mut buf);
        t0.elapsed()
    };
    assert!(buf.iter().any(|&b| b != 0), "{name}: degenerate output");
    let bits = bytes as f64 * 8.0;
    let wall_ns = wall.as_nanos() as f64;
    Run {
        name,
        bytes,
        wall_ns,
        ns_per_bit: wall_ns / bits,
        wall_mbps: bits / wall.as_secs_f64() / 1e6,
        before_ns_per_bit: before_ns,
    }
}

/// Best-of-three wall time of `run`.
fn best_of_three(mut run: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed()
        })
        .min()
        .expect("three runs")
}

/// The scalar gate's yardstick: a xorshift stream driving a
/// data-dependent branch and a square root or logarithm per iteration
/// — the kind of work the sampler does (random draws, unpredictable
/// coins, float math), with none of its code.
fn reference_kernel(iters: u64) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..iters {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        acc += if u < 0.5 { u.sqrt() } else { -u.ln() };
    }
    acc
}

/// ns per raw bit of the per-bit and the word-level gate over the
/// same buffer.
fn gate_rows() -> (f64, f64) {
    let mut buf = vec![0u8; GATE_BYTES];
    let mut rng = StdRng::seed_from_u64(0x90B);
    for chunk in buf.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let per_bit = best_of_three(|| {
        let mut gate = OnlineHealth::new(GATE_CLAIM);
        for &byte in black_box(&buf) {
            for k in (0..8).rev() {
                let _ = gate.push(byte >> k & 1 == 1);
            }
        }
        assert_eq!(
            black_box(gate).status(),
            HealthStatus::Ok,
            "uniform bytes alarmed"
        );
    });
    let word = best_of_three(|| {
        let mut gate = OnlineHealth::new(GATE_CLAIM);
        for chunk in black_box(&buf).chunks_exact(8) {
            let word = u64::from_be_bytes(chunk.try_into().expect("8 bytes"));
            let _ = gate.push_word(word, 64);
        }
        assert_eq!(
            black_box(gate).status(),
            HealthStatus::Ok,
            "uniform bytes alarmed"
        );
    });
    let bits = GATE_BYTES as f64 * 8.0;
    (
        per_bit.as_nanos() as f64 / bits,
        word.as_nanos() as f64 / bits,
    )
}

fn main() {
    let bytes = env("TRNG_HOTPATH_BENCH_BYTES").unwrap_or(64 * 1024);
    println!("hotpath: {bytes} bytes per run, paper_k1 (n=3, m=36, k=1, np=7)\n");

    // The scalar rows and the scalar gate time the replay oracle, so
    // they name it; the batched rows run the default engine.
    let scalar_cfg = TrngConfig::paper_k1().with_noise_backend(NoiseBackend::Scalar);
    let mut raw_trng = CarryChainTrng::new(scalar_cfg.clone(), 0x407).expect("build");
    let mut post_trng = CarryChainTrng::new(scalar_cfg, 0x407).expect("build");
    let mut batched_trng = CarryChainTrng::new(TrngConfig::paper_k1(), 0x407).expect("build");
    let mut batched_post = CarryChainTrng::new(TrngConfig::paper_k1(), 0x407).expect("build");
    assert_eq!(
        batched_trng.active_noise_backend(),
        NoiseBackend::Batched,
        "paper_k1 layout must support the batched engine"
    );

    let raw = measure("raw_bits", bytes, BEFORE_RAW_NS_PER_BIT, false, |buf| {
        raw_trng.fill_raw(buf)
    });
    // np = 7 raw bits per output bit: scale the volume down so both
    // runs cost similar wall time.
    let post = measure(
        "postprocessed_bits",
        bytes / 4,
        BEFORE_POST_NS_PER_BIT,
        false,
        |buf| post_trng.fill_postprocessed(buf),
    );
    // Batched backend: the sample-synchronous engine, measured against
    // the scalar rows above so the speedup column reads "x over scalar".
    let raw_batched = measure("raw_bits_batched", bytes, raw.ns_per_bit, true, |buf| {
        batched_trng.fill_raw(buf)
    });
    let post_batched = measure(
        "postprocessed_bits_batched",
        bytes / 4,
        post.ns_per_bit,
        true,
        |buf| batched_post.fill_postprocessed(buf),
    );
    let runs = [raw, post, raw_batched, post_batched];

    println!(
        "{:>20} {:>10} {:>14} {:>14} {:>12} {:>9}",
        "run", "bytes", "before ns/bit", "after ns/bit", "wall Mb/s", "speedup"
    );
    let benchmarks: Vec<Json> = runs
        .iter()
        .map(|r| {
            let speedup = r.before_ns_per_bit / r.ns_per_bit;
            let before_mbps = 1e3 / r.before_ns_per_bit;
            println!(
                "{:>20} {:>10} {:>14.1} {:>14.1} {:>12.3} {:>8.2}x",
                r.name, r.bytes, r.before_ns_per_bit, r.ns_per_bit, r.wall_mbps, speedup,
            );
            Json::obj(vec![
                ("name", Json::str(r.name)),
                ("bytes", Json::num(r.bytes as f64)),
                ("wall_ns", Json::num(r.wall_ns)),
                ("before_ns_per_bit", Json::num(r.before_ns_per_bit)),
                ("after_ns_per_bit", Json::num(r.ns_per_bit)),
                ("before_wall_mbps", Json::num(before_mbps)),
                ("after_wall_mbps", Json::num(r.wall_mbps)),
                ("speedup", Json::num(speedup)),
            ])
        })
        .collect();

    // The scalar gate times both sides best of three, back to back: a
    // single fill follows host noise that the compute-only reference
    // does not see.
    let mut buf = vec![0u8; bytes];
    let scalar_ns =
        best_of_three(|| raw_trng.fill_raw(&mut buf)).as_nanos() as f64 / (bytes as f64 * 8.0);
    let reference_ns = best_of_three(|| {
        black_box(reference_kernel(black_box(REFERENCE_ITERS)));
    })
    .as_nanos() as f64
        / REFERENCE_ITERS as f64;
    let scalar_ratio = scalar_ns / reference_ns;
    println!(
        "\nscalar gate: raw_bits {scalar_ns:.1} ns/bit (best of three) = {scalar_ratio:.1}x \
         the reference kernel ({reference_ns:.2} ns/iter), bound {SCALAR_MAX_REF_RATIO:.0}x"
    );

    let (per_bit_ns, word_ns) = gate_rows();
    let gate_speedup = per_bit_ns / word_ns;
    println!(
        "\n{:>20} {:>10} {:>14} {:>14} {:>12} {:>9}",
        "90B gate", "bytes", "per-bit ns/bit", "word ns/bit", "word Mb/s", "speedup"
    );
    println!(
        "{:>20} {:>10} {:>14.2} {:>14.2} {:>12.1} {:>8.2}x",
        "online_health",
        GATE_BYTES,
        per_bit_ns,
        word_ns,
        1e3 / word_ns,
        gate_speedup
    );

    let pool = pool_rows(bytes);
    println!(
        "\n{:>20} {:>10} {:>14} {:>12} {:>12}",
        "pool", "bytes", "ns/out bit", "wall Mb/s", "sim Mb/s"
    );
    let pool_json: Vec<Json> = pool
        .iter()
        .map(|r| {
            println!(
                "{:>20} {:>10} {:>14.1} {:>12.3} {:>12.2}",
                format!("{} ({}sh)", r.name, r.shards),
                r.bytes,
                r.ns_per_bit,
                r.wall_mbps,
                r.sim_mbps
            );
            Json::obj(vec![
                ("name", Json::str(r.name)),
                ("shards", Json::num(r.shards as f64)),
                ("bytes", Json::num(r.bytes as f64)),
                ("ns_per_bit", Json::num(r.ns_per_bit)),
                ("wall_mbps", Json::num(r.wall_mbps)),
                ("sim_mbps", Json::num(r.sim_mbps)),
            ])
        })
        .collect();
    let row = |name: &str| pool.iter().find(|r| r.name == name).expect("pool row");

    let report = Json::obj(vec![
        ("group", Json::str("hotpath")),
        ("config", Json::str("paper_k1_n3_m36_k1_np7")),
        (
            "note",
            Json::str(
                "raw_bits/postprocessed_bits: before = per-bit Vec<Vec<bool>> \
                 pipeline with per-tap binary search; after = packed u64 words, \
                 cursor lookups, batch byte fill, still under the byte-identical \
                 replay contract (scalar backend). That contract freezes the \
                 per-edge noise synthesis, which caps the *scalar* path; the \
                 *_batched rows drop draw-identity (never the distributions) via \
                 NoiseBackend::Batched sample-synchronous synthesis, with before = the \
                 scalar row of the same run, so their speedup column is the gated \
                 'over scalar' ratio",
            ),
        ),
        ("benchmarks", Json::Arr(benchmarks)),
        (
            "scalar_gate",
            Json::obj(vec![
                ("raw_ns_per_bit_best_of_three", Json::num(scalar_ns)),
                ("reference_ns_per_iter", Json::num(reference_ns)),
                ("raw_bits_over_reference", Json::num(scalar_ratio)),
                ("max_ratio", Json::num(SCALAR_MAX_REF_RATIO)),
            ]),
        ),
        (
            "gate",
            Json::obj(vec![
                ("bytes", Json::num(GATE_BYTES as f64)),
                ("claimed_min_entropy", Json::num(GATE_CLAIM)),
                ("per_bit_ns_per_bit", Json::num(per_bit_ns)),
                ("word_ns_per_bit", Json::num(word_ns)),
                ("speedup", Json::num(gate_speedup)),
            ]),
        ),
        (
            "pool",
            Json::obj(vec![
                (
                    "note",
                    Json::str(
                        "deterministic pools, ns per delivered bit: design_xor, \
                         toeplitz_shard (ratio 5) and composed run 2 batched \
                         shards, seed 0x5EED7; carry_chain and os_entropy run \
                         1 shard under design-rate XOR, seed 0x5EED5, over half \
                         the volume, carry_chain on the default (batched) \
                         engine. sim_mbps is the simulated clock domain",
                    ),
                ),
                ("rows", Json::Arr(pool_json)),
            ]),
        ),
    ]);
    let path = write_report("hotpath", &report).expect("write BENCH_hotpath.json");
    println!("\nwrote {}", path.display());

    assert!(
        scalar_ratio <= SCALAR_MAX_REF_RATIO,
        "raw-bit cost {scalar_ns:.1} ns/bit is {scalar_ratio:.1}x the reference kernel, \
         gate allows {SCALAR_MAX_REF_RATIO:.0}x"
    );
    println!("scalar gate ok: {scalar_ratio:.1}x <= {SCALAR_MAX_REF_RATIO:.0}x reference");

    // Compare the two raw rows measured in this same process so the
    // gate is host-speed independent.
    let batched = &runs[2];
    let speedup = batched.before_ns_per_bit / batched.ns_per_bit;
    assert!(
        speedup >= BATCHED_MIN_SPEEDUP,
        "batched raw path is only {speedup:.2}x scalar ({:.1} vs {:.1} ns/bit), \
         gate requires >= {BATCHED_MIN_SPEEDUP}x",
        batched.ns_per_bit,
        batched.before_ns_per_bit
    );
    println!("batched gate ok: {speedup:.2}x >= {BATCHED_MIN_SPEEDUP}x over scalar");

    assert!(
        gate_speedup >= WORD_GATE_MIN_SPEEDUP,
        "word-level 90B gate is only {gate_speedup:.2}x the per-bit gate \
         ({word_ns:.2} vs {per_bit_ns:.2} ns/bit), gate requires >= {WORD_GATE_MIN_SPEEDUP}x"
    );
    println!("90B gate ok: word {gate_speedup:.2}x >= {WORD_GATE_MIN_SPEEDUP}x per-bit");

    let xor_ns = row("design_xor").ns_per_bit;
    for name in ["toeplitz_shard", "composed"] {
        let ratio = row(name).ns_per_bit / xor_ns;
        assert!(
            ratio <= TOEPLITZ_MAX_XOR_RATIO,
            "{name} pool costs {ratio:.2}x the design_xor pool per output bit \
             ({:.1} vs {xor_ns:.1} ns/bit), gate allows {TOEPLITZ_MAX_XOR_RATIO}x",
            row(name).ns_per_bit
        );
        println!("extract gate ok: {name} {ratio:.2}x <= {TOEPLITZ_MAX_XOR_RATIO}x design_xor");
    }

    let (os, carry) = (row("os_entropy"), row("carry_chain"));
    let os_speedup = os.wall_mbps / carry.wall_mbps;
    assert!(
        os_speedup > OS_MIN_SPEEDUP_OVER_CARRY_CHAIN,
        "os_entropy pool ({:.3} Mb/s) should outpace the simulated carry chain \
         ({:.3} Mb/s) by more than {OS_MIN_SPEEDUP_OVER_CARRY_CHAIN}x on the host",
        os.wall_mbps,
        carry.wall_mbps
    );
    println!(
        "sources gate ok: os_entropy {os_speedup:.1}x > \
         {OS_MIN_SPEEDUP_OVER_CARRY_CHAIN}x carry_chain wall Mb/s"
    );
}
