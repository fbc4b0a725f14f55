//! Detection-latency bench for the cross-shard coherence detector:
//! how many bits the pool produces between the onset of a
//! sub-threshold shared supply tone (0.4 % @ 5 MHz — invisible to
//! every per-shard gate, DESIGN.md §16) and the journaled
//! `CommonModeCoherence` quorum event. Written to
//! `BENCH_coherence.json`.
//!
//! Three rows, all deterministic (seed 0xAD5A, DesignXor
//! conditioning, jitter monitor every 128 bytes, quorum 2):
//!
//! * `quorum_2of2` — 2-shard pool, tone on both shards.
//! * `quorum_2of3` — 3-shard pool, tone on shards 0 and 1: the third
//!   clean shard must not delay or dilute the quorum.
//! * `control_1of3` — 3-shard pool, tone on shard 0 only: a local
//!   line must NOT make quorum (reported as undetected by design).
//!
//! Environment overrides:
//! * `TRNG_COHERENCE_BENCH_BYTES` — bytes per row (default 8192)
//! * `TRNG_COHERENCE_GATE_BITS` — regression gate: fail if a quorum
//!   row is undetected or detects slower than this many bits, or if
//!   the control row detects at all
//! * `TRNG_BENCH_OUT_DIR` — where to write the JSON report

use std::time::Duration;

use trng_core::trng::TrngConfig;
use trng_fpga_sim::scenario::Scenario;
use trng_fpga_sim::time::Ps;
use trng_pool::{
    compile_campaign, decode_coherence_detail, onset_bytes, CoherenceConfig, Conditioning,
    EntropyPool, IncidentKind, MonitorConfig, PoolConfig,
};
use trng_testkit::bench::{env, write_report};
use trng_testkit::json::Json;

const ONSET: Ps = Ps::from_us(300.0);
const MONITOR_INTERVAL: u64 = 128;

struct Row {
    name: &'static str,
    shards: usize,
    targets: Vec<usize>,
    /// Whether the tone is expected to trip the quorum.
    expect_detection: bool,
}

fn rows() -> Vec<Row> {
    vec![
        Row {
            name: "quorum_2of2",
            shards: 2,
            targets: vec![0, 1],
            expect_detection: true,
        },
        Row {
            name: "quorum_2of3",
            shards: 3,
            targets: vec![0, 1],
            expect_detection: true,
        },
        Row {
            name: "control_1of3",
            shards: 3,
            targets: vec![0],
            expect_detection: false,
        },
    ]
}

fn main() {
    let total = env("TRNG_COHERENCE_BENCH_BYTES").unwrap_or(8192);
    let gate_bits = env::<u64>("TRNG_COHERENCE_GATE_BITS");
    let base = TrngConfig::paper_k1();
    let onset = onset_bytes(ONSET, Conditioning::DesignXor, &base.design);
    println!(
        "pool_coherence: shared 0.4% @ 5 MHz tone, {total} bytes per row, \
         deterministic pool, monitor every {MONITOR_INTERVAL} bytes, quorum 2, \
         onset at {onset} bytes\n"
    );
    println!(
        "{:>14} {:>8} {:>14} {:>6} {:>8} {:>10}",
        "row", "shards", "latency bits", "bin", "mask", "magnitude"
    );

    let mut failures = Vec::new();
    let mut benchmarks = Vec::new();
    for row in rows() {
        let scenario = Scenario::shared_supply_tone(ONSET, 5e6, 0.004);
        let faults = compile_campaign(
            &scenario,
            Conditioning::DesignXor,
            &base.design,
            &row.targets,
            false,
        );
        let config = PoolConfig::new(base.clone(), row.shards)
            .with_conditioning(Conditioning::DesignXor)
            .with_seed(0xAD5A)
            .with_block_bytes(64)
            .with_faults(faults)
            .with_monitor(MonitorConfig::default().with_interval_bytes(MONITOR_INTERVAL))
            .with_coherence(CoherenceConfig::new().with_quorum(2))
            .deterministic(true);
        let mut pool = EntropyPool::new(config).expect("pool build");
        pool.wait_online(Duration::from_secs(60))
            .expect("admission");
        let mut sink = vec![0u8; total];
        pool.fill_bytes(&mut sink).expect("bench fill");
        let stats = pool.stats();

        let event = stats
            .journal
            .iter()
            .find(|e| e.kind == IncidentKind::CommonModeCoherence)
            .cloned();
        let detail = event
            .as_ref()
            .and_then(|e| decode_coherence_detail(e.detail));
        let latency_bits = event.as_ref().map(|e| (e.at_bytes - onset) * 8);
        let coherence = stats.coherence.as_ref().expect("coherence stats");

        match (&event, row.expect_detection) {
            (None, true) => failures.push(format!(
                "{}: the shared tone never tripped the quorum in {total} bytes",
                row.name
            )),
            (Some(e), false) => failures.push(format!(
                "{}: a single-shard tone tripped the quorum at byte {}",
                row.name, e.at_bytes
            )),
            (Some(_), true) => {
                if let (Some(bits), Some(gate)) = (latency_bits, gate_bits) {
                    if bits > gate {
                        failures.push(format!(
                            "{}: detection latency {bits} bits exceeds gate {gate}",
                            row.name
                        ));
                    }
                }
            }
            (None, false) => {}
        }

        println!(
            "{:>14} {:>8} {:>14} {:>6} {:>8} {:>10}",
            row.name,
            row.shards,
            latency_bits.map_or_else(|| "undetected".into(), |b| b.to_string()),
            detail.map_or_else(|| "-".into(), |(bin, _, _)| bin.to_string()),
            detail.map_or_else(|| "-".into(), |(_, mask, _)| format!("{mask:#b}")),
            detail.map_or_else(|| "-".into(), |(_, _, pm)| format!("{pm} permille")),
        );

        benchmarks.push(Json::obj(vec![
            ("name", Json::str(row.name)),
            ("shards", Json::u64(row.shards as u64)),
            ("tone_shards", Json::u64(row.targets.len() as u64)),
            ("bytes", Json::u64(total as u64)),
            ("onset_bytes", Json::u64(onset)),
            ("expected_detection", Json::Bool(row.expect_detection)),
            ("detected", Json::Bool(event.is_some())),
            (
                "detection_latency_bits",
                latency_bits.map_or(Json::Null, Json::u64),
            ),
            (
                "bin",
                detail.map_or(Json::Null, |(bin, _, _)| Json::u64(bin as u64)),
            ),
            (
                "quorum_mask",
                detail.map_or(Json::Null, |(_, mask, _)| Json::u64(mask)),
            ),
            (
                "magnitude_permille",
                detail.map_or(Json::Null, |(_, _, pm)| Json::u64(pm as u64)),
            ),
            ("detector_passes", Json::u64(coherence.passes)),
            ("detector_events", Json::u64(coherence.events)),
        ]));
    }

    let report = Json::obj(vec![
        ("group", Json::str("coherence")),
        ("conditioning", Json::str("design_xor")),
        ("onset_bytes", Json::u64(onset)),
        ("monitor_interval_bytes", Json::u64(MONITOR_INTERVAL)),
        ("window", Json::u64(16)),
        ("quorum", Json::u64(2)),
        (
            "note",
            Json::str(
                "cross-shard coherence detector under the 0.4% @ 5 MHz shared supply \
                 tone that every per-shard gate misses; latency is bits produced \
                 between tone onset and the journaled CommonModeCoherence quorum \
                 event. The single-shard control row must stay undetected: a local \
                 spectral line is not common-mode evidence",
            ),
        ),
        ("benchmarks", Json::Arr(benchmarks)),
    ]);
    let path = write_report("coherence", &report).expect("write BENCH_coherence.json");
    println!("\nwrote {}", path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("pool_coherence: GATE FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
