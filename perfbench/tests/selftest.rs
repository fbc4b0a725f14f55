//! Self-tests of the benchmark: its statistics, `/proc` parsing,
//! metric names, span accounting, command line, and a short smoke run
//! of every workload. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::{Duration, Instant};

use perfbench::ledger::LAYER_METRICS;
use perfbench::metrics::valid_name;
use perfbench::procfs::{cpu_seconds, parse_cpu_ticks, parse_vm_hwm_kb, peak_rss_mb};
use perfbench::span::Recorder;
use perfbench::stats::{median, percentile, tail_percentile, LatencySummary};
use perfbench::workload::Workload;
use perfbench::Args;

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 6] = [
    "delivered_mbps",
    "latency_p50_ms",
    "latency_p99_ms",
    "setup_s",
    "cpu_ms_per_mbit",
    "peak_rss_mb",
];

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(1000), 99.0);
    assert_eq!(tail_percentile(100_000), 99.0);
    assert_eq!(tail_percentile(500), 98.0);
    assert_eq!(tail_percentile(20), 50.0);
    assert_eq!(tail_percentile(5), 50.0);
    for n in [20usize, 37, 100, 999, 1000, 4321] {
        let p = tail_percentile(n);
        let beyond = n as f64 * (1.0 - p / 100.0);
        assert!(
            beyond >= 10.0 - 1e-9,
            "n = {n}: p{p} leaves {beyond} beyond"
        );
    }
}

#[test]
fn nearest_rank_percentiles_and_medians() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 50.0), 50.0);
    assert_eq!(percentile(&sorted, 99.0), 99.0);
    assert_eq!(percentile(&sorted, 100.0), 100.0);
    assert_eq!(percentile(&sorted, 0.1), 1.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);

    let samples: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
    let s = LatencySummary::of(&samples);
    assert_eq!(s.count, 2000);
    assert_eq!(s.tail_percentile, 99.0);
    assert_eq!(s.tail, 1980.0);
    assert_eq!(s.max, 2000.0);
    assert_eq!(s.p50, 1000.5);
}

#[test]
fn proc_stat_parsing_counts_fields_after_the_command_name() {
    // The command name holds spaces and a parenthesis.
    let stat = "4242 (perf bench) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                1234 567 0 0 20 0 5 0 100 1000000 250 18446744073709551615";
    assert_eq!(parse_cpu_ticks(stat), Some(1234 + 567));
    assert_eq!(parse_cpu_ticks("4242 (short) S 1 2"), None);
    assert_eq!(parse_cpu_ticks("no parenthesis"), None);

    let status = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    4321 kB\nVmRSS:\t 4000 kB\n";
    assert_eq!(parse_vm_hwm_kb(status), Some(4321));
    assert_eq!(parse_vm_hwm_kb("VmRSS:\t 4000 kB\n"), None);
    assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 pages\n"), None);
}

#[test]
fn live_proc_reads_work() {
    let before = cpu_seconds().expect("cpu time");
    let mut x = 0u64;
    let spin = Instant::now();
    while spin.elapsed() < Duration::from_millis(50) {
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    assert!(cpu_seconds().expect("cpu time") >= before);
    assert!(peak_rss_mb().expect("peak rss") > 0.0);
}

#[test]
fn metric_names_use_the_allowed_charset() {
    for name in END_TO_END
        .iter()
        .chain(LAYER_METRICS.iter().map(|(n, _)| n))
    {
        assert!(valid_name(name), "{name}");
    }
    let too_long = "a".repeat(65);
    for bad in ["", ".leading", "_leading", "sp ace", "slash/", &too_long] {
        assert!(!valid_name(bad), "{bad:?} must be rejected");
    }
    assert!(valid_name("a-b_c.9"));
    let mut names: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
    names.extend(END_TO_END);
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "metric names are unique");
}

#[test]
fn benchmark_manifest_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let listed = |name: &str| manifest.contains(&format!("\"name\": \"{name}\""));
    let workloads = Workload::ALL.iter().filter(|w| listed(w.name())).count();
    assert!(workloads >= 2, "the manifest names at least two workloads");
    assert_eq!(
        manifest.matches("\"name\"").count(),
        workloads + END_TO_END.len() + LAYER_METRICS.len(),
        "every name in the manifest is a workload or a reported metric"
    );
    for (name, unit) in LAYER_METRICS {
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    for name in END_TO_END {
        assert!(listed(name), "{name} missing from BENCHMARK.json");
    }
}

#[test]
fn self_time_subtracts_children() {
    let epoch = Instant::now();
    let at = |us: u64| epoch + Duration::from_micros(us);
    let mut rec = Recorder::new(epoch);
    let root = rec.record("request", None, 1, at(0), at(100), 8);
    rec.record("a", Some(root), 1, at(10), at(40), 8);
    rec.record("b", Some(root), 1, at(30), at(60), 8); // overlaps a by 10
    let mut other = Recorder::new(epoch);
    let r2 = other.record("request", None, 2, at(200), at(250), 8);
    other.record("a", Some(r2), 2, at(210), at(220), 8);
    rec.absorb(other);

    assert_eq!(
        rec.self_times(),
        vec![50_000, 30_000, 30_000, 40_000, 10_000]
    );
    let layers = rec.layers();
    assert_eq!(layers["request"].self_ns, 90_000);
    assert_eq!(layers["request"].count, 2);
    assert_eq!(layers["a"].self_ns_per_unit(), 40_000.0 / 16.0);
    assert_eq!(rec.spans()[4].parent, Some(3));
    assert_eq!(rec.durations("request"), vec![100_000.0, 50_000.0]);
    let jsonl = rec.to_jsonl();
    assert_eq!(jsonl.lines().count(), 5);
    assert!(jsonl.lines().nth(4).unwrap().contains(r#""parent":3"#));
}

#[test]
fn command_line_needs_all_four_flags() {
    let args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let ok = args("--workload replay_toeplitz --seed 7 --seconds 10 --trace 1").expect("valid");
    assert_eq!(ok.workload, Workload::ReplayToeplitz);
    assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 10.0, true));
    assert!(args("--workload replay_toeplitz --seed 7 --seconds 10").is_err());
    assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
    assert!(args("--workload carry_chain_xor --seed x --seconds 10 --trace 0").is_err());
    assert!(args("--workload carry_chain_xor --seed 1 --seconds 0 --trace 0").is_err());
    assert!(args("--workload carry_chain_xor --seed 1 --seconds 1 --trace 2").is_err());
    assert!(args("--workload carry_chain_xor --seed 1 --seconds 1 --trace").is_err());
    assert!(args("--bogus 1").is_err());
}

fn smoke(workload: Workload, trace: bool) -> perfbench::metrics::Outcome {
    let args = Args {
        workload,
        seed: 5,
        seconds: 1.0,
        trace,
    };
    let outcome = perfbench::run(&args).expect("smoke run completes");
    assert!(
        outcome.correct,
        "{}: {:?}",
        workload.name(),
        outcome.problems
    );
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
    assert_eq!(outcome.error_rate(), 0.0);
    outcome
}

fn smoke_end_to_end(workload: Workload) {
    let outcome = smoke(workload, false);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, END_TO_END);
    for m in &outcome.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{}: {}",
            m.name,
            m.value
        );
    }
}

#[test]
fn smoke_carry_chain_xor() {
    smoke_end_to_end(Workload::CarryChainXor);
}

#[test]
fn smoke_replay_toeplitz() {
    smoke_end_to_end(Workload::ReplayToeplitz);
}

#[test]
fn smoke_replay_raw_serve() {
    smoke_end_to_end(Workload::ReplayRawServe);
}

#[test]
fn smoke_traced_ledger_reports_every_layer() {
    let outcome = smoke(Workload::ReplayRawServe, true);
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
    for name in [
        "health.ns_per_raw_bit",
        "stack.ns_per_raw_bit",
        "pool.fill_ns_per_output_bit",
        "fpga_sim.noise_ns_per_raw_bit",
    ] {
        assert!(outcome.metric(name).unwrap() > 0.0, "{name}");
    }
    assert!(outcome.metric("serve.requests_ok").unwrap() > 0.0);
    assert_eq!(outcome.metric("health.alarms"), Some(0.0));
}
