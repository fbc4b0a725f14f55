//! Micro-benchmark timer harness with a criterion-shaped API.
//!
//! Replaces `criterion` for the workspace's `harness = false` bench
//! targets: the call-site API (`Criterion`, `benchmark_group`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Throughput`,
//! [`black_box`], [`criterion_group!`](crate::criterion_group),
//! [`criterion_main!`](crate::criterion_main)) is source-compatible
//! with the subset of criterion 0.5 this repository used.
//!
//! Each benchmark runs a wall-clock warmup, then takes N timed
//! samples (each a batch sized so one sample lasts ~2 ms) and reports
//! min / mean / median / p95 per-iteration times. Every group writes
//! a `BENCH_<group>.json` report via [`crate::json`].
//!
//! # Environment variables
//!
//! * `TRNG_BENCH_SAMPLES` — samples per benchmark (default 20,
//!   before any `sample_size` override in the bench source).
//! * `TRNG_BENCH_WARMUP_MS` — warmup duration (default 50).
//! * `TRNG_BENCH_SAMPLE_MS` — target duration of one sample batch
//!   (default 2).
//! * `TRNG_BENCH_OUT_DIR` — where `BENCH_*.json` files go
//!   (default: current directory).

use std::fmt::Display;
use std::time::{Duration, Instant};

use crate::json::Json;

/// An opaque value barrier preventing the optimizer from deleting a
/// benchmarked computation.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Reads a bench knob from the environment: `None` when unset.
///
/// # Panics
///
/// Panics, naming the variable and its value, when the value does not
/// parse: a typo must not silently run the bench at its default.
pub fn env<T: std::str::FromStr>(name: &str) -> Option<T> {
    let v = std::env::var(name).ok()?;
    Some(
        v.parse()
            .unwrap_or_else(|_| panic!("{name} must parse as a number, got {v:?}")),
    )
}

/// Writes `report` as `BENCH_<stem>.json` into `TRNG_BENCH_OUT_DIR`
/// (default: the working directory) and returns the file's path.
///
/// # Errors
///
/// The I/O error of the write.
pub fn write_report(stem: &str, report: &Json) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("TRNG_BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{stem}.json"));
    std::fs::write(&path, report.to_string_pretty())?;
    Ok(path)
}

/// Benchmark identifier: a function name plus an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `<function>/<parameter>` identifier.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Identifier carrying only a parameter (the group supplies the
    /// function name).
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { name: s }
    }
}

/// Units processed per iteration, for derived throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Logical elements (bits, snippets, …) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Per-iteration timing statistics, in nanoseconds.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Fastest sample.
    pub min_ns: f64,
    /// Arithmetic mean of samples.
    pub mean_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 95th-percentile sample.
    pub p95_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations batched inside each sample.
    pub iters_per_sample: u64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One finished benchmark: identifier, stats, optional throughput.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Group name.
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Timing statistics.
    pub stats: Stats,
    /// Throughput declared for the group, if any.
    pub throughput: Option<Throughput>,
}

impl BenchRecord {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::str(self.name.clone())),
            ("samples", Json::num(self.stats.samples as f64)),
            (
                "iters_per_sample",
                Json::num(self.stats.iters_per_sample as f64),
            ),
            ("min_ns", Json::num(self.stats.min_ns)),
            ("mean_ns", Json::num(self.stats.mean_ns)),
            ("median_ns", Json::num(self.stats.median_ns)),
            ("p95_ns", Json::num(self.stats.p95_ns)),
        ];
        match self.throughput {
            Some(Throughput::Elements(n)) => {
                pairs.push(("elements_per_iter", Json::num(n as f64)));
                pairs.push((
                    "elements_per_sec",
                    Json::num(n as f64 * 1e9 / self.stats.median_ns),
                ));
            }
            Some(Throughput::Bytes(n)) => {
                pairs.push(("bytes_per_iter", Json::num(n as f64)));
                pairs.push((
                    "bytes_per_sec",
                    Json::num(n as f64 * 1e9 / self.stats.median_ns),
                ));
            }
            None => {}
        }
        Json::obj(pairs)
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// The timing loop driver handed to each benchmark closure.
pub struct Bencher {
    sample_count: usize,
    stats: Option<Stats>,
}

impl Bencher {
    /// Times `routine`, batching iterations into samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let warmup = Duration::from_millis(env("TRNG_BENCH_WARMUP_MS").unwrap_or(50));
        let sample_target = Duration::from_millis(env("TRNG_BENCH_SAMPLE_MS").unwrap_or(2));

        // Warmup: run until the warmup budget elapses, estimating the
        // per-iteration cost as we go.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            black_box(routine());
            warm_iters += 1;
            if warm_start.elapsed() >= warmup {
                break;
            }
        }
        let est_ns = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;

        // Batch size: one sample should last roughly `sample_target`.
        let iters_per_sample =
            ((sample_target.as_nanos() as f64 / est_ns.max(0.5)).ceil() as u64).max(1);

        let mut samples_ns = Vec::with_capacity(self.sample_count);
        for _ in 0..self.sample_count {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            samples_ns.push(t0.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        let mut sorted = samples_ns.clone();
        sorted.sort_by(f64::total_cmp);
        self.stats = Some(Stats {
            min_ns: sorted[0],
            mean_ns: samples_ns.iter().sum::<f64>() / samples_ns.len() as f64,
            median_ns: percentile(&sorted, 0.5),
            p95_ns: percentile(&sorted, 0.95),
            samples: samples_ns.len(),
            iters_per_sample,
        });
    }
}

/// A named collection of benchmarks sharing throughput settings;
/// writes `BENCH_<group>.json` on [`BenchmarkGroup::finish`].
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
    records: Vec<BenchRecord>,
}

impl BenchmarkGroup<'_> {
    /// Declares how many units each iteration processes.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Overrides the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            sample_count: self.sample_size,
            stats: None,
        };
        f(&mut bencher);
        self.record(id, bencher);
        self
    }

    /// Runs one benchmark against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut bencher = Bencher {
            sample_count: self.sample_size,
            stats: None,
        };
        f(&mut bencher, input);
        self.record(id, bencher);
        self
    }

    fn record(&mut self, id: BenchmarkId, bencher: Bencher) {
        let stats = bencher
            .stats
            .unwrap_or_else(|| panic!("benchmark {}/{} never called iter()", self.name, id.name));
        let record = BenchRecord {
            group: self.name.clone(),
            name: id.name,
            stats,
            throughput: self.throughput,
        };
        let tp = match record.throughput {
            Some(Throughput::Elements(n)) => {
                format!("  {:.2} Melem/s", n as f64 * 1e3 / record.stats.median_ns)
            }
            Some(Throughput::Bytes(n)) => {
                format!("  {:.2} MB/s", n as f64 * 1e3 / record.stats.median_ns)
            }
            None => String::new(),
        };
        println!(
            "bench {:<40} median {:>10}  p95 {:>10}{}",
            format!("{}/{}", record.group, record.name),
            fmt_ns(record.stats.median_ns),
            fmt_ns(record.stats.p95_ns),
            tp,
        );
        self.records.push(record);
    }

    /// Writes this group's `BENCH_<group>.json` report.
    pub fn finish(&mut self) {
        let records = std::mem::take(&mut self.records);
        self.criterion.write_group_report(&self.name, &records);
        self.criterion.results.extend(records);
    }
}

impl Drop for BenchmarkGroup<'_> {
    fn drop(&mut self) {
        if !self.records.is_empty() {
            // finish() was never called; flush anyway.
            self.finish();
        }
    }
}

/// Top-level bench driver: owns results and writes JSON reports.
#[derive(Default)]
pub struct Criterion {
    results: Vec<BenchRecord>,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            sample_size: env("TRNG_BENCH_SAMPLES").unwrap_or(20),
            records: Vec::new(),
            criterion: self,
        }
    }

    /// Runs a single ungrouped benchmark (its own one-entry group).
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        {
            let mut group = self.benchmark_group(name);
            group.bench_function(name, f);
            group.finish();
        }
        self
    }

    fn write_group_report(&self, group: &str, records: &[BenchRecord]) {
        if records.is_empty() {
            return;
        }
        let report = Json::obj(vec![
            ("group", Json::str(group)),
            (
                "benchmarks",
                Json::Arr(records.iter().map(BenchRecord::to_json).collect()),
            ),
        ]);
        let safe: String = group
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        if let Err(e) = write_report(&safe, &report) {
            eprintln!("warning: could not write BENCH_{safe}.json: {e}");
        }
    }

    /// Prints the closing summary. Called by
    /// [`criterion_main!`](crate::criterion_main).
    pub fn finalize(&mut self) {
        println!(
            "\n{} benchmarks complete ({} groups)",
            self.results.len(),
            {
                let mut groups: Vec<&str> = self.results.iter().map(|r| r.group.as_str()).collect();
                groups.dedup();
                groups.len()
            }
        );
    }
}

/// Declares a bench group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::bench::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Declares the bench `main`, criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::bench::Criterion::default();
            $( $group(&mut criterion); )+
            criterion.finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Env vars are process-global; serialize the tests that set them.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn fast_env() {
        // Tests must not spend 50 ms per warmup.
        std::env::set_var("TRNG_BENCH_WARMUP_MS", "1");
        std::env::set_var("TRNG_BENCH_SAMPLE_MS", "1");
        std::env::set_var("TRNG_BENCH_SAMPLES", "5");
    }

    #[test]
    fn bencher_produces_sane_stats() {
        let _guard = ENV_LOCK.lock().unwrap();
        fast_env();
        let mut c = Criterion::default();
        std::env::set_var("TRNG_BENCH_OUT_DIR", std::env::temp_dir());
        {
            let mut group = c.benchmark_group("testkit_selftest");
            group.throughput(Throughput::Elements(100));
            group.bench_function("spin", |b| {
                b.iter(|| (0..100u64).map(black_box).sum::<u64>())
            });
            group.finish();
        }
        assert_eq!(c.results.len(), 1);
        let s = &c.results[0].stats;
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.p95_ns);
        assert_eq!(s.samples, 5);
    }

    #[test]
    fn group_report_is_written_as_json() {
        let _guard = ENV_LOCK.lock().unwrap();
        fast_env();
        let dir = std::env::temp_dir().join("trng_testkit_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("TRNG_BENCH_OUT_DIR", &dir);
        let mut c = Criterion::default();
        c.bench_function("report_smoke", |b| b.iter(|| black_box(1 + 1)));
        let path = dir.join("BENCH_report_smoke.json");
        let body = std::fs::read_to_string(&path).expect("report written");
        assert!(body.contains("\"group\": \"report_smoke\""), "{body}");
        assert!(body.contains("median_ns"), "{body}");
        std::env::remove_var("TRNG_BENCH_OUT_DIR");
    }

    #[test]
    #[should_panic(expected = "TRNG_TESTKIT_UNPARSABLE_KNOB must parse as a number, got \"5x\"")]
    fn unparsable_knob_panics_with_its_name() {
        // A variable no other test reads, so no lock is needed.
        std::env::set_var("TRNG_TESTKIT_UNPARSABLE_KNOB", "5x");
        let _: Option<usize> = env("TRNG_TESTKIT_UNPARSABLE_KNOB");
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 32).name, "f/32");
        assert_eq!(BenchmarkId::from_parameter("k1").name, "k1");
    }

    #[test]
    fn percentile_handles_small_samples() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
