//! `trng-served` — the entropy daemon as a command-line process.
//!
//! Brings up an [`EntropyPool`] over the paper's simulated carry-chain
//! TRNG, serves it on a TCP socket with the `trng-serve` frame
//! protocol, and exits with a drain report on shutdown (stdin EOF,
//! or after `--serve-ms`).
//!
//! ```text
//! trng-served [--addr 127.0.0.1:7878] [--metrics-addr 127.0.0.1:7879 | --no-metrics]
//!             [--shards 2] [--workers 4]
//!             [--conditioning raw|design-xor|xor:N|toeplitz[:N]]
//!             [--composed-extract auto|N]
//!             [--sources carry_chain,dual_osc,trace_replay,os_entropy]
//!             [--coherence QUORUM] [--coherence-window N] [--coherence-snr X]
//!             [--coherence-response journal|alarm-all]
//!             [--quota-rate BYTES_PER_SEC --quota-burst BYTES]
//!             [--max-request BYTES] [--drain-deadline-ms MS]
//!             [--serve-ms MS] [--deterministic] [--seed N]
//! ```
//!
//! The flag parser is hand-rolled (the workspace is hermetic: no
//! registry crates), so unknown flags fail fast with usage help.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use std::sync::Arc;

use trng_core::trng::TrngConfig;
use trng_pool::{
    CoherenceConfig, CoherenceResponse, ComposedExtract, Conditioning, DualOscConfig, EntropyPool,
    MonitorConfig, PoolConfig, RecordedTrace, SourceSpec,
};
use trng_serve::{QuotaConfig, ServeConfig, Server};

/// Raw bytes self-captured at startup for a `trace_replay` source
/// (the replay wraps, so the capture only needs to be representative).
const TRACE_CAPTURE_BYTES: usize = 64 * 1024;

const USAGE: &str = "\
trng-served: network entropy daemon over the simulated carry-chain TRNG pool

USAGE:
  trng-served [OPTIONS]

OPTIONS:
  --addr ADDR             entropy endpoint (default 127.0.0.1:7878; port 0 = ephemeral)
  --metrics-addr ADDR     metrics/health endpoint (default 127.0.0.1:7879)
  --no-metrics            disable the metrics endpoint
  --shards N              TRNG shards in the pool (default 2)
  --workers N             connection worker threads (default 4)
  --conditioning MODE     raw | design-xor | xor:N | toeplitz[:N]
                          (default raw; bare toeplitz sizes N from the carry-chain
                          min-entropy claim via the leftover hash lemma at eps 2^-32)
  --composed-extract R    pool-level cross-shard Toeplitz stage on the interleaved
                          stream: auto (leftover-hash-sized ratio) or an explicit
                          ratio N (default: off)
  --sources LIST          comma-separated backend per shard, overriding --shards:
                          carry_chain | dual_osc | trace_replay | os_entropy
                          (trace_replay self-captures a carry-chain trace at startup)
  --coherence QUORUM      enable the cross-shard coherence detector (and the
                          per-shard jitter monitor it feeds on): alarm when the
                          same spectral line is elevated on QUORUM shards at
                          once (default: off; QUORUM in 2..=shards)
  --coherence-window N    residuals per shard in the detector's Goertzel scan
                          (default 16, range 8..=64)
  --coherence-snr X       per-shard elevation threshold as a multiple of the
                          median line amplitude (default 4.0)
  --coherence-response R  journal (default) | alarm-all (quarantine the quorum
                          through the normal readmit state machine)
  --quota-rate BPS        per-connection sustained quota, bytes/second (default: none)
  --quota-burst BYTES     per-connection burst allowance (default: 4x rate)
  --max-request BYTES     largest single request (default 1048576)
  --drain-deadline-ms MS  graceful-drain deadline on shutdown (default 5000)
  --serve-ms MS           serve for MS milliseconds then drain (default: until stdin EOF)
  --deterministic         inline deterministic pool backend (replayable byte stream)
  --seed N                pool seed (default 2015)
  -h, --help              this help
";

struct Args {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shards: usize,
    workers: usize,
    conditioning: Conditioning,
    composed: Option<ComposedExtract>,
    sources: Option<Vec<String>>,
    /// Quorum for the cross-shard coherence detector; `None` = off.
    coherence: Option<usize>,
    coherence_window: usize,
    coherence_snr: f64,
    coherence_response: CoherenceResponse,
    quota_rate: Option<f64>,
    quota_burst: Option<u64>,
    max_request: u32,
    drain_deadline: Duration,
    serve_ms: Option<u64>,
    deterministic: bool,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7878".parse().expect("static addr"),
            metrics_addr: Some("127.0.0.1:7879".parse().expect("static addr")),
            shards: 2,
            workers: 4,
            conditioning: Conditioning::Raw,
            composed: None,
            sources: None,
            coherence: None,
            coherence_window: 16,
            coherence_snr: 4.0,
            coherence_response: CoherenceResponse::JournalOnly,
            quota_rate: None,
            quota_burst: None,
            max_request: 1 << 20,
            drain_deadline: Duration::from_millis(5000),
            serve_ms: None,
            deterministic: false,
            seed: 2015,
        }
    }
}

/// Fixed matrix-seed lane for CLI-configured Toeplitz stages; the
/// per-shard conditioner folds this with the shard seed (itself
/// derived from `--seed`), so the byte stream stays a pure function
/// of the pool seed.
const TOEPLITZ_SEED: u64 = 0x70E9;

/// The extractor failure bound for CLI-sized Toeplitz stages
/// (`eps = 2^-32`, the workspace-wide default).
const TOEPLITZ_EPSILON_LOG2: u32 = 32;

fn parse_conditioning(s: &str) -> Result<Conditioning, String> {
    match s {
        "raw" => Ok(Conditioning::Raw),
        "design-xor" => Ok(Conditioning::DesignXor),
        // Bare `toeplitz` sizes the compression ratio from the
        // carry-chain per-bit min-entropy claim (leftover hash lemma).
        "toeplitz" => {
            let claim = trng_core::selftest::claimed_min_entropy(&TrngConfig::paper_k1())
                .map_err(|e| format!("cannot size --conditioning toeplitz ratio: {e}"))?;
            Ok(Conditioning::toeplitz_sized(
                claim,
                TOEPLITZ_EPSILON_LOG2,
                TOEPLITZ_SEED,
            ))
        }
        _ => {
            if let Some(n) = s.strip_prefix("toeplitz:") {
                return n
                    .parse::<u32>()
                    .map(|ratio| Conditioning::Toeplitz {
                        ratio,
                        seed: TOEPLITZ_SEED,
                    })
                    .map_err(|_| format!("bad toeplitz ratio in --conditioning {s:?}"));
            }
            match s.strip_prefix("xor:") {
                Some(n) => n
                    .parse::<u32>()
                    .map(Conditioning::Xor)
                    .map_err(|_| format!("bad xor rate in --conditioning {s:?}")),
                None => Err(format!("unknown conditioning mode {s:?}")),
            }
        }
    }
}

/// Parses `--composed-extract`: `auto` (leftover-hash-sized ratio) or
/// an explicit ratio.
fn parse_composed(s: &str) -> Result<ComposedExtract, String> {
    let base = ComposedExtract::new(TOEPLITZ_EPSILON_LOG2, TOEPLITZ_SEED);
    if s == "auto" {
        return Ok(base);
    }
    s.parse::<u32>()
        .map(|ratio| base.with_ratio(ratio))
        .map_err(|_| format!("bad value {s:?} for --composed-extract (expected auto or a ratio)"))
}

fn parse_sources(list: &str) -> Result<Vec<String>, String> {
    let names: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
    if names.is_empty() || names.iter().any(String::is_empty) {
        return Err(format!("--sources got an empty entry in {list:?}"));
    }
    for name in &names {
        if !matches!(
            name.as_str(),
            "carry_chain" | "dual_osc" | "trace_replay" | "os_entropy"
        ) {
            return Err(format!(
                "unknown source {name:?} in --sources (expected carry_chain, dual_osc, \
                 trace_replay, or os_entropy)"
            ));
        }
    }
    Ok(names)
}

/// Materialises `--sources` names into pool specs; a `trace_replay`
/// entry self-captures a fresh carry-chain trace here, at startup.
fn build_specs(names: &[String], seed: u64) -> Result<Vec<SourceSpec>, String> {
    let mut trace: Option<Arc<RecordedTrace>> = None;
    names
        .iter()
        .map(|name| {
            Ok(match name.as_str() {
                "carry_chain" => SourceSpec::CarryChain,
                "dual_osc" => {
                    SourceSpec::DualOscillator(Box::new(DualOscConfig::betrusted_default()))
                }
                "trace_replay" => {
                    if trace.is_none() {
                        let captured = RecordedTrace::record(
                            &TrngConfig::paper_k1(),
                            seed,
                            TRACE_CAPTURE_BYTES,
                        )
                        .map_err(|e| format!("trace capture failed: {e}"))?;
                        trace = Some(Arc::new(captured));
                    }
                    SourceSpec::TraceReplay(Arc::clone(trace.as_ref().expect("just captured")))
                }
                "os_entropy" => SourceSpec::OsEntropy,
                other => unreachable!("parse_sources admitted {other:?}"),
            })
        })
        .collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--addr" => args.addr = parse(value("--addr")?, "--addr")?,
            "--metrics-addr" => {
                args.metrics_addr = Some(parse(value("--metrics-addr")?, "--metrics-addr")?);
            }
            "--no-metrics" => args.metrics_addr = None,
            "--shards" => args.shards = parse(value("--shards")?, "--shards")?,
            "--workers" => args.workers = parse(value("--workers")?, "--workers")?,
            "--conditioning" => args.conditioning = parse_conditioning(value("--conditioning")?)?,
            "--composed-extract" => {
                args.composed = Some(parse_composed(value("--composed-extract")?)?);
            }
            "--sources" => args.sources = Some(parse_sources(value("--sources")?)?),
            "--coherence" => args.coherence = Some(parse(value("--coherence")?, "--coherence")?),
            "--coherence-window" => {
                args.coherence_window = parse(value("--coherence-window")?, "--coherence-window")?;
            }
            "--coherence-snr" => {
                args.coherence_snr = parse(value("--coherence-snr")?, "--coherence-snr")?;
            }
            "--coherence-response" => {
                args.coherence_response = match value("--coherence-response")?.as_str() {
                    "journal" => CoherenceResponse::JournalOnly,
                    "alarm-all" => CoherenceResponse::AlarmAll,
                    other => {
                        return Err(format!(
                            "--coherence-response must be journal or alarm-all, got {other:?}"
                        ))
                    }
                };
            }
            "--quota-rate" => {
                args.quota_rate = Some(parse(value("--quota-rate")?, "--quota-rate")?)
            }
            "--quota-burst" => {
                args.quota_burst = Some(parse(value("--quota-burst")?, "--quota-burst")?);
            }
            "--max-request" => args.max_request = parse(value("--max-request")?, "--max-request")?,
            "--drain-deadline-ms" => {
                let ms: u64 = parse(value("--drain-deadline-ms")?, "--drain-deadline-ms")?;
                args.drain_deadline = Duration::from_millis(ms);
            }
            "--serve-ms" => args.serve_ms = Some(parse(value("--serve-ms")?, "--serve-ms")?),
            "--deterministic" => args.deterministic = true,
            "--seed" => args.seed = parse(value("--seed")?, "--seed")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?} for {flag}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("trng-served: {msg}\n");
            }
            eprint!("{USAGE}");
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    // --sources overrides --shards: one shard per listed backend.
    let shards = args.sources.as_ref().map_or(args.shards, Vec::len);
    let mut pool_config = PoolConfig::new(TrngConfig::paper_k1(), shards)
        .with_conditioning(args.conditioning)
        .with_seed(args.seed)
        .deterministic(args.deterministic);
    if let Some(composed) = args.composed {
        pool_config = pool_config.with_composed_extract(composed);
    }
    if let Some(quorum) = args.coherence {
        // The detector consumes the per-shard monitor's period-probe
        // residuals, so --coherence switches the monitor on too.
        pool_config = pool_config
            .with_monitor(MonitorConfig::default())
            .with_coherence(
                CoherenceConfig::new()
                    .with_quorum(quorum)
                    .with_window(args.coherence_window)
                    .with_line_snr(args.coherence_snr)
                    .with_response(args.coherence_response),
            );
        eprintln!(
            "trng-served: coherence detector on (quorum {quorum}, window {}, snr {}, {})",
            args.coherence_window,
            args.coherence_snr,
            match args.coherence_response {
                CoherenceResponse::JournalOnly => "journal",
                CoherenceResponse::AlarmAll => "alarm-all",
            }
        );
    }
    if let Some(names) = &args.sources {
        let specs = match build_specs(names, args.seed) {
            Ok(specs) => specs,
            Err(msg) => {
                eprintln!("trng-served: {msg}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("trng-served: source mix [{}]", names.join(", "));
        pool_config = pool_config.with_sources(specs);
    }
    let mut pool = match EntropyPool::new(pool_config) {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("trng-served: failed to build pool: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "trng-served: bringing {} shard(s) online ({} backend)...",
        shards,
        if args.deterministic {
            "deterministic"
        } else {
            "threaded"
        },
    );
    if let Err(e) = pool.wait_online(Duration::from_secs(120)) {
        eprintln!("trng-served: pool never came online: {e}");
        return ExitCode::FAILURE;
    }

    let mut serve_config = ServeConfig::default()
        .with_addr(args.addr)
        .with_metrics_addr(args.metrics_addr)
        .with_workers(args.workers)
        .with_max_request(args.max_request)
        .with_drain_deadline(args.drain_deadline);
    if let Some(rate) = args.quota_rate {
        let burst = args.quota_burst.unwrap_or((rate * 4.0) as u64);
        serve_config = serve_config.with_quota(QuotaConfig::new(rate, burst));
    }

    let server = match Server::start(pool.into_shared(), serve_config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("trng-served: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("trng-served: serving entropy on {}", server.local_addr());
    if let Some(addr) = server.metrics_addr() {
        eprintln!("trng-served: metrics on {addr}");
    }

    match args.serve_ms {
        Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
        None => {
            eprintln!("trng-served: close stdin (ctrl-d) to drain and exit");
            // Block until the controlling process closes stdin.
            let mut sink = String::new();
            while let Ok(n) = std::io::stdin().read_line(&mut sink) {
                if n == 0 {
                    break;
                }
                sink.clear();
            }
        }
    }

    eprintln!("trng-served: draining...");
    let report = server.shutdown();
    eprintln!("trng-served: {report}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_conditioning_maps_each_mode_to_its_variant() {
        assert_eq!(parse_conditioning("raw"), Ok(Conditioning::Raw));
        assert_eq!(
            parse_conditioning("design-xor"),
            Ok(Conditioning::DesignXor)
        );
        assert_eq!(parse_conditioning("xor:3"), Ok(Conditioning::Xor(3)));
        // Bare `toeplitz` sizes the ratio from the paper_k1 claim at
        // eps 2^-32, which the leftover hash lemma puts at 5.
        let toeplitz = |ratio| Conditioning::Toeplitz {
            ratio,
            seed: TOEPLITZ_SEED,
        };
        assert_eq!(parse_conditioning("toeplitz"), Ok(toeplitz(5)));
        assert_eq!(parse_conditioning("toeplitz:9"), Ok(toeplitz(9)));
    }

    #[test]
    fn parse_conditioning_rejects_unknown_and_malformed_modes() {
        let err = |s| parse_conditioning(s).expect_err(s);
        for unknown in ["von-neumann", "bogus"] {
            assert!(
                err(unknown).contains("unknown conditioning mode"),
                "{unknown}"
            );
        }
        assert!(err("xor:x").contains("bad xor rate"));
        assert!(err("toeplitz:x").contains("bad toeplitz ratio"));
    }
}
