//! Entropy-delivery benchmark for the carry-chain TRNG stack.
//!
//! One command runs one of three closed-loop workloads against the
//! public APIs of `trng-pool`, `trng-serve`, `trng-sources`,
//! `trng-core` and `trng-extract`, checks every output, and prints its
//! metrics by name with their units; the last line of standard output
//! is a JSON result. `--trace 0` reports the end-to-end metrics with
//! tracing off; `--trace 1` is a separate run that records spans and
//! reports the per-layer ledger. See `README.md` beside this crate.

pub mod ledger;
pub mod metrics;
pub mod procfs;
pub mod span;
pub mod stats;
pub mod workload;

use std::path::PathBuf;

use metrics::Outcome;
use workload::{Inputs, Workload};

/// Command-line usage.
pub const USAGE: &str =
    "usage: perfbench --workload <carry_chain_xor|replay_toeplitz|replay_raw_serve> \
--seed <u64> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// `true` for the traced per-layer run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`, each
    /// followed by its value; all four are required.
    ///
    /// # Errors
    ///
    /// On an unknown flag, a missing or malformed value, or a missing
    /// flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Where traced runs write their spans.
pub fn trace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the benchmark as `args` asks. A traced run also writes its
/// spans, one JSON object per line, under [`trace_dir`].
///
/// # Errors
///
/// When the inputs, a stack or `/proc` cannot be built or read, or the
/// span file cannot be written.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let inputs = Inputs::generate(args.workload, args.seed)?;
    if !args.trace {
        return workload::run_end_to_end(&inputs, args.seconds);
    }
    let (mut outcome, spans) = ledger::run_traced(&inputs, args.seconds)?;
    let dir = trace_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    std::fs::write(&path, spans.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    outcome.notes.push(format!(
        "{} spans written to {}",
        spans.spans().len(),
        path.display()
    ));
    Ok(outcome)
}
