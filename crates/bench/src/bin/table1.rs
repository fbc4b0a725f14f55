//! Regenerates **Table 1** — "Evaluation of different design
//! versions": for each (k, tA) configuration, the model H_RAW, the
//! measured minimal NIST-passing compression rate n_NIST, the
//! post-processed entropy H_NEW and the resulting throughput.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p trng-bench --bin table1 [-- --sequences 4 --seq-len 50000]
//! ```
//!
//! The defaults are scaled down from the paper's (unstated, likely
//! ≥ 10 × 1 Mbit) evaluation so the table regenerates in minutes; pass
//! larger values to tighten the statistics. EXPERIMENTS.md records the
//! deviation and the comparison against the paper's rows.

use trng_bench::{arg_usize, render_table, scalar, table1_row, DEFAULT_SEQUENCES, DEFAULT_SEQ_LEN};
use trng_core::trng::TrngConfig;

fn main() {
    let sequences = arg_usize("--sequences", DEFAULT_SEQUENCES);
    let seq_len = arg_usize("--seq-len", DEFAULT_SEQ_LEN);
    eprintln!(
        "table1: {sequences} sequences x {seq_len} post-processed bits per (k, tA, np) point"
    );

    let base = scalar(TrngConfig::paper_k1());
    // The paper's rows: (k, N_A) with tA = N_A * 10 ns.
    let rows_spec: [(u32, u32); 6] = [(1, 1), (1, 2), (4, 1), (4, 5), (4, 10), (4, 20)];
    let mut rows = Vec::new();
    for (k, n_a) in rows_spec {
        eprintln!("  evaluating k = {k}, tA = {} ns ...", n_a * 10);
        let row = table1_row(&base, k, n_a, sequences, seq_len);
        rows.push(row.render());
    }
    let header = format!(
        "{:>2} {:>7} {:>8} {:>7} {:>8} {:>12}",
        "k", "tA[ns]", "H_RAW", "n_NIST", "H_NEW", "Thrpt[Mb/s]"
    );
    println!(
        "{}",
        render_table(
            "Table 1: Evaluation of different design versions (simulated)",
            &header,
            &rows
        )
    );
    println!("Paper reference rows:");
    println!("  k=1 tA=10   H_RAW 0.99   n_NIST 7    H_NEW 0.999  14.3 Mb/s");
    println!("  k=1 tA=20   H_RAW 0.999  n_NIST 7    H_NEW 0.999  7.14 Mb/s");
    println!("  k=4 tA=10   H_RAW 0.03   n_NIST >16  H_NEW NA     NA");
    println!("  k=4 tA=50   H_RAW 0.7    n_NIST 13   H_NEW 0.999  1.53 Mb/s");
    println!("  k=4 tA=100  H_RAW 0.94   n_NIST 10   H_NEW 0.999  1.00 Mb/s");
    println!("  k=4 tA=200  H_RAW 0.99   n_NIST 6    H_NEW 0.999  0.83 Mb/s");
}
