//! Regenerates **Figure 4** — "Data snippets, illustrating the
//! representative examples": (a) regular sampling, (b) double edge,
//! (c) bubbles in the code.
//!
//! Samples the simulated TRNG until one snippet of each kind is
//! captured, renders them in the figure's style, and reports the
//! occurrence rate of each phenomenon over a larger sample.
//!
//! ```text
//! cargo run --release -p trng-bench --bin figure4 [-- --samples 20000]
//! ```

use trng_bench::{arg_usize, scalar};
use trng_core::snippet::{Snippet, SnippetKind};
use trng_core::trng::{CarryChainTrng, TrngConfig};

fn main() {
    let samples = arg_usize("--samples", 20_000);
    let config = scalar(TrngConfig::paper_k1());
    let mut trng = CarryChainTrng::new(config, 2015).expect("valid config");

    let mut examples: Vec<(SnippetKind, Snippet)> = Vec::new();
    let mut counts = [0u64; 4];
    for _ in 0..samples {
        let snippet = trng.sample_snippet();
        let kind = snippet.classify();
        let idx = match kind {
            SnippetKind::Regular => 0,
            SnippetKind::DoubleEdge => 1,
            SnippetKind::Bubbled => 2,
            SnippetKind::NoEdge => 3,
        };
        counts[idx] += 1;
        if !examples.iter().any(|(k, _)| *k == kind) {
            examples.push((kind, snippet));
        }
    }
    examples.sort_by_key(|(k, _)| match k {
        SnippetKind::Regular => 0,
        SnippetKind::DoubleEdge => 1,
        SnippetKind::Bubbled => 2,
        SnippetKind::NoEdge => 3,
    });

    println!("Figure 4: representative TDC data snippets (simulated)\n");
    let letters = ['a', 'b', 'c', 'd'];
    for (i, (kind, snippet)) in examples.iter().enumerate() {
        println!("({}) {} sampling:", letters[i.min(3)], kind);
        println!("{snippet}\n");
    }

    let total = samples as f64;
    println!("Occurrence rates over {samples} samples:");
    println!("  regular:     {:>8.4} %", counts[0] as f64 / total * 100.0);
    println!("  double edge: {:>8.4} %", counts[1] as f64 / total * 100.0);
    println!("  bubbled:     {:>8.4} %", counts[2] as f64 / total * 100.0);
    println!(
        "  no edge:     {:>8.4} %  (paper: 0 % at m = 36)",
        counts[3] as f64 / total * 100.0
    );
    println!(
        "\nPaper expectation: \"In most cases, signal edge will be captured in\n\
         only one delay line\" — regular sampling dominates; double edges occur\n\
         because the line delay (m*tstep = 612 ps) exceeds the oscillator stage\n\
         delay (480 ps); bubbles come from metastable capture flip-flops."
    );
}
