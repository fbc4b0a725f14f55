//! Order statistics for latency samples and repeated measurements.

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile (capped at 99, floored at 50) that still has
/// at least ten samples beyond it: p99 from 1000 samples up, lower
/// percentiles for shorter runs so a tail figure is never one outlier.
pub fn tail_percentile(samples: usize) -> f64 {
    if samples == 0 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / samples as f64)).clamp(50.0, 99.0)
}

/// Nearest-rank percentile `p` (0–100] of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary of one run's per-request latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median, in the samples' unit.
    pub p50: f64,
    /// Which percentile [`tail`](LatencySummary::tail) reports.
    pub tail_percentile: f64,
    /// The tail percentile's value.
    pub tail: f64,
    /// The largest sample.
    pub max: f64,
}

impl LatencySummary {
    /// Summarises `samples` (any order).
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(sorted.len());
        LatencySummary {
            count: sorted.len(),
            p50: median(&sorted),
            tail_percentile: tail_p,
            tail: percentile(&sorted, tail_p),
            max: sorted.last().copied().unwrap_or(0.0),
        }
    }
}
