//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer; nothing inside the program is instrumented. A span
//! carries its name, start and end (ns since the recorder's epoch), its
//! parent, the request (or chunk) id it belongs to, and how many units
//! of work it processed (raw bits, output bits or requests), so a
//! layer's cost reads as self time per unit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `health.push`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request or chunk id shared by a span and its children.
    pub request: u64,
    /// Units of work the span processed.
    pub units: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans aggregated.
    pub count: u64,
    /// Summed self time (duration minus the part covered by children).
    pub self_ns: u64,
    /// Summed wall duration.
    pub total_ns: u64,
    /// Summed units of work.
    pub units: u64,
}

impl LayerTotal {
    /// Self time per unit of work, ns; 0 when no work was recorded.
    pub fn self_ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.units as f64
        }
    }

    /// Wall time per unit of work, ns; 0 when no work was recorded.
    pub fn total_ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.units as f64
        }
    }
}

/// Records spans of one thread. Recorders of several threads share an
/// epoch and are merged with [`Recorder::absorb`] when the threads end.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The shared time origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a finished interval and returns its index, for use as a
    /// child's `parent`. A parent must be recorded before its children.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
        units: u64,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
            units,
        });
        self.spans.len() - 1
    }

    /// Moves every span of `other` into this recorder, re-basing its
    /// parent indices. Both must share an epoch.
    pub fn absorb(&mut self, other: Recorder) {
        debug_assert_eq!(self.epoch, other.epoch, "merged recorders share an epoch");
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name aggregates, sorted by name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.self_ns += self_ns;
            t.total_ns += span.duration_ns();
            t.units += span.units;
        }
        out
    }

    /// Wall durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// One JSON object per line, one line per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{},"units":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request, s.units
            );
        }
        out
    }
}
