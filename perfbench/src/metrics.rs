//! Named metrics and the result line the benchmark prints last.

use trng_testkit::json::Json;

/// One measured figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub name: &'static str,
    /// Measured value, all digits kept.
    pub value: f64,
    /// Unit label, e.g. `ms`, `Mb/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// `true` when `name` is a valid metric name: 1–64 characters of
/// `[A-Za-z0-9_.-]`, the first a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that failed (typed error or short delivery).
    pub failed: u64,
    /// The reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
    /// Context for the human-readable table only.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Failed requests per attempted request.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The metric called `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::obj(vec![
                                    ("value", Json::num(m.value)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable table: one metric per line, then the error rate
    /// and any failed checks.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("  {:<36} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!(
            "  {:<36} {:>16.6} ({} of {} requests failed)\n",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        ));
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        for p in &self.problems {
            out.push_str(&format!("  CHECK FAILED: {p}\n"));
        }
        out
    }
}
