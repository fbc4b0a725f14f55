//! What the workspace's `harness = false` bench targets share: the
//! environment knob reader and the JSON report writer.
//!
//! # Environment variables
//!
//! * `TRNG_BENCH_OUT_DIR` — where `BENCH_*.json` files go
//!   (default: current directory).

use crate::json::Json;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "TRNG_TESTKIT_UNPARSABLE_KNOB must parse as a number, got \"5x\"")]
    fn unparsable_knob_panics_with_its_name() {
        // A variable no other test reads.
        std::env::set_var("TRNG_TESTKIT_UNPARSABLE_KNOB", "5x");
        let _: Option<usize> = env("TRNG_TESTKIT_UNPARSABLE_KNOB");
    }
}
