//! Process CPU time and peak memory from Linux `/proc/self`.

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux fixes the
/// user-visible `USER_HZ` at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU ticks of the whole process (all threads, including
/// joined ones) from the text of `/proc/self/stat`.
///
/// The command name (field 2) is parenthesised and may itself hold
/// spaces or parentheses, so fields are counted from the last `)`:
/// `utime` and `stime` are fields 14 and 15 of the line.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in kB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    let ticks = parse_cpu_ticks(&text).ok_or("unparsable /proc/self/stat")?;
    Ok(ticks as f64 / USER_HZ)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&text).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}
