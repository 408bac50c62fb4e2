//! Host-resource readings of this process from Linux `/proc`.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`sysconf(_SC_CLK_TCK)`, 100 on every mainstream Linux build).
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds this process has used so far, all threads
/// included (finished ones too).
pub fn cpu_secs() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .ok_or("short /proc/self/stat")?
            .parse::<u64>()
            .map(|t| t as f64 / CLK_TCK)
            .map_err(|e| e.to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .ok_or("malformed VmHWM line")?
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive() {
        assert!(cpu_secs().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
