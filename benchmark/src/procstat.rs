//! What the harness reads from `/proc`: per-thread CPU time, peak resident
//! memory and the machine description stamped into every result file.
//!
//! Everything here observes the process from outside the layers under
//! test; nothing in the measured crates is instrumented.

use std::fs;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/*/stat`.
/// Linux fixes it at 100 on every architecture it exposes `/proc` on.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU time of one thread of this process.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCpu {
    /// Kernel thread id.
    pub tid: u32,
    /// Thread name (`comm`, at most 15 bytes).
    pub name: String,
    /// User + system CPU seconds consumed so far.
    pub cpu_s: f64,
}

/// Parses one `/proc/<pid>/task/<tid>/stat` line into `(comm, utime +
/// stime in seconds)`. The comm field is parenthesised and may itself
/// contain spaces or parentheses, so fields are counted from the *last*
/// `)`.
pub fn parse_stat(line: &str) -> Option<(String, f64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let name = line.get(open + 1..close)?.to_string();
    // After the comm: state is field 3, utime field 14, stime field 15.
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    let utime: f64 = rest.nth(11)?.parse().ok()?;
    let stime: f64 = rest.next()?.parse().ok()?;
    Some((name, (utime + stime) / TICKS_PER_SECOND))
}

/// CPU time of every live thread of this process, in tid order.
pub fn thread_cpu() -> Vec<ThreadCpu> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<ThreadCpu> = dir
        .flatten()
        .filter_map(|entry| {
            let tid: u32 = entry.file_name().to_str()?.parse().ok()?;
            let line = fs::read_to_string(entry.path().join("stat")).ok()?;
            let (name, cpu_s) = parse_stat(&line)?;
            Some(ThreadCpu { tid, name, cpu_s })
        })
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// Extracts a `kB` field such as `VmHWM` from `/proc/<pid>/status` text.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The first `model name` of `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let rest = line.strip_prefix("model name")?;
        Some(rest.trim_start().strip_prefix(':')?.trim().to_string())
    })
}

/// The CPU model of this machine, or `"unknown"`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        let line = "4242 (rush-reactor-0) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    250 50 0 0 20 0 3 0 12345 1000000 300 18446744073709551615";
        assert_eq!(parse_stat(line), Some(("rush-reactor-0".into(), 3.0)));
        // A hostile comm with spaces and parentheses must not shift fields.
        let line = "7 (a b) c) R 1 7 7 0 -1 0 0 0 0 0 7 3 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat(line), Some(("a b) c".into(), 0.1)));
        assert_eq!(parse_stat("7 (short) R 1 2"), None);
        assert_eq!(parse_stat("no parens"), None);
    }

    #[test]
    fn status_and_cpuinfo_fields() {
        let status = "Name:\trush\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        let cpuinfo = "processor\t: 0\nmodel name\t: Test CPU @ 2.0GHz\nmodel name\t: other\n";
        assert_eq!(parse_cpu_model(cpuinfo), Some("Test CPU @ 2.0GHz".into()));
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }

    #[test]
    fn live_process_is_observable() {
        let me = thread_cpu();
        assert!(
            me.iter().any(|t| t.tid == std::process::id()),
            "the main thread is a task"
        );
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
