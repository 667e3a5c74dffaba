//! `/proc` readers: CPU time and peak resident memory of a process,
//! measured from outside it.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI this benchmark runs on; reading it properly
/// needs `sysconf`, i.e. libc and `unsafe`, which this crate does without.
const CLK_TCK: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` line, in milliseconds. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the LAST `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / CLK_TCK)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in MiB.
pub fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_ascii_whitespace();
    let kib: u64 = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(kib as f64 / 1024.0)
}

fn read_proc(pid: &str, file: &str) -> Result<String, String> {
    let path = Path::new("/proc").join(pid).join(file);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// CPU milliseconds consumed so far by `pid` (`"self"` for this process).
pub fn cpu_ms(pid: &str) -> Result<f64, String> {
    parse_stat_cpu_ms(&read_proc(pid, "stat")?)
        .ok_or_else(|| format!("/proc/{pid}/stat: unparsable"))
}

/// Time on a CPU of a `/proc/<pid>/task/<tid>/schedstat` line (its first
/// field, nanoseconds), in milliseconds.
pub fn parse_schedstat_cpu_ms(schedstat: &str) -> Option<f64> {
    let ns: u64 = schedstat.split_ascii_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e6)
}

/// CPU milliseconds consumed so far by the threads `pid` has now, as the
/// scheduler itself counts them (nanoseconds): `/proc/<pid>/stat` counts
/// in 10 ms ticks, which is 2% of a window of the measured phase, and the
/// best window of every run then reads one of two or three values. The
/// server's threads all live as long as it does, so none's time goes
/// missing between two readings. Falls back to [`cpu_ms`] on a kernel
/// without `schedstat`.
pub fn thread_cpu_ms(pid: &str) -> Result<f64, String> {
    let sum = || -> Option<f64> {
        let mut total = 0.0;
        for task in std::fs::read_dir(Path::new("/proc").join(pid).join("task")).ok()? {
            let line = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            total += parse_schedstat_cpu_ms(&line)?;
        }
        Some(total)
    };
    match sum() {
        Some(total) => Ok(total),
        None => cpu_ms(pid),
    }
}

/// Peak resident set of `pid` in MiB.
pub fn hwm_mib(pid: &str) -> Result<f64, String> {
    parse_status_hwm_mib(&read_proc(pid, "status")?)
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))
}

/// Total length of every regular file under `dir`, in MiB.
pub fn dir_mib(dir: &Path) -> std::io::Result<f64> {
    fn walk(dir: &Path) -> std::io::Result<u64> {
        let mut total = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            total += if meta.is_dir() {
                walk(&entry.path())?
            } else {
                meta.len()
            };
        }
        Ok(total)
    }
    Ok(walk(dir)? as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "4242 (tahoma) serve) x) S 1 4242 4242 0 -1 4194560 1105 0 0 0 \
                    1234 66 0 0 20 0 6 0 1000 2000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(stat), Some(13000.0));
        assert_eq!(parse_stat_cpu_ms("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ms("no parens at all"), None);
    }

    #[test]
    fn status_hwm_is_read_in_mib() {
        let status =
            "Name:\ttahoma-serve\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_hwm_mib(status), Some(200.0));
        assert_eq!(parse_status_hwm_mib("Name:\tx\n"), None);
        assert_eq!(parse_status_hwm_mib("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn schedstat_run_time_is_read_in_ms() {
        assert_eq!(
            parse_schedstat_cpu_ms("964945608 44228719 113\n"),
            Some(964.945608)
        );
        assert_eq!(parse_schedstat_cpu_ms(""), None);
        assert_eq!(parse_schedstat_cpu_ms("x 1 2"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(cpu_ms("self").unwrap() >= 0.0);
        assert!(thread_cpu_ms("self").unwrap() >= 0.0);
        assert!(hwm_mib("self").unwrap() > 0.0);
    }
}
