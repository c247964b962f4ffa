//! What Linux's `/proc` tells a process about itself: CPU time, peak
//! resident memory, and the filesystem a path lives on.

use std::fs;
use std::path::Path;

/// CPU seconds this process has consumed, user + system, all threads.
///
/// Summed from each live thread's `schedstat` (nanoseconds on a CPU);
/// `/proc/self/stat` counts in 10 ms ticks, which is 1–2 % of one
/// repetition. The pool's threads live as long as the process, so no
/// thread's time drops out between two readings. Falls back to the tick
/// counters where the kernel keeps no `schedstat`.
pub fn cpu_seconds() -> f64 {
    let mut ns = 0u64;
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let on_cpu = fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
            ns += on_cpu.unwrap_or(0);
        }
    }
    if ns > 0 {
        return ns as f64 / 1e9;
    }
    let ticks = os_counters();
    ticks.user_s + ticks.sys_s
}

/// What `/proc/self/stat` counts for the whole process: CPU time split
/// into user and system (10 ms ticks: take differences over many
/// repetitions) and page faults served without disk I/O.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OsCounters {
    /// Seconds in user mode.
    pub user_s: f64,
    /// Seconds in the kernel: page faults, `mmap`, `fsync`, …
    pub sys_s: f64,
    /// Minor page faults: pages the kernel had to map (and zero) anew.
    pub minor_faults: u64,
}

impl OsCounters {
    /// What was counted since `earlier`.
    pub fn since(self, earlier: OsCounters) -> OsCounters {
        OsCounters {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }
}

/// Reads the process's [`OsCounters`]; all zero where there is no `/proc`.
pub fn os_counters() -> OsCounters {
    // The numbered fields follow the parenthesised command name, which
    // may itself hold spaces: state is field 3, minflt 10, utime 14,
    // stime 15.
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<u64> = after_name
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let field = |number: usize| fields.get(number - 4).copied().unwrap_or(0);
    OsCounters {
        user_s: field(14) as f64 / 100.0,
        sys_s: field(15) as f64 / 100.0,
        minor_faults: field(10),
    }
}

/// Resets the kernel's peak-resident-set mark to the current resident
/// set, so the next [`peak_rss_mb`] reading covers only what follows.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) in MB (10⁶ bytes) since process start or
/// the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb * 1024.0 / 1e6
}

/// The filesystem type holding `path` (`ext4`, `tmpfs`, …): the entry of
/// `/proc/self/mounts` with the longest mount point that prefixes the
/// path. `unknown` when the table cannot be read.
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn os_counters_read_the_numbered_fields_and_only_grow() {
        let before = os_counters();
        assert!(
            before.minor_faults > 0,
            "starting a process faults pages in"
        );
        let delta = os_counters().since(before);
        assert!(delta.user_s >= 0.0 && delta.sys_s >= 0.0);
    }

    #[test]
    fn peak_rss_is_positive_and_root_has_a_filesystem() {
        assert!(peak_rss_mb() > 0.0);
        assert_ne!(fs_type(Path::new("/")), "");
    }
}
