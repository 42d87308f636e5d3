//! Host facts for the run header, so a slow host phase can be told apart
//! from a regression: core count, kernel, PMU presence, L2 size, affinity,
//! and steal time over the run.

use std::fs;

fn read_trimmed(path: &str) -> String {
    fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "?".into())
}

/// A `/proc/self/status` field (e.g. `VmHWM`), value text only.
fn status_field(field: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix(field)?
            .strip_prefix(':')
            .map(|v| v.trim().to_string())
    })
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal jiffies summed over all CPUs since boot (0 when unavailable).
pub fn steal_jiffies() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.split_whitespace().collect::<Vec<_>>();
            cpu.get(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Header lines describing the host.
pub fn facts() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pmu = std::path::Path::new("/sys/bus/event_source/devices/cpu").exists();
    vec![
        format!("nproc: {nproc}"),
        format!("kernel: {}", read_trimmed("/proc/sys/kernel/osrelease")),
        format!("pmu: {}", if pmu { "present" } else { "absent" }),
        format!(
            "l2: {}",
            read_trimmed("/sys/devices/system/cpu/cpu0/cache/index2/size")
        ),
        format!(
            "affinity: {}",
            status_field("Cpus_allowed_list").unwrap_or_else(|| "?".into())
        ),
    ]
}
