//! Process facts read from `/proc`, plus the order statistics the
//! metrics use.

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// Linux).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (all threads, live
/// and exited), in seconds. Zero when `/proc` is unreadable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime is field 14 and stime field 15 (indices 11 and 12 here).
    (tick(11) + tick(12)) / USER_HZ
}

/// Machine-wide CPU time counters from `/proc/stat`: `(steal, total)`
/// in clock ticks, summed over all CPUs. Zeros when unreadable.
pub fn steal_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(cpu) = stat.lines().next().and_then(|l| l.strip_prefix("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = cpu
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Share of machine CPU time the hypervisor stole between two
/// [`steal_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Nearest-rank quantile `q` in (0, 1] of `values` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
