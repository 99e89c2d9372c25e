//! The host and configuration fingerprint printed with every result.

use saav_core::fleet::{default_threads, FleetRunner, THREADS_ENV};

/// Cumulative CPU steal time of the host, in jiffies (the eighth value of
/// `/proc/stat`'s `cpu` line), when readable.
pub fn steal_jiffies() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The fingerprint as one JSON object. `steal_since` is the steal counter
/// read when the run started; the run's accrued steal time is reported
/// so noisy runs can be recognised (it never drops a run).
pub fn fingerprint(steal_since: Option<u64>) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let steal = match (steal_since, steal_jiffies()) {
        (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
        _ => "null".into(),
    };
    let env = std::env::var(THREADS_ENV)
        .map(|v| format!("\"{}\"", v.escape_default()))
        .unwrap_or_else(|_| "null".into());
    format!(
        "{{\"nproc\": {nproc}, \"fleet_width\": {}, \"city_width\": {}, \"{THREADS_ENV}\": {env}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"profile\": \"{}\", \"steal_jiffies\": {steal}}}",
        FleetRunner::new(0).threads(),
        default_threads(),
        env!("SAAVBENCH_RUSTC"),
        env!("SAAVBENCH_GIT_REV"),
        env!("SAAVBENCH_PROFILE"),
    )
}
