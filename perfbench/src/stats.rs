//! Order statistics over exact per-job durations, and the process's peak
//! resident set size from `/proc`.

use std::fs;

/// The median of `values` (mean of the two middle values for an even
/// count). `values` must be non-empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles `tail` may report, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it (p99 at 1 000 samples or more), by nearest rank.
/// Returns the value and its percentile; with fewer than 20 samples it
/// is the median.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "tail of an empty sample");
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let p = LADDER
        .into_iter()
        .rev()
        .find(|&p| n - rank(p) >= 10)
        .unwrap_or(LADDER[0]);
    (v[rank(p) - 1], p)
}

/// Peak resident set size (`VmHWM`) of this process in MB, since start
/// or since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Resets the peak RSS to the current RSS (`5` to `clear_refs`), so the
/// next [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 99.0));
        let v: Vec<f64> = (1..=112).map(f64::from).collect();
        assert_eq!(tail(&v), (101.0, 90.0));
        assert_eq!(tail(&[5.0, 7.0]), (5.0, 50.0));
    }
}
