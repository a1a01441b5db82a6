//! Timing and summary helpers shared by the workloads.

use std::time::Instant;
use xsc_metrics::quantiles::percentile;

/// Set-up is repeated at least this many times per run ...
pub const SETUP_MIN_REPS: usize = 3;
/// ... and until this much time has passed, so a cheap set-up is still
/// timed often enough for its median to be steady.
pub const SETUP_MIN_SECONDS: f64 = 1.0;

/// Seconds since `t`.
pub fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nanoseconds since `t`, saturating (a run would need 584 years to
/// overflow).
pub fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Whether a run of repeated operations starts another one: always until
/// `min` are done, then while one more, taking as long as the last
/// (`last_s`), is expected to end within `seconds` of `start`.
pub fn another(done: u64, min: u64, start: Instant, last_s: f64, seconds: f64) -> bool {
    done < min || seconds_since(start) + last_s <= seconds
}

/// Median of `values` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentiles a tail is read at, highest first.
const TAIL_PERCENTILES: [f64; 3] = [99.0, 90.0, 75.0];

/// The highest of p99, p90, p75 that has at least ten of `n` samples
/// beyond it, else p50: the highest tail a sample of `n` supports.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| n - ((p / 100.0) * n as f64).ceil() as usize >= 10)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile `p` of nanosecond samples, in milliseconds.
pub fn percentile_ms(samples_ns: &[u64], p: f64) -> f64 {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, p) as f64 / 1e6
}

/// The [`tail_percentile`] of durations given in seconds, in milliseconds.
pub fn tail_ms(seconds: &[f64]) -> f64 {
    let ns: Vec<u64> = seconds.iter().map(|s| (s * 1e9) as u64).collect();
    percentile_ms(&ns, tail_percentile(ns.len()))
}

/// Builds with `build` [`SETUP_MIN_REPS`] times or more, until
/// [`SETUP_MIN_SECONDS`] have passed, and returns the last result with the
/// median build time. The previous result is dropped before the next
/// build, so peak memory holds one copy.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS || seconds_since(start) < SETUP_MIN_SECONDS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(seconds_since(t));
    }
    (last.expect("built at least once"), median(&times))
}

/// Peak resident set size of this process in megabytes (10⁶ bytes), from
/// `VmHWM` in `/proc/self/status`. The benchmark runs on Linux.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status (Linux)");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_ms(&[0.004, 0.001, 0.002, 0.003]), 2.0);
        assert_eq!(percentile_ms(&[3_000_000, 1_000_000, 2_000_000], 99.0), 3.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(40_000), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(6), 50.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
