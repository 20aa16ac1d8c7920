//! Order statistics and the process's own resource readings.

use std::time::Duration;

/// The `q`-quantile (0..=1) of `sorted`, nearest rank.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
}

/// Median with the two middle values averaged, as Python's
/// `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 (1-based), interpolated between the neighbours
        // j and j+1 — extrapolated when j had to be clamped, as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

fn proc_self(file: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{file}")).unwrap_or_default()
}

/// Starts a new peak for [`peak_rss_mb`] at the current resident set size.
/// Where the kernel refuses, the peak stays the process's so far, and a
/// round's reading is the largest of all rounds up to it.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`) since the last reset, in
/// MiB.
pub fn peak_rss_mb() -> f64 {
    proc_self("status")
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used so far, all threads, user + system.
/// `/proc/self/stat` counts in clock ticks, 100 per second on Linux.
pub fn cpu_time() -> Duration {
    let stat = proc_self("stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th after ") ".
    let ticks: u64 = stat
        .rsplit_once(") ")
        .map(|(_, rest)| {
            rest.split(' ')
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_time();
        let mut x = 0u64;
        while cpu_time() == before {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        assert!(cpu_time() > before);
    }
}
