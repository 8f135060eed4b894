//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, and readings of this process from `/proc/self`.

use std::time::Duration;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// A tail latency together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (the one asked for, or the
    /// highest lower one the sample supports).
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The nearest-rank `percentile` of `samples`, provided at least
/// [`TAIL_SAMPLES`] samples lie beyond it. When the sample is too small
/// for `percentile`, the highest percentile it does support is reported
/// instead (and named in [`Tail::percentile`]); `None` when even the
/// median is unsupported.
pub fn tail(samples: &[f64], percentile: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank: the smallest rank r (1-based) with r / n >= p.
    let wanted = ((percentile / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = wanted.min(n - TAIL_SAMPLES);
    let reported = if rank == wanted {
        percentile
    } else {
        rank as f64 * 100.0 / n as f64
    };
    Some(Tail {
        percentile: reported,
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a ratio over nothing).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// User plus system CPU time this process has used. Linux reports it in
/// clock ticks of `USER_HZ`, which the kernel ABI fixes at 100 per second.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// A `kB` field of `/proc/self/status`, or 0 when absent.
fn status_field(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Threads this process runs now.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// File descriptors this process holds open now.
pub fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count() as u64)
}

/// Resident set size of this process now, MiB.
pub fn rss_mib() -> f64 {
    status_field("VmRSS:") as f64 / 1024.0
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled, so the function must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!((t.samples, t.beyond), (1000, 10));

        let t = tail(&ramp(2000), 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (1980.0, 20));
    }

    #[test]
    fn too_few_samples_fall_back_to_the_highest_supported_percentile() {
        let t = tail(&ramp(999), 99.0).unwrap();
        assert_eq!(t.beyond, TAIL_SAMPLES);
        assert_eq!(t.value, 989.0);
        assert!(
            t.percentile < 99.0 && t.percentile > 98.9,
            "{}",
            t.percentile
        );
        assert_eq!(t.samples, 999);

        let t = tail(&ramp(20), 99.0).unwrap();
        assert_eq!((t.value, t.beyond, t.percentile), (10.0, 10, 50.0));
        assert!(tail(&ramp(10), 50.0).is_none());
        assert!(tail(&[], 99.0).is_none());
    }

    #[test]
    fn median_and_ratio_edges() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(threads() >= 1);
        assert!(open_fds() >= 3);
        assert!(peak_rss_mib() > 0.0);
        let t0 = process_cpu();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu() > t0);
    }
}
