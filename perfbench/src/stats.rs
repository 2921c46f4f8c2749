//! The benchmark's own arithmetic: medians, the tail percentile rule, and
//! the process's memory high-water mark.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in percent.
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples it was taken from.
    pub count: usize,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest percentile, at most `cap_pct`, that leaves at least ten
/// samples beyond it (nearest-rank: the value at rank `r` leaves `n - r`
/// samples beyond). With fewer than twenty samples no percentile at or
/// above the median qualifies, and the median rank is reported with however
/// many samples lie beyond it.
pub fn tail(values: &[f64], cap_pct: f64) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            pct: cap_pct,
            value: 0.0,
            count: 0,
            beyond: 0,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cap_rank = ((cap_pct / 100.0) * n as f64).ceil() as usize;
    let median_rank = n.div_ceil(2);
    let rank = cap_rank
        .min(n.saturating_sub(10))
        .max(median_rank)
        .clamp(1, n);
    Tail {
        pct: (100.0 * rank as f64 / n as f64).min(cap_pct),
        value: v[rank - 1],
        count: n,
        beyond: n - rank,
    }
}

/// Parses the `VmHWM` line of a `/proc/<pid>/status` text into MB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(kb / 1024.0),
        _ => None,
    }
}

/// The process's resident-set high-water mark in MB, from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p95_once_ten_samples_lie_beyond_it() {
        let v: Vec<f64> = (1..=306).map(f64::from).collect();
        let t = tail(&v, 95.0);
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 291.0); // rank ceil(0.95 * 306) = 291
        assert_eq!((t.count, t.beyond), (306, 15));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v, 95.0);
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));
    }

    #[test]
    fn tail_steps_down_to_keep_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 95.0);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&v, 95.0);
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_median_on_few_samples() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        let t = tail(&v, 95.0);
        assert_eq!((t.value, t.count, t.beyond), (3.0, 5, 2));
        assert_eq!(t.pct, 60.0);
        let t = tail(&[7.0], 95.0);
        assert_eq!((t.value, t.beyond), (7.0, 0));
    }

    #[test]
    fn vm_hwm_is_read_in_megabytes() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
        let live = peak_rss_mb().expect("VmHWM is readable on Linux");
        assert!(live > 0.0);
    }
}
