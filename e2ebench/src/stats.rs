//! The benchmark's own statistics: medians, nearest-rank percentiles,
//! quartile spreads and the peak-RSS reader. Kept apart from the program
//! under test so a change to the program's histograms cannot move them.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100): the smallest sample with at
/// least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, so that it describes a tail rather than
/// a handful of outliers: 99.9 needs 10 000 samples, 99 needs 1 000,
/// 95 needs 200 and 90 needs 100. Below 40 samples only the median is
/// meaningful (`None`).
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 40 {
        return None;
    }
    [99.9, 99.0, 95.0, 90.0, 75.0].into_iter().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// First quartile, median and third quartile with the same method as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Position j/(n+1) along the sorted data, 1-based, clamped.
        let m = n as f64 + 1.0;
        let pos = i as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median (the run-to-run
/// spread the bounds are set from). `None` with fewer than two values
/// or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set size of this process in MiB, from the kernel's
/// high-water mark (`VmHWM` in `/proc/self/status`). `None` where the
/// file or the field is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// The `VmHWM` field of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 100.0), Some(1000.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 99.0), None);
        // Exactly ten samples lie beyond the 99th percentile of 1000.
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [40usize, 150, 999, 1000, 5000, 20_000] {
            let p = tail_percentile(n).unwrap();
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let cut = percentile(&v, p).unwrap();
            assert!(v.iter().filter(|&&x| x > cut).count() >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_parser() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM: lots\n"), None);
    }

    #[test]
    fn peak_rss_grows_when_memory_is_touched() {
        let before = peak_rss_mb().expect("procfs is readable");
        assert!(before > 0.0);
        let block = std::hint::black_box(vec![1u8; 64 << 20]);
        let touched: u64 = block.iter().step_by(4096).map(|&b| u64::from(b)).sum();
        assert_eq!(touched, (64 << 20) / 4096);
        let after = peak_rss_mb().expect("procfs is readable");
        assert!(after >= before + 48.0, "peak {before} -> {after} MiB");
    }
}
