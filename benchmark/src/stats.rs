//! Order statistics: the percentile picker for per-op latencies and the
//! quartile spread the A/A check judges run-to-run noise by.

/// How many samples must lie beyond a reported percentile for it to be
/// a statement about the distribution and not about one outlier.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the picker may report, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The small offset keeps a product that is a whole number in exact
    // arithmetic (99.9 % of 1000) from rounding up to the next rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice. Panics when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`LADDER`] that `n` samples support under
/// the [`MIN_BEYOND`] rule; `None` when not even the median qualifies.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Median of unordered values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the definition the acceptance check of this benchmark uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.9), 999);
    }

    #[test]
    fn picker_needs_ten_samples_beyond() {
        // 1000 samples: rank 990 is p99, ten beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
