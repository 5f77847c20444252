//! Order statistics for the benchmark's own reporting: medians, the
//! percentile picker with the "at least ten samples beyond" rule, and the
//! quartile spread the acceptance check uses.

/// Percentiles the picker may report, lowest first, each with the share
/// of samples beyond it in parts per 10 000 (exact, unlike `1 - p/100`).
const PERCENTILES: [(f64, u64); 5] = [
    (50.0, 5_000),
    (90.0, 1_000),
    (99.0, 100),
    (99.9, 10),
    (99.99, 1),
];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: u64 = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest value; 0 when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest value; 0 when empty.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of [`PERCENTILES`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any.
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .find(|(_, tail)| n as u64 * tail >= MIN_BEYOND * 10_000)
        .map(|(p, _)| *p)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. Needs at least two values.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    assert!(len >= 2, "quartiles need two values");
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(max(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn picker_honours_ten_samples_beyond() {
        // p99 leaves exactly ten of a thousand samples beyond it
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(19), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
