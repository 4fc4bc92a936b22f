//! Order statistics over a run's samples.

/// Median (mean of the two middle values for an even count); `None` for
/// no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    Some(v[nearest_rank(v.len(), p) - 1])
}

/// Percentiles a run may report as its tail.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile needs beyond it before it is reported.
const TAIL_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// of `n` samples beyond it, with its value; `None` below 11 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    let p = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n - nearest_rank(n, p) >= TAIL_BEYOND)?;
    Some((p, percentile(xs, p)?))
}

/// Share of attempted solves that failed; 0 when nothing was attempted.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `a / b`, or 0 when `b` is 0 (ratios of counts that may be empty).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&xs(10)), None);
        // 11 samples: the median (rank 6) has only 5 beyond.
        assert_eq!(tail(&xs(11)), None);
        // 20 samples: p50 is rank 10 with exactly 10 beyond.
        assert_eq!(tail(&xs(20)), Some((50.0, 10.0)));
        // 100 samples: p90 is rank 90 with 10 beyond; p95 has only 5.
        assert_eq!(tail(&xs(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 is rank 990 with 10 beyond.
        assert_eq!(tail(&xs(1000)), Some((99.0, 990.0)));
    }

    #[test]
    fn failed_frac_counts_against_attempted() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(8, 0), 0.0);
        assert_eq!(failed_frac(8, 2), 0.25);
    }

    #[test]
    fn ratio_of_empty_count_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
