//! Order statistics for timing samples: median, quartiles, and the
//! "highest percentile with at least ten samples beyond it" rule.

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// What every timed metric reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `samples`; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, by the rule of Python's
/// `statistics.quantiles(data, n=4)` (exclusive method) so the harness and
/// whoever re-checks its spread agree to the last digit. A single sample is
/// its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles, minimum and count of `samples`.
pub fn summarize(samples: &[f64]) -> Summary {
    let (q1, q3) = quartiles(samples);
    Summary {
        median: median(samples),
        q1,
        q3,
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        n: samples.len(),
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps 99.9 % of 10 000 at rank 9 990 despite the rounding of `p / 100`.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest of the usual tail percentiles that still has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the 75th has not.
pub fn highest_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n >= rank(n.max(1), p) + MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_carries_min_and_count() {
        let s = summarize(&[2.0, 9.0, 4.0]);
        assert_eq!((s.median, s.min, s.n), (4.0, 2.0, 3));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 60.0);
        assert_eq!(percentile(&v, 90.0), 108.0);
        assert_eq!(percentile(&v, 100.0), 120.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 120 samples: p90 leaves 12 beyond, p95 only 6.
        assert_eq!(highest_tail(120), Some(90.0));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(99), Some(75.0));
        // 1000 samples: p99 leaves 10.
        assert_eq!(highest_tail(1000), Some(99.0));
        assert_eq!(highest_tail(10_000), Some(99.9));
        // 39 samples: p75 has rank 30, 9 beyond.
        assert_eq!(highest_tail(39), None);
        assert_eq!(highest_tail(40), Some(75.0));
        assert_eq!(highest_tail(0), None);
    }
}
