//! Order statistics shared by the workloads and `compare`.

/// Median of `values` (the mean of the two middle values for an even
/// count); `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method),
/// so spreads read the same here and in a notebook. `None` below two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a bound is judged against. `None` below two values or at a zero median.
#[must_use]
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]`.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps `0.99 × 1000` at rank 990 despite binary rounding.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest of p99.9, p99, p90 and p50 that leaves at least ten samples
/// beyond it, so a tail figure is never read off a handful of samples.
#[must_use]
pub fn supported_tail(sorted: &[u64]) -> Option<u64> {
    let n = sorted.len() as f64;
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|p| n * (1.0 - p) >= 10.0)
        .and_then(|p| percentile(sorted, p))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (extrapolated)
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).expect("ten values");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let big: Vec<u64> = (1..=20_000).collect();
        assert_eq!(supported_tail(&big), Some(19_980)); // p99.9: 20 beyond
        let mid: Vec<u64> = (1..=1_000).collect();
        assert_eq!(supported_tail(&mid), Some(990)); // p99: 10 beyond
        let small: Vec<u64> = (1..=50).collect();
        assert_eq!(supported_tail(&small), Some(25)); // only p50 qualifies
        assert_eq!(supported_tail(&[1, 2, 3]), None);
    }
}
