//! Order statistics for host-time samples.
//!
//! The percentile rule: a timing is reported as its median plus the
//! highest percentile that still has at least [`MIN_BEYOND`] samples above
//! it, together with the sample count. A named tail metric (`…_p90_…`,
//! `…_p99_…`) is only reported when its sample count supports it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down.
const LADDER: [f64; 3] = [0.999, 0.99, 0.9];

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps `0.99 * 1000` from rounding up past the textbook
    // nearest rank when the product lands a hair above a whole number.
    let r = (q * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank quantile `q` of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, q)
}

/// Whether `n` samples support reporting quantile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// Nearest-rank quantile of `samples` (any order). `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), q)])
}

/// Median (mean of the two middle samples for an even count). `None`
/// when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[m - 1] + v[m]) / 2.0
    } else {
        v[m]
    })
}

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&q| supports(n, q))
}

/// One timing summarized by the percentile rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// The highest supported tail percentile and its value, if any.
    pub tail: Option<(f64, f64)>,
}

/// Summarizes `samples`; `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let median = median(samples)?;
    let tail = highest_supported(samples.len()).and_then(|q| quantile(samples, q).map(|v| (q, v)));
    Some(Summary {
        n: samples.len(),
        median,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ramp(100);
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_ignores_input_order() {
        let mut v = ramp(250);
        v.reverse();
        assert_eq!(quantile(&v, 0.9), Some(225.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ten_samples_beyond_is_the_threshold() {
        assert_eq!(beyond(100, 0.9), 10);
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(1_000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(10_000, 0.999));
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn picks_the_highest_supported_percentile() {
        assert_eq!(highest_supported(50), None);
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(20_000), Some(0.999));
    }

    #[test]
    fn summary_carries_count_median_and_tail() {
        let s = summarize(&ramp(1_000)).unwrap();
        assert_eq!(s.n, 1_000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((0.99, 990.0)));
        let small = summarize(&ramp(20)).unwrap();
        assert_eq!(small.tail, None);
        assert!(summarize(&[]).is_none());
    }
}
