//! Order statistics for small timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller times at least one pass.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation from the median.
#[must_use]
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The `p`-quantile (nearest rank), or `None` when fewer than ten
/// samples lie beyond it — a tail read off fewer points does not repeat.
#[must_use]
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    // The epsilon keeps 0.99 × 1000 = 990.0000000000001 at rank 990.
    let rank = (p * n as f64 - 1e-9).ceil() as usize;
    if rank == 0 || n < rank + 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// What one timed quantity looked like over its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median absolute deviation.
    pub mad: f64,
}

impl Summary {
    /// Summarises a non-empty sample.
    #[must_use]
    pub fn of(xs: &[f64]) -> Self {
        Summary {
            n: xs.len(),
            median: median(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mad: mad(xs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // Deviations from the median 3: 2, 1, 0, 1, 97 → median 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.99), Some(990.0));
        // 999 samples leave only nine beyond the 99th percentile rank.
        assert_eq!(tail_percentile(&xs[..999], 0.99), None);
        assert_eq!(tail_percentile(&xs[..250], 0.95), Some(238.0));
        assert_eq!(tail_percentile(&xs[..250], 0.99), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn summary_reports_extremes() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!(
            (s.n, s.median, s.min, s.max, s.mad),
            (3, 4.0, 2.0, 9.0, 2.0)
        );
    }
}
