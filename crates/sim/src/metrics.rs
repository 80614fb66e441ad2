//! Measurement helpers: percentiles and latency summaries.
//!
//! The paper reports 10th/50th/90th-percentile latencies across ten runs
//! (Figure 8) and 95th-percentile CPU curves across VMs (Figure 9); this
//! module implements those aggregations.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Returns the `p`-th percentile (0..=100) of `samples` by linear
/// interpolation between the two nearest ranks of a sorted copy (the
/// "exclusive" definition spreadsheets call `PERCENTILE.INC`): the rank is
/// `p/100 · (n−1)` and fractional ranks blend the two bracketing samples.
/// `p` outside 0..=100 is clamped.
///
/// Returns `None` for an empty slice.
#[must_use]
pub fn percentile_f64(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Percentile over durations; see [`percentile_f64`].
#[must_use]
pub fn percentile_duration(samples: &[SimDuration], p: f64) -> Option<SimDuration> {
    let vals: Vec<f64> = samples.iter().map(|d| d.as_nanos() as f64).collect();
    percentile_f64(&vals, p).map(|v| SimDuration::from_nanos(v as u64))
}

/// p10/p50/p90 summary of a set of duration samples (a Figure 8 bar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// 10th percentile.
    pub p10: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 90th percentile.
    pub p90: SimDuration,
}

impl LatencySummary {
    /// Summarizes `samples`; returns `None` if empty.
    #[must_use]
    pub fn from_samples(samples: &[SimDuration]) -> Option<Self> {
        Some(LatencySummary {
            p10: percentile_duration(samples, 10.0)?,
            p50: percentile_duration(samples, 50.0)?,
            p90: percentile_duration(samples, 90.0)?,
        })
    }
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p10={} p50={} p90={}", self.p10, self.p50, self.p90)
    }
}

/// Point-wise percentile across many equally-bucketed series
/// (Figure 9's "95th percentile among all VMs").
///
/// Series shorter than the longest are treated as zero-padded, matching a VM
/// that has gone idle.
#[must_use]
pub fn pointwise_percentile(series: &[Vec<f64>], p: f64) -> Vec<f64> {
    let len = series.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            let column: Vec<f64> = series
                .iter()
                .map(|s| s.get(i).copied().unwrap_or(0.0))
                .collect();
            percentile_f64(&column, p).unwrap_or(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_f64(&v, 0.0), Some(1.0));
        assert_eq!(percentile_f64(&v, 50.0), Some(3.0));
        assert_eq!(percentile_f64(&v, 100.0), Some(5.0));
        assert_eq!(percentile_f64(&v, 25.0), Some(2.0));
        assert_eq!(percentile_f64(&[], 50.0), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = vec![0.0, 10.0];
        assert_eq!(percentile_f64(&v, 50.0), Some(5.0));
        assert_eq!(percentile_f64(&v, 90.0), Some(9.0));
    }

    #[test]
    fn percentile_single_sample_is_constant() {
        // With one sample the rank is always 0 regardless of p.
        let v = vec![42.0];
        assert_eq!(percentile_f64(&v, 0.0), Some(42.0));
        assert_eq!(percentile_f64(&v, 50.0), Some(42.0));
        assert_eq!(percentile_f64(&v, 100.0), Some(42.0));
    }

    #[test]
    fn percentile_extremes_hit_min_and_max() {
        let v = vec![7.0, -3.0, 12.5, 0.0];
        assert_eq!(percentile_f64(&v, 0.0), Some(-3.0));
        assert_eq!(percentile_f64(&v, 100.0), Some(12.5));
        // Out-of-range p clamps rather than panicking or extrapolating.
        assert_eq!(percentile_f64(&v, -10.0), Some(-3.0));
        assert_eq!(percentile_f64(&v, 250.0), Some(12.5));
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile_f64(&v, 50.0), Some(3.0));
    }

    #[test]
    fn latency_summary() {
        let samples: Vec<SimDuration> = (1..=10).map(SimDuration::from_secs).collect();
        let s = LatencySummary::from_samples(&samples).unwrap();
        assert!(s.p10 <= s.p50 && s.p50 <= s.p90);
        assert_eq!(s.p50, SimDuration::from_millis(5500));
        assert!(LatencySummary::from_samples(&[]).is_none());
    }

    #[test]
    fn pointwise_percentile_pads_short_series() {
        let series = vec![vec![1.0, 1.0, 1.0], vec![0.0]];
        let p50 = pointwise_percentile(&series, 50.0);
        assert_eq!(p50, vec![0.5, 0.5, 0.5]);
        let p100 = pointwise_percentile(&series, 100.0);
        assert_eq!(p100, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn pointwise_percentile_empty() {
        assert!(pointwise_percentile(&[], 95.0).is_empty());
    }
}
