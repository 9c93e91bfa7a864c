//! Exact order statistics over raw samples.
//!
//! Latency percentiles are computed from every recorded sample by nearest
//! rank, never from bucketed histograms: a log2 histogram reports each
//! bucket's upper edge, so every quantile that falls in one bucket reads
//! the same number.  A tail percentile is reported only when the sample
//! supports it, i.e. when at least [`MIN_BEYOND`] samples lie beyond it.

/// How many samples must lie strictly beyond a percentile's rank before
/// the percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank rank (1-based) of percentile `p` (in `(0, 100]`) in a
/// sample of `n`: the smallest rank whose cumulative share reaches `p`.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    // Integer arithmetic on p × 1e6 avoids float ceil surprises such as
    // 0.99 × 100 = 98.99999999999999.
    let scaled = (p * 1e6).round() as u128;
    let rank = (scaled * n as u128).div_ceil(100_000_000);
    (rank as usize).clamp(1, n.max(1))
}

/// Percentile `p` of a sorted sample by nearest rank, or `None` for an
/// empty sample.
pub fn nearest(sorted: &[u64], p: f64) -> Option<u64> {
    sorted.get(nearest_rank(p, sorted.len()) - 1).copied()
}

/// A tail percentile `p` of a sorted sample by nearest rank, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn tail(sorted: &[u64], p: f64) -> Option<u64> {
    let rank = nearest_rank(p, sorted.len());
    if sorted.len().saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    nearest(sorted, p)
}

/// The median of unsorted floats (mean of the middle pair for even
/// counts); `None` for an empty slice.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A summary of one latency sample in milliseconds: the count, the median
/// and the 99th percentile when the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median, in ms.
    pub p50_ms: Option<f64>,
    /// 99th percentile, in ms (only with ≥ [`MIN_BEYOND`] samples beyond).
    pub p99_ms: Option<f64>,
    /// Largest sample, in ms.
    pub max_ms: Option<f64>,
}

impl LatencySummary {
    /// Summarizes raw nanosecond samples (sorted in place).
    pub fn from_nanos(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        let ms = |v: Option<u64>| v.map(|ns| ns as f64 / 1e6);
        LatencySummary {
            count: samples.len(),
            p50_ms: ms(nearest(samples, 50.0)),
            p99_ms: ms(tail(samples, 99.0)),
            max_ms: ms(samples.last().copied()),
        }
    }

    /// `p50 … p99 … (n samples)` for the human-readable report.
    pub fn describe(&self) -> String {
        let show = |v: Option<f64>| match v {
            Some(ms) => format!("{ms:.4} ms"),
            None => "unsupported".to_string(),
        };
        format!(
            "p50 {} | p99 {} | max {} | {} samples",
            show(self.p50_ms),
            show(self.p99_ms),
            show(self.max_ms),
            self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // Nearest rank: ceil(p/100 × n).
        assert_eq!(nearest_rank(50.0, 10), 5);
        assert_eq!(nearest_rank(50.0, 11), 6);
        assert_eq!(nearest_rank(99.0, 100), 99);
        assert_eq!(nearest_rank(99.0, 1000), 990);
        assert_eq!(nearest_rank(99.0, 1001), 991);
        assert_eq!(nearest_rank(100.0, 7), 7);
        assert_eq!(nearest_rank(0.1, 7), 1);
    }

    #[test]
    fn percentiles_of_a_known_sample() {
        // 1..=2000: p50 is the 1000th value, p99 the 1980th, with 20
        // samples beyond it.
        let sorted: Vec<u64> = (1..=2000).collect();
        assert_eq!(nearest(&sorted, 50.0), Some(1000));
        assert_eq!(tail(&sorted, 99.0), Some(1980));
        assert_eq!(nearest(&sorted, 100.0), Some(2000));
        // The maximum never has samples beyond it.
        assert_eq!(tail(&sorted, 100.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // n = 1009: rank 999, exactly 10 beyond → reported.
        let enough: Vec<u64> = (0..1009).collect();
        assert_eq!(tail(&enough, 99.0), Some(998));
        // n = 1000: rank 990, exactly 10 beyond → reported.
        let edge: Vec<u64> = (0..1000).collect();
        assert_eq!(tail(&edge, 99.0), Some(989));
        // n = 999: rank 990, only 9 beyond → withheld.
        let short: Vec<u64> = (0..999).collect();
        assert_eq!(tail(&short, 99.0), None);
        // The median of a tiny sample is still reported.
        assert_eq!(nearest(&[3, 5, 7], 50.0), Some(5));
        assert_eq!(nearest(&[], 50.0), None);
    }

    #[test]
    fn summary_reports_count_and_withholds_an_unsupported_tail() {
        let mut samples: Vec<u64> = (1..=500).rev().map(|x| x * 1_000_000).collect();
        let s = LatencySummary::from_nanos(&mut samples);
        assert_eq!(s.count, 500);
        assert_eq!(s.p50_ms, Some(250.0));
        assert_eq!(s.p99_ms, None);
        assert_eq!(s.max_ms, Some(500.0));
        assert!(s.describe().contains("500 samples"));
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
    }
}
