//! Order statistics under the benchmark's percentile rule.
//!
//! A timing is reported as a median plus the highest percentile that has
//! at least [`MIN_TAIL_SAMPLES`] samples beyond it, so a p99 needs at
//! least 1000 samples and is never read off a thinner tail.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Percentiles the benchmark may report, in per-mille, highest first.
const LADDER_PER_MILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile (in per-mille) that `n` samples support: at least
/// [`MIN_TAIL_SAMPLES`] of them lie beyond it. `None` below 20 samples.
pub fn supported_per_mille(n: usize) -> Option<usize> {
    LADDER_PER_MILLE
        .iter()
        .copied()
        .find(|pm| n * (1000 - pm) >= MIN_TAIL_SAMPLES * 1000)
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn per_mille(sorted: &[f64], pm: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() * pm).div_ceil(1000).max(1);
    sorted[rank - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A latency summary: median, the highest supported percentile, count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// `None` below 40 samples.
    pub p75: Option<f64>,
    /// `None` below 100 samples.
    pub p90: Option<f64>,
    /// The tail percentile actually reported, in per-mille.
    pub tail_pm: usize,
    pub tail: f64,
    pub max: f64,
}

/// Summarize `values` under the percentile rule; `None` when the sample is
/// too small to support even a median with a tail beyond it.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let tail_pm = supported_per_mille(values.len())?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        count: sorted.len(),
        p50: per_mille(&sorted, 500),
        p75: (tail_pm >= 750).then(|| per_mille(&sorted, 750)),
        p90: (tail_pm >= 900).then(|| per_mille(&sorted, 900)),
        tail_pm,
        tail: per_mille(&sorted, tail_pm),
        max: sorted[sorted.len() - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(supported_per_mille(1000), Some(990));
        assert_eq!(supported_per_mille(999), Some(950));
        assert_eq!(supported_per_mille(10_000), Some(999));
        assert_eq!(supported_per_mille(9_999), Some(990));
        assert_eq!(supported_per_mille(200), Some(950));
        assert_eq!(supported_per_mille(100), Some(900));
        assert_eq!(supported_per_mille(40), Some(750));
        assert_eq!(supported_per_mille(20), Some(500));
        assert_eq!(supported_per_mille(19), None);
    }

    #[test]
    fn the_reported_tail_has_ten_samples_beyond_it() {
        for n in [20, 40, 100, 200, 999, 1000, 1500, 10_000] {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let pm = supported_per_mille(n).unwrap();
            let value = per_mille(&sorted, pm);
            let beyond = sorted.iter().filter(|&&v| v > value).count();
            assert!(beyond >= MIN_TAIL_SAMPLES, "n={n} pm={pm} beyond={beyond}");
        }
    }

    #[test]
    fn nearest_rank_and_median() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(per_mille(&sorted, 500), 50.0);
        assert_eq!(per_mille(&sorted, 990), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let summary = summarize(&sorted).unwrap();
        assert_eq!((summary.tail_pm, summary.tail), (900, 90.0));
        assert_eq!((summary.p75, summary.p90), (Some(75.0), Some(90.0)));
        assert_eq!(summarize(&sorted[..99]).unwrap().p90, None);
        assert!(summarize(&sorted[..10]).is_none());
    }
}
