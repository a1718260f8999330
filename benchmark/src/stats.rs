//! Order statistics with the benchmark's reporting rule: a percentile
//! is reported only where at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p`% of the sample at or below it. Returns the value
/// and its 1-based rank.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    Some((sorted[rank - 1], rank))
}

/// [`nearest_rank`], but only when at least [`MIN_BEYOND`] samples lie
/// beyond the percentile; a tail percentile over too few samples is a
/// single outlier, not a distribution.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let (value, rank) = nearest_rank(sorted, p)?;
    (sorted.len() - rank >= MIN_BEYOND).then_some(value)
}

/// Smallest sample count for which `p` is reportable.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
            n - rank.min(n) >= MIN_BEYOND
        })
        .expect("some sample count supports any p < 100")
}

/// Sort a sample in place (timings are finite by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Median and quartiles of a sample, nearest-rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Samples behind the summary.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// Summarize an unsorted sample; `None` when it is empty.
    pub fn of(values: &[f64]) -> Option<Spread> {
        let s = sorted(values.to_vec());
        Some(Spread {
            n: s.len(),
            q1: nearest_rank(&s, 25.0)?.0,
            median: nearest_rank(&s, 50.0)?.0,
            q3: nearest_rank(&s, 75.0)?.0,
        })
    }
}

/// Median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    Spread::of(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_sample_at_the_rank() {
        let s = ramp(10);
        assert_eq!(nearest_rank(&s, 50.0), Some((5.0, 5)));
        assert_eq!(nearest_rank(&s, 51.0), Some((6.0, 6)));
        assert_eq!(nearest_rank(&s, 0.0), Some((1.0, 1)));
        assert_eq!(nearest_rank(&s, 100.0), Some((10.0, 10)));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(supported_percentile(&ramp(1000), 99.0), Some(990.0));
        // One sample fewer leaves nine beyond: not reportable.
        assert_eq!(supported_percentile(&ramp(999), 99.0), None);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(50.0), 20);
        // The median of a small sample is still a median.
        assert_eq!(supported_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(supported_percentile(&ramp(19), 50.0), None);
    }

    #[test]
    fn spread_reports_quartiles() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0]).expect("non-empty");
        assert_eq!((s.n, s.q1, s.median, s.q3), (4, 1.0, 2.0, 3.0));
        assert!(Spread::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }
}
