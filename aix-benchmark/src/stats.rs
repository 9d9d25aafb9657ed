//! Order statistics over timing samples.

/// The median: the middle sample, or the mean of the two middle samples
/// when the count is even. `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-th percentile (`0 < q ≤ 100`): the smallest sample
/// with at least `q` % of the samples at or below it.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let sorted = sorted(samples);
    match rank(sorted.len(), q) {
        0 => f64::NAN,
        r => sorted[r - 1],
    }
}

/// How many samples lie strictly beyond the nearest-rank `q`-th percentile.
/// A tail percentile is reported only when at least ten samples lie
/// beyond it; fewer would make it a reading of single outliers.
pub fn beyond(count: usize, q: f64) -> usize {
    count - rank(count, q)
}

/// The 1-based nearest rank of the `q`-th percentile among `count` samples.
fn rank(count: usize, q: f64) -> usize {
    if count == 0 {
        return 0;
    }
    // `q × count` is exact for integral inputs, so whole ranks stay whole.
    ((q * count as f64 / 100.0).ceil() as usize).clamp(1, count)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_two_middles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        // Rank ceil(0.99 × 2000) = 1980: the 1980th smallest sample.
        assert_eq!(percentile(&samples, 99.0), 1980.0);
        assert_eq!(beyond(2000, 99.0), 20);
        assert_eq!(percentile(&samples, 50.0), 1000.0);
        assert_eq!(percentile(&samples, 100.0), 2000.0);
        // Rank ceil(0.9 × 7) = 7 leaves nothing beyond.
        assert_eq!(percentile(&[5.0, 1.0, 7.0, 2.0, 6.0, 3.0, 4.0], 90.0), 7.0);
        assert_eq!(beyond(7, 90.0), 0);
        assert_eq!(beyond(100, 90.0), 10);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
