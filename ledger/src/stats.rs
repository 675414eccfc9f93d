//! Order statistics over raw samples. Latency percentiles here come from
//! the raw per-call values, not from log-bucket histograms, so a sim-clock
//! percentile repeats to the microsecond.

/// Samples that must lie beyond a reported percentile for it to be
/// trusted (the ledger reports p99, so 1 000 samples are the floor).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule: the
/// smallest sample with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_SAMPLES_BEYOND`] beyond the
/// `q`-quantile.
pub fn supports_percentile(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() as usize >= MIN_SAMPLES_BEYOND
}

/// Sorts samples ascending (total order; the ledger never produces NaN).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// The median of `xs` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// `(max − min) ÷ median`: the host-pass spread the ledger prints and
/// gates `unresolved` on.
pub fn spread(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    (s[s.len() - 1] - s[0]) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 3 samples: p50 is the 2nd (ceil(1.5) = 2).
        assert_eq!(percentile(&[1.0, 2.0, 9.0], 0.5), 2.0);
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        assert!(!supports_percentile(999, 0.99));
        assert!(supports_percentile(1_000, 0.99));
        assert!(supports_percentile(3_000, 0.99));
        assert!(supports_percentile(20, 0.5));
        assert!(!supports_percentile(19, 0.5));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((spread(&[1.0, 1.02, 0.98]) - 0.04).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
