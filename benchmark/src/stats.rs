//! Order statistics used by every workload: nearest-rank percentiles, the
//! "highest percentile with at least ten samples beyond it" rule, and
//! quartile spread.

/// Samples needed beyond a reported percentile for it to mean anything.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Nearest-rank percentile `p` (0..=100) of `v` (need not be sorted).
/// Panics on an empty slice: every caller has checked its sample count.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank_index(s.len(), p)]
}

/// Index of the nearest-rank `p`-th percentile in a sorted slice of `n`.
fn rank_index(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products (99.9% of 10000) from rounding up.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// The highest percentile in the tail ladder that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        // 999 samples: p99 leaves 9 beyond, so the rule falls to p95.
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
