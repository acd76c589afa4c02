//! Order statistics for the benchmark's reported numbers.

/// Percentiles a latency tail may be reported at, lowest first.
const TAIL_CANDIDATES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps float error in `p / 100 * n` from bumping an exact rank
/// (99.9% of 10,000 is rank 9,990) up by one.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100] of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(p, v.len()) - 1])
}

/// The highest of [`TAIL_CANDIDATES`] that still leaves at least ten of
/// `n` samples beyond it, so a tail is never read off a handful of
/// outliers. `None` when even the median has fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|&p| n > 0 && n - rank(p, n) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_is_highest_with_ten_samples_beyond() {
        // 120 samples: p90 leaves 12 beyond, p99 leaves 1.
        assert_eq!(tail_percentile(120), Some(90.0));
        // Exactly ten beyond p90 at 100 samples; nine at 99.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
