//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending-sorted sample; `q` in
/// `[0, 1]`; zero when the sample is empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

/// A tail percentile is only reported when at least this many samples
/// lie beyond it; with fewer it is one or two outliers, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// How many samples lie strictly beyond the `q` percentile's rank.
pub fn beyond(len: usize, q: f64) -> usize {
    if len == 0 {
        return 0;
    }
    len - 1 - ((len - 1) as f64 * q) as usize
}

/// The `q` percentile if at least [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[u64], q: f64) -> Option<u64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND).then(|| percentile(sorted, q))
}

/// Median of an unsorted float sample (mean of the middle pair when
/// even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: rank 989, so 10 lie beyond — just enough.
        let s: Vec<u64> = (0..1000).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail(&s, 0.99), Some(989));
        // 900 samples: rank 890, 9 beyond — withheld.
        assert_eq!(beyond(900, 0.99), 9);
        assert_eq!(tail(&s[..900], 0.99), None);
        assert_eq!(tail(&s[..19], 0.5), None);
        assert_eq!(tail(&s[..21], 0.5), Some(10));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean([1.0, 2.0, 6.0].into_iter()), 3.0);
        assert_eq!(mean(std::iter::empty()), 0.0);
    }
}
