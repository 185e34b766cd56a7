//! Order statistics over recorded samples: nearest-rank percentiles,
//! the "at least ten samples beyond" reporting rule, and medians.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` in `n` samples: the smallest
/// rank `r` with `r / n >= q` (clamped to `1..=n`).
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "nearest rank of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    // The small epsilon keeps e.g. 0.99 * 1000 = 990.0000000000001
    // from rounding up to 991.
    let r = (q * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample: an actual
/// sample value, never an interpolation. `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// How many samples lie beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// Whether the `q` percentile of `n` samples has enough samples
/// beyond it to be reported.
pub fn reportable(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// Median of a non-empty list (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty list");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency sample set in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    ns: Vec<u64>,
    sorted: bool,
}

impl Latencies {
    /// Records one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Latencies) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentile in milliseconds.
    pub fn pct_ms(&mut self, q: f64) -> Option<f64> {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        percentile(&self.ns, q).map(|ns| ns as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(1, 0.5), 1);
        assert_eq!(nearest_rank(1, 0.99), 1);
        assert_eq!(nearest_rank(4, 0.5), 2);
        assert_eq!(nearest_rank(5, 0.5), 3);
        assert_eq!(nearest_rank(100, 0.99), 99);
        assert_eq!(nearest_rank(1000, 0.99), 990);
        assert_eq!(nearest_rank(1001, 0.99), 991);
        assert_eq!(nearest_rank(10, 0.0), 1);
        assert_eq!(nearest_rank(10, 1.0), 10);
    }

    #[test]
    fn percentile_returns_a_real_sample() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Some(50));
        assert_eq!(percentile(&s, 0.99), Some(99));
        assert_eq!(percentile(&s, 1.0), Some(100));
        assert_eq!(percentile(&[7, 9], 0.5), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(999, 0.99), 9);
        assert!(!reportable(999, 0.99));
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(reportable(1000, 0.99));
        assert!(reportable(20, 0.5));
        assert!(!reportable(0, 0.5));
    }

    #[test]
    fn latencies_sort_lazily() {
        let mut l = Latencies::default();
        for ns in [3_000_000, 1_000_000, 2_000_000] {
            l.push(ns);
        }
        assert_eq!(l.pct_ms(0.5), Some(2.0));
        l.push(500_000);
        assert_eq!(l.pct_ms(0.0), Some(0.5));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
