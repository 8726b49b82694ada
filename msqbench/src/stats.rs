//! Order statistics: nearest-rank percentiles and round summaries.

/// Nearest-rank percentile (`pct` in (0, 100]) of an ascending-sorted
/// slice: the same rule as `msq_harness::percentile_ns`, for any ordered
/// sample type.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile<T: Copy>(sorted: &[T], pct: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.99, p99.9 and p99 that leaves at least ten samples
/// beyond it, or `None` when even p99 does not (fewer than 1,000 samples).
pub fn tail_pct(n: usize) -> Option<f64> {
    // In parts per ten thousand, so the rank arithmetic is exact.
    [9_999usize, 9_990, 9_900]
        .into_iter()
        .find(|&parts| n - (n * parts).div_ceil(10_000) >= 10)
        .map(|parts| parts as f64 / 100.0)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Median and quartiles of a metric's per-round values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` (any order) by nearest rank.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or holds a NaN.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
        Summary {
            median: percentile(&sorted, 50.0),
            q1: percentile(&sorted, 25.0),
            q3: percentile(&sorted, 75.0),
            n: sorted.len(),
        }
    }
}

/// Percentile summary of a host-time sample set: p50 and p99 by nearest
/// rank, plus the tail percentile the sample count supports.
#[derive(Debug)]
pub struct Latencies {
    sorted: Vec<u64>,
}

impl Latencies {
    pub fn new(mut samples: Vec<u64>) -> Latencies {
        samples.sort_unstable();
        Latencies { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `pct`-th percentile, or 0 for an empty set.
    pub fn pct(&self, pct: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile(&self.sorted, pct) as f64
        }
    }

    /// `p50=… p99.9=… n=…` for the human-readable report.
    pub fn describe(&self) -> String {
        match tail_pct(self.len()) {
            Some(tail) => format!(
                "p50={} p{tail}={} n={}",
                self.pct(50.0),
                self.pct(tail),
                self.len()
            ),
            None => format!(
                "p50={} n={} (too few for a tail)",
                self.pct(50.0),
                self.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_queues::percentile_ns;

    #[test]
    fn percentile_agrees_with_the_harness_helper() {
        let mut state = 7u64;
        for n in [1usize, 2, 3, 10, 11, 99, 100, 1_001] {
            let mut samples: Vec<u64> = (0..n)
                .map(|_| {
                    state = crate::splitmix64(state);
                    state % 10_000
                })
                .collect();
            samples.sort_unstable();
            for pct in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(
                    percentile(&samples, pct),
                    percentile_ns(&samples, pct),
                    "n={n} pct={pct}"
                );
            }
            let floats: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
            let summary = Summary::of(&floats);
            assert_eq!(summary.median, percentile_ns(&samples, 50.0) as f64);
            assert_eq!(summary.q1, percentile_ns(&samples, 25.0) as f64);
            assert_eq!(summary.q3, percentile_ns(&samples, 75.0) as f64);
            assert_eq!(summary.n, n);
        }
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_pct(999), None);
        assert_eq!(tail_pct(1_000), Some(99.0));
        assert_eq!(tail_pct(9_999), Some(99.0));
        assert_eq!(tail_pct(10_000), Some(99.9));
        assert_eq!(tail_pct(99_999), Some(99.9));
        assert_eq!(tail_pct(100_000), Some(99.99));
    }
}
