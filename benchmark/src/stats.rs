//! Order statistics and the log-bucket histogram the span recorder
//! aggregates into.

/// Median and quartiles of a sample, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is how
/// the acceptance driver computes run-to-run spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of `values`. One value is its own median and quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are harness bugs.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured sample"));
    let n = v.len();
    // Exclusive method: the i-th cut sits at position i*(n+1)/4 in
    // 1-based order statistics, linearly interpolated and clamped.
    let cut = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    }
}

/// Median of `values` (see [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// The percentiles a timing may be reported at, lowest first.
pub const PERCENTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// The highest of [`PERCENTILES`] that still has at least ten samples
/// beyond it in a sample of `n`; `None` below 20 samples, where not even
/// the median qualifies.
pub fn highest_resolved_percentile(n: u64) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rfind(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// `wanted` if `n` samples resolve it, otherwise the highest percentile
/// they do resolve (the median when nothing qualifies).
pub fn resolved_or_lower(wanted: f64, n: u64) -> f64 {
    match highest_resolved_percentile(n) {
        Some(p) if p >= wanted => wanted,
        Some(p) => p,
        None => 0.5,
    }
}

/// Sub-buckets per power of two: values within a bucket differ by at
/// most 1/8, so a quantile is read to about ±6 %.
const SUB: u32 = 8;
const SUB_BITS: u32 = 3;
/// Buckets for every `u64`: 8 exact small values, then 8 per octave.
const BUCKETS: usize = ((64 - SUB_BITS) * SUB + SUB) as usize;

/// A histogram of nanosecond durations in logarithmic buckets.
#[derive(Clone)]
pub struct LogHist {
    counts: Box<[u64; BUCKETS]>,
    n: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: Box::new([0; BUCKETS]),
            n: 0,
        }
    }
}

impl LogHist {
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let top = 63 - v.leading_zeros();
        let sub = (v >> (top - SUB_BITS)) & (SUB as u64 - 1);
        ((top - SUB_BITS + 1) * SUB) as usize + sub as usize
    }

    /// The smallest value that lands in bucket `b`.
    fn floor_of(b: usize) -> u64 {
        let b = b as u32;
        if b < SUB {
            return b as u64;
        }
        let top = b / SUB + SUB_BITS - 1;
        let sub = (b % SUB) as u64;
        (1u64 << top) | (sub << (top - SUB_BITS))
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The midpoint of the bucket holding the `q`-quantile (0 when
    /// empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((self.n as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = Self::floor_of(b);
                let hi = if b + 1 < BUCKETS {
                    Self::floor_of(b + 1)
                } else {
                    u64::MAX
                };
                return lo as f64 + (hi - lo).saturating_sub(1) as f64 / 2.0;
            }
        }
        unreachable!("rank {rank} beyond {} recorded samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[20.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 4.0, 12.0));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let q = quartiles(&[90.0, 100.0, 110.0]);
        assert!((q.iqr_share() - 0.2).abs() < 1e-12);
        assert_eq!(quartiles(&[0.0, 0.0, 0.0]).iqr_share(), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_resolved_percentile(19), None);
        assert_eq!(highest_resolved_percentile(20), Some(0.5));
        assert_eq!(highest_resolved_percentile(99), Some(0.5));
        assert_eq!(highest_resolved_percentile(100), Some(0.9));
        assert_eq!(highest_resolved_percentile(999), Some(0.9));
        assert_eq!(highest_resolved_percentile(1_000), Some(0.99));
        assert_eq!(highest_resolved_percentile(10_000), Some(0.999));
        assert_eq!(highest_resolved_percentile(5_000_000), Some(0.9999));
        assert_eq!(resolved_or_lower(0.99, 2_000), 0.99);
        assert_eq!(resolved_or_lower(0.99, 500), 0.9);
        assert_eq!(resolved_or_lower(0.99, 5), 0.5);
    }

    #[test]
    fn log_hist_buckets_are_contiguous_and_ordered() {
        for v in [0u64, 1, 7, 8, 9, 15, 16, 17, 1_000, 123_456_789, u64::MAX] {
            let b = LogHist::bucket(v);
            assert!(LogHist::floor_of(b) <= v, "floor of bucket({v})");
            if b + 1 < BUCKETS {
                assert!(v < LogHist::floor_of(b + 1), "ceiling of bucket({v})");
            }
        }
        for b in 1..BUCKETS {
            assert!(LogHist::floor_of(b) > LogHist::floor_of(b - 1));
            assert_eq!(LogHist::bucket(LogHist::floor_of(b)), b);
        }
    }

    #[test]
    fn log_hist_quantiles_land_within_a_bucket_width() {
        let mut h = LogHist::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        for (q, exact) in [(0.5, 5_000.0), (0.99, 9_900.0), (1.0, 10_000.0)] {
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 0.07, "q{q}: {got} vs {exact}");
        }
        let mut other = LogHist::default();
        other.record(1_000_000);
        h.merge(&other);
        assert_eq!(h.count(), 10_001);
        assert!(h.quantile(1.0) > 900_000.0);
        assert_eq!(LogHist::default().quantile(0.5), 0.0);
    }
}
