//! Log₂-bucketed histograms and the bucket math behind them.
//!
//! The histogram is the workhorse of the latency instrumentation: a fixed
//! array of 65 power-of-two buckets covering the full `u64` range, so
//! recording is a `leading_zeros` plus one array increment (no allocation,
//! no floating point), merging across threads is an elementwise add (and
//! therefore associative and commutative — folding order cannot change the
//! result), and quantiles resolve to deterministic bucket upper bounds
//! rather than interpolated estimates.

/// Number of histogram buckets: bucket 0 holds exactly the value `0`, and
/// bucket `k >= 1` holds the half-open range `[2^(k-1), 2^k)` (the final
/// bucket, `k = 64`, is closed at `u64::MAX`).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Maps a recorded value to its bucket index.
///
/// `0` maps to bucket 0; any other value `v` maps to bucket
/// `64 - v.leading_zeros()`, i.e. one plus the index of its highest set bit.
#[inline]
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The largest value a bucket can hold (used as the deterministic quantile
/// answer for any rank landing in that bucket).
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A plain (non-atomic) log₂-bucketed histogram.
///
/// This is the per-thread / snapshot form: cheap to record into, cheap to
/// [`merge`](Histogram::merge), and the type quantiles are computed on.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Folds another histogram into this one (elementwise bucket add).
    ///
    /// Merging is associative and commutative, so per-thread histograms can
    /// be folded in any order and still produce identical totals.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded observations.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded observations, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Raw bucket counts (index `k` per the [`bucket_index`] scheme).
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Deterministic quantile: the upper bound of the bucket containing the
    /// observation at rank `ceil(q * count)` (clamped to `[1, count]`).
    ///
    /// Returns `None` when the histogram is empty. `q` is clamped to
    /// `[0.0, 1.0]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return Some(bucket_upper_bound(index));
            }
        }
        // Unreachable when counts are consistent; fall back to the top.
        Some(bucket_upper_bound(HISTOGRAM_BUCKETS - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_exact_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for k in 1..64usize {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(bucket_index(lo), k, "low edge of bucket {k}");
            assert_eq!(bucket_index(hi), k, "high edge of bucket {k}");
            assert_eq!(bucket_upper_bound(k), hi);
        }
    }

    #[test]
    fn quantiles_resolve_to_bucket_upper_bounds() {
        let mut h = Histogram::new();
        // 90 observations in bucket 4 ([8, 15]), 10 in bucket 10 ([512, 1023]).
        for _ in 0..90 {
            h.record(9);
        }
        for _ in 0..10 {
            h.record(700);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), Some(15));
        assert_eq!(h.quantile(0.90), Some(15)); // rank 90 is the last in bucket 4
        assert_eq!(h.quantile(0.91), Some(1023));
        assert_eq!(h.quantile(0.99), Some(1023));
        assert_eq!(h.quantile(0.0), Some(15)); // rank clamps to 1
        assert_eq!(h.quantile(1.0), Some(1023));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut parts: Vec<Histogram> = Vec::new();
        for thread in 0..4u64 {
            let mut h = Histogram::new();
            for i in 0..50 {
                h.record(thread * 1000 + i * 17);
            }
            parts.push(h);
        }
        // Left fold.
        let mut left = Histogram::new();
        for p in &parts {
            left.merge(p);
        }
        // Reverse-order fold.
        let mut right = Histogram::new();
        for p in parts.iter().rev() {
            right.merge(p);
        }
        // Tree fold: (0+1) + (2+3).
        let mut a = parts[0].clone();
        a.merge(&parts[1]);
        let mut b = parts[2].clone();
        b.merge(&parts[3]);
        a.merge(&b);
        for other in [&right, &a] {
            assert_eq!(left.buckets(), other.buckets());
            assert_eq!(left.count(), other.count());
            assert_eq!(left.sum(), other.sum());
        }
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(left.quantile(q), a.quantile(q));
        }
    }

    #[test]
    fn mean_tracks_sum_over_count() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        h.record(10);
        h.record(30);
        assert_eq!(h.mean(), Some(20.0));
    }
}
