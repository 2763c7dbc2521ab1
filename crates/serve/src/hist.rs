//! The workspace's one latency histogram.
//!
//! A log₂-bucketed latency histogram (the classic HdrHistogram-style shape,
//! hand-rolled because the workspace builds hermetically): recording is
//! O(1), memory is a few hundred bytes, and p50/p99 come from a cumulative
//! walk with geometric interpolation inside the winning bucket. Exact
//! per-sample accuracy is traded for an always-on, constant-cost
//! approximation; anything needing exact samples records them client-side.

/// Lower edge of the first finite bucket. Anything faster lands in an
/// underflow bucket reported as `< 1 µs`.
pub const MIN_BUCKET_SECONDS: f64 = 1e-6;

/// Number of log₂ buckets: `1 µs · 2⁴⁰ ≈ 12.7 days`, far beyond any
/// plausible request latency, so the overflow bucket stays empty in
/// practice.
pub const NUM_BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram over seconds.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `counts[0]` is the underflow bucket (`< MIN_BUCKET_SECONDS`);
    /// `counts[i]` covers `[MIN · 2^(i-1), MIN · 2^i)`; the last bucket
    /// absorbs overflow.
    counts: [u64; NUM_BUCKETS + 1],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; NUM_BUCKETS + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Records one latency sample. Negative or non-finite samples (clock
    /// anomalies) are clamped into the underflow bucket.
    pub fn record(&mut self, seconds: f64) {
        let seconds = if seconds.is_finite() {
            seconds.max(0.0)
        } else {
            0.0
        };
        let bucket = if seconds < MIN_BUCKET_SECONDS {
            0
        } else {
            // log2(seconds / MIN) + 1, clamped into the finite buckets.
            let exponent = (seconds / MIN_BUCKET_SECONDS).log2() as usize + 1;
            exponent.min(NUM_BUCKETS)
        };
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += seconds;
        self.min = self.min.min(seconds);
        self.max = self.max.max(seconds);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples in seconds (the Prometheus `_sum`
    /// series).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all recorded samples (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (`0` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (`0` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`) estimated from the bucket holding
    /// the target sample: the geometric midpoint of the bucket's bounds,
    /// clamped to the observed `[min, max]` so tiny populations do not
    /// report a latency nobody experienced.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= target {
                let estimate = if bucket == 0 {
                    MIN_BUCKET_SECONDS / 2.0
                } else {
                    let low = MIN_BUCKET_SECONDS * 2f64.powi(bucket as i32 - 1);
                    low * std::f64::consts::SQRT_2 // geometric midpoint of [low, 2·low)
                };
                return estimate.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Cumulative `(upper_bound_seconds, count ≤ bound)` pairs in ascending
    /// bound order, ending with `(f64::INFINITY, total_count)` — exactly the
    /// shape Prometheus `_bucket{le="..."}` series want. Empty interior
    /// buckets are skipped (the cumulative count is unchanged across them)
    /// to keep the exposition small; the first finite bound and the `+Inf`
    /// bound are always present.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            let bound = if bucket == NUM_BUCKETS {
                f64::INFINITY
            } else {
                // counts[i] covers [MIN·2^(i-1), MIN·2^i); its inclusive
                // Prometheus bound is the upper edge MIN·2^i. counts[0]'s
                // bound is MIN itself.
                MIN_BUCKET_SECONDS * 2f64.powi(bucket as i32)
            };
            if n > 0 || bucket == 0 || bucket == NUM_BUCKETS {
                out.push((bound, cumulative));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum of the raw per-bucket counts: always equals [`Histogram::count`].
    fn bucket_total(h: &Histogram) -> u64 {
        h.counts.iter().sum()
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let mut h = Histogram::new();
        for _ in 0..98 {
            h.record(1e-3);
        }
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        // The p50 estimate lands in the millisecond bucket: within 2x of
        // the true value by construction of log2 buckets.
        assert!((5e-4..2e-3).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= 0.5, "p99 = {p99} must see the slow tail");
        assert!(h.quantile(1.0) <= 2.0, "clamped to observed max");
        assert!(h.min() == 1e-3 && h.max() == 2.0);
        let mean = h.mean();
        assert!((mean - (0.098 + 3.0) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_samples_are_absorbed_not_propagated() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(-5.0);
        h.record(0.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 4);
        assert!(h.quantile(0.5).is_finite());
        assert!(h.mean().is_finite());
    }

    #[test]
    fn extreme_latencies_hit_the_overflow_bucket_without_panicking() {
        let mut h = Histogram::new();
        h.record(1e9);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.99), 1e9, "clamped to the observed max");
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_inf() {
        let mut h = Histogram::new();
        for s in [0.0, 1e-7, 1e-4, 1e-3, 1e-3, 0.5, 1e9] {
            h.record(s);
        }
        let buckets = h.cumulative_buckets();
        assert!(buckets.len() >= 2);
        let (last_bound, last_count) = *buckets.last().unwrap();
        assert!(last_bound.is_infinite());
        assert_eq!(last_count, h.count());
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_count = 0;
        for &(bound, count) in &buckets {
            assert!(bound > prev_bound, "bounds ascend");
            assert!(count >= prev_count, "cumulative counts never decrease");
            prev_bound = bound;
            prev_count = count;
        }
        assert_eq!(bucket_total(&h), h.count());
    }

    #[test]
    fn bucket_total_matches_count_under_mixed_load() {
        let mut h = Histogram::new();
        for i in 0..1000 {
            h.record(i as f64 * 3.7e-6);
        }
        assert_eq!(bucket_total(&h), h.count());
        assert_eq!(h.count(), 1000);
    }
}
