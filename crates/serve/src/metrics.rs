//! Serving-side telemetry: latency histograms and batching counters.
//!
//! The admission-control work needs to answer "where does a request's time
//! go under load" — queue wait, evaluation, serialization — without keeping
//! every sample. The log₂-bucketed [`Histogram`] is the always-on, cheap
//! approximation surfaced on `/stats` and `/metrics`.

use crate::hist::Histogram;

/// Counters describing how `/simulate` requests coalesced into evaluation
/// passes. Coherence invariant (pinned by tests):
/// `batched_requests + solo_requests ==` total `/simulate` requests that
/// reached a worker.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchCounters {
    /// Evaluation passes that coalesced ≥ 2 requests.
    pub batches: u64,
    /// Requests answered as part of a ≥ 2-request pass.
    pub batched_requests: u64,
    /// Requests evaluated alone (nothing batchable was queued with them).
    pub solo_requests: u64,
    /// Largest pass observed.
    pub max_batch_size: u64,
}

impl BatchCounters {
    /// Records one evaluation pass of `size` requests.
    pub fn record(&mut self, size: usize) {
        let size = size as u64;
        if size >= 2 {
            self.batches += 1;
            self.batched_requests += size;
        } else {
            self.solo_requests += size;
        }
        self.max_batch_size = self.max_batch_size.max(size);
    }

    /// Mean size across all passes (solo passes included).
    pub fn mean_batch_size(&self) -> f64 {
        let passes = self.batches + self.solo_requests;
        if passes == 0 {
            0.0
        } else {
            (self.batched_requests + self.solo_requests) as f64 / passes as f64
        }
    }
}

/// Everything the worker side accumulates, kept under one lock because
/// updates are a handful of adds per request — contention is dominated by
/// evaluation work, not metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Enqueue → worker-pickup latency per request.
    pub queue_wait: Histogram,
    /// Scenario-evaluation latency per request.
    pub evaluate: Histogram,
    /// Response-body serialization latency per request.
    pub serialize: Histogram,
    /// Session build / reuse latency per request (provenance aggregate).
    pub session_build: Histogram,
    /// Coalescing outcomes.
    pub batch: BatchCounters,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_counters_stay_coherent() {
        let mut b = BatchCounters::default();
        b.record(1);
        b.record(4);
        b.record(1);
        b.record(2);
        assert_eq!(b.batches, 2);
        assert_eq!(b.batched_requests, 6);
        assert_eq!(b.solo_requests, 2);
        assert_eq!(b.max_batch_size, 4);
        assert_eq!(b.batched_requests + b.solo_requests, 8, "== total");
        assert!((b.mean_batch_size() - 2.0).abs() < 1e-12);
    }
}
