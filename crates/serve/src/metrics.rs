//! Serving-side telemetry: the per-stage latency histograms.
//!
//! The admission-control work needs to answer "where does a request's time
//! go under load" — queue wait, evaluation, serialization — without keeping
//! every sample. The log₂-bucketed [`Histogram`] is the always-on, cheap
//! approximation surfaced on `/stats` and `/metrics`.

use crate::hist::Histogram;

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
}
