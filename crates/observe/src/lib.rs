//! Telemetry primitives for the GNNerator serving layer.
//!
//! * [`Histogram`] — the log₂-bucketed latency histogram behind the serving
//!   latency stages and their `/metrics` exposition,
//! * [`PromText`] — a hand-rolled Prometheus text-format (version 0.0.4)
//!   writer for the `GET /metrics` endpoint,
//! * [`RequestProvenance`] — the per-request span breakdown (queue wait →
//!   session build → evaluate → serialize) the serving path attaches to
//!   `/simulate` responses behind the `X-Provenance` header.
//!
//! The crate is dependency-free and std-only.

#![warn(missing_docs)]

mod hist;
mod prom;
mod provenance;

pub use hist::{Histogram, MIN_BUCKET_SECONDS, NUM_BUCKETS};
pub use prom::PromText;
pub use provenance::{RequestProvenance, Span};
