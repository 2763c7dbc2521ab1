//! Unified telemetry spine for the GNNerator stack.
//!
//! Every layer of the workspace used to keep its own counters: process-wide
//! `static AtomicU64`s in the graph crate, a serve-local latency
//! histogram, ad-hoc fields on the session pool and sweep runner. This crate
//! collapses them onto one spine:
//!
//! * [`Histogram`] — the single log₂-bucketed latency histogram used
//!   everywhere (serving latency stages, bench reporting, `/metrics`
//!   exposition),
//! * [`Recorder`] — a cloneable, scoped telemetry sink. Each recorder owns
//!   its own counters and optionally chains to a parent; every note
//!   propagates up the chain to the process-global root returned by
//!   [`Recorder::global`]. A component handed a scoped recorder therefore
//!   gets *isolated* counts (two concurrent sessions no longer interleave
//!   into one global) while process-wide views (`/stats`, `/metrics`) stay
//!   coherent,
//! * [`MemoryStats`] — a snapshot of a recorder's memory counters,
//! * [`PromText`] — a hand-rolled Prometheus text-format (version 0.0.4)
//!   writer for the `GET /metrics` endpoint,
//! * [`RequestProvenance`] — the per-request span breakdown (queue wait →
//!   session build → evaluate → serialize) the serving path attaches to
//!   `/simulate` responses behind the `X-Provenance` header.
//!
//! The crate is dependency-free and std-only so every other crate in the
//! workspace can depend on it without ordering headaches.

#![warn(missing_docs)]

mod hist;
mod prom;
mod provenance;
mod recorder;

pub use hist::{Histogram, MIN_BUCKET_SECONDS, NUM_BUCKETS};
pub use prom::PromText;
pub use provenance::{RequestProvenance, Span};
pub use recorder::{MaxGauge, MemoryCounters, MemoryStats, Recorder};
