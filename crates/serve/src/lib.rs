//! The GNNerator serving layer: a long-lived session server on top of
//! [`SimSession`](gnnerator::SimSession).
//!
//! The paper frames GNNerator as a hardware/software *framework*; the
//! ROADMAP's north star is a production-scale system answering heavy
//! simulate/compile traffic. PRs 1–4 made sessions immutable, `Arc`-shared
//! and disk-cached — this crate puts a front door on them:
//!
//! * [`SessionPool`] — a bounded LRU of warm compiled sessions keyed by
//!   [`ScenarioSpec::session_key`](gnnerator::ScenarioSpec::session_key),
//!   backed by the persistent
//!   [`ArtifactCache`](gnnerator_graph::ArtifactCache) so cold starts hit
//!   disk before rebuilding,
//! * [`SessionServer`] — a multi-threaded `std::net::TcpListener` server
//!   with a hand-rolled minimal HTTP/1.1 layer (no new external
//!   dependencies, consistent with the `shims/` policy) exposing
//!   `POST /simulate`, `POST /compile`, `POST /sweep`, `GET /stats` and
//!   `POST /shutdown`,
//! * [`json`] / [`http`] / [`client`] — the hand-rolled JSON and HTTP
//!   plumbing, in the style of the benchmark harness's `sweep_report.rs`,
//! * the telemetry behind `/stats` and `/metrics`: a log₂ latency
//!   histogram, a Prometheus text writer and the per-request provenance
//!   spans `X-Provenance` attaches.
//!
//! Every scenario executes through the core crate's
//! [`evaluate_scenario`](gnnerator::evaluate_scenario) — the same code path
//! [`SweepRunner::run_one`](gnnerator::SweepRunner::run_one) uses — so
//! served results are bit-identical to sweep results. One endpoint serves
//! gnnerator, gpu-roofline and hygcn points alike through the
//! [`Backend`](gnnerator::Backend) dispatch.
//!
//! # Examples
//!
//! ```
//! use gnnerator_serve::{client, ServeConfig, SessionServer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = SessionServer::start("127.0.0.1:0", ServeConfig::default())?;
//! let addr = server.local_addr();
//!
//! // A tiny scaled-down scenario so the doctest stays fast.
//! let response = client::post(
//!     addr,
//!     "/simulate",
//!     "{\"dataset\": \"cora\", \"scale\": 0.03, \"hidden_dim\": 8, \"out_dim\": 4}",
//! )?;
//! assert!(response.is_ok());
//! let point = response.json().expect("valid JSON");
//! assert!(point.get("seconds").unwrap().as_f64().unwrap() > 0.0);
//! assert_eq!(point.get("session_reused").unwrap().as_bool(), Some(false));
//!
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod client;
mod hist;
pub mod http;
pub mod json;
mod metrics;
mod pool;
mod prom;
mod provenance;
mod queue;
mod request;
mod server;

pub use json::Json;
pub use pool::{BreakerConfig, PoolError, PoolLookup, PoolStats, SessionPool};
pub use request::scenario_from_json;
pub use server::{ServeConfig, SessionServer};
