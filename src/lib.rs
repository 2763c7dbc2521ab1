//! Umbrella crate for the GNNerator reproduction workspace.
//!
//! `gnnerator-suite` re-exports every workspace crate under one roof so the
//! runnable examples and the cross-crate integration tests can use a single
//! dependency. Library users should normally depend on the individual crates
//! instead:
//!
//! * [`gnnerator`] — the accelerator model, compiler and cycle-level simulator,
//! * [`graph`] — graphs, synthetic datasets and 2-D sharding,
//! * [`gnn`] — GCN / GraphSAGE / GraphSAGE-Pool models and the
//!   reference executor,
//! * [`baselines`] — the GPU and HyGCN baseline models,
//! * [`bench`](mod@bench) — the benchmark harness regenerating every
//!   table and figure of the paper,
//! * [`tensor`] — the dense matrix kernels underneath it all.
//!
//! # Examples
//!
//! ```
//! use gnnerator_suite::gnnerator::{GnneratorConfig, Simulator};
//! use gnnerator_suite::gnn::NetworkKind;
//! use gnnerator_suite::graph::datasets::DatasetKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = DatasetKind::Cora.spec().scaled(0.05).synthesize(1)?;
//! let model = NetworkKind::Gcn.build_paper_config(dataset.spec.feature_dim, 7)?;
//! let report = Simulator::new(GnneratorConfig::paper_default())?.simulate(&model, &dataset)?;
//! assert!(report.total_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use gnnerator;
pub use gnnerator_baselines as baselines;
pub use gnnerator_bench as bench;
pub use gnnerator_gnn as gnn;
pub use gnnerator_graph as graph;
pub use gnnerator_tensor as tensor;
