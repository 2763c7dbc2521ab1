//! GNN model library for the GNNerator reproduction.
//!
//! The paper evaluates three networks (Table III): GCN, GraphSAGE with the
//! mean aggregator, and GraphSAGE-Pool with a trainable max-pooling
//! aggregator, each with one hidden layer of dimension 16. This crate
//! provides:
//!
//! * [`Aggregator`] — the neighbourhood reductions (mean / max / sum),
//! * [`GnnLayer`] and [`GnnModel`] — layer and model descriptions composed of
//!   dense and aggregation [`Stage`]s, with builders for the three paper
//!   networks ([`NetworkKind`]),
//! * [`reference`](mod@reference) — a functional CPU executor used as the golden model that
//!   the accelerator's functional simulation is cross-checked against,
//! * [`workload`] — FLOP/byte accounting per stage, consumed by the
//!   baselines' roofline models and by reports.
//!
//! # Examples
//!
//! ```
//! use gnnerator_gnn::{NetworkKind, reference};
//! use gnnerator_graph::{CsrGraph, NodeFeatures};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = CsrGraph::from_pairs(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
//! let features = NodeFeatures::zeros(4, 8);
//! let model = NetworkKind::Gcn.build(8, 16, 4, 1)?;
//! let out = reference::execute(&model, &graph, &features)?;
//! assert_eq!(out.shape(), (4, 4));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod aggregator;
mod error;
mod layer;
mod model;
pub mod reference;
pub mod workload;

pub use aggregator::Aggregator;
pub use error::GnnError;
pub use layer::{GnnLayer, Stage, StageOrder};
pub use model::{GnnModel, NetworkKind};
