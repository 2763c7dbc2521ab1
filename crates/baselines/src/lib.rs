//! Baseline performance models for the GNNerator reproduction.
//!
//! The paper compares GNNerator against two baselines (Table IV):
//!
//! * an **NVIDIA RTX 2080 Ti** running the benchmarks through DGL + PyTorch
//!   (13 TFLOP/s peak, 616 GB/s), and
//! * **HyGCN**, a prior hybrid-architecture GNN accelerator (1 TFLOP
//!   aggregation engine + 8 TFLOP combination engine, 24 MiB on-chip,
//!   256 GB/s) whose published results the paper compares against.
//!
//! Neither platform is available to a hermetic Rust build, so this crate
//! provides calibrated analytical models of both:
//!
//! * [`GpuModel`] — a roofline model with per-kernel efficiency factors that
//!   capture why GNN layers run far below a GPU's peak (tiny GEMMs, sparse
//!   gathers, per-edge message materialisation for max-pooling aggregators),
//! * [`HygcnModel`] — an analytical model of a conventional-dataflow hybrid
//!   accelerator that processes one node's full feature at a time, including
//!   its window-based sparsity-elimination optimisation.
//!
//! Both models plug into the sweep path through the [`Backend`] trait — the
//! platform abstraction every compute platform (including the simulated
//! accelerator in the core crate) implements — as [`GpuRooflineBackend`] and
//! [`HygcnBackend`]. Sweeps enumerate platform × dataset × configuration
//! grids through that one interface rather than calling the models directly.
//!
//! The absolute times are estimates; the benchmark harness only relies on the
//! *relative* ordering and rough magnitudes, which is the level at which the
//! paper's figures are reproduced (see the README's "Backends" section;
//! `tests/backend_goldens.rs` pins the resulting Figure 3 / Table V numbers).
//!
//! # Examples
//!
//! ```
//! use gnnerator_baselines::GpuModel;
//! use gnnerator_gnn::NetworkKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = NetworkKind::Gcn.build_paper_config(1433, 7)?;
//! let gpu = GpuModel::rtx_2080_ti();
//! let estimate = gpu.estimate(&model, 2708, 10556);
//! assert!(estimate.seconds > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod backend;
mod estimate;
mod gpu;
mod hygcn;

pub use backend::{Backend, BackendError, BackendEvaluation, GpuRooflineBackend, HygcnBackend};
pub use estimate::{guarded_speedup, BaselineEstimate};
pub use gpu::{GpuConfig, GpuModel};
pub use hygcn::{HygcnConfig, HygcnModel};

/// Bytes per feature element, shared with the sharder's fetch-cost model so
/// the baselines and the accelerator price traffic identically.
pub(crate) const FEATURE_BYTES: f64 = gnnerator_graph::BYTES_PER_FEATURE_ELEMENT as f64;

/// Bytes per packed edge record, shared with the sharder's fetch-cost model.
pub(crate) const EDGE_BYTES: f64 = gnnerator_graph::BYTES_PER_EDGE as f64;
