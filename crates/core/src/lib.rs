//! GNNerator: a hardware/software framework for accelerating graph neural
//! networks — Rust reproduction of the DAC 2021 paper.
//!
//! The crate models the GNNerator accelerator end to end:
//!
//! * [`GnneratorConfig`] — the platform description (Dense Engine systolic
//!   array, Graph Engine GPEs, on-chip scratchpads, off-chip DRAM), with the
//!   Table IV configuration as the default and the Figure 5 scaled variants
//!   as builders,
//! * [`DataflowConfig`] — conventional versus feature-dimension-blocked
//!   execution (Section IV / Algorithm 1),
//! * [`cost`] — the Table I analytical shard-traversal cost model,
//! * [`Compiler`] / [`Program`] — lowering a [`GnnModel`](gnnerator_gnn::GnnModel)
//!   plus a sharded graph onto the two engines,
//! * [`Simulator`] — the cycle-level timing model (Graph Engine pipeline,
//!   Dense Engine GEMMs, shared DRAM contention, inter-engine
//!   producer/consumer stalls) producing a [`Report`],
//! * [`SimSession`] / [`CompiledWorkload`] — compile-once, run-many sessions
//!   sharing shard plans across configurations,
//! * [`Backend`] / [`BackendKind`] — the platform abstraction: the simulated
//!   accelerator ([`GnneratorBackend`]) and the analytical GPU-roofline and
//!   HyGCN baselines all evaluate scenarios through one trait,
//! * [`SweepRunner`] / [`ScenarioSpec`] — the parallel scenario-sweep engine
//!   the benchmark harness enumerates the paper's figures and tables with;
//!   one sweep mixes accelerator and baseline points and accelerator results
//!   carry speedup columns against both baselines,
//! * [`functional`] — a bit-faithful functional execution of the blocked
//!   dataflow, cross-checked against the reference executor in tests.
//!
//! # Examples
//!
//! ```
//! use gnnerator::{GnneratorConfig, SimSession, Simulator, DataflowConfig};
//! use gnnerator_gnn::NetworkKind;
//! use gnnerator_graph::datasets::DatasetKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A scaled-down Cora so the doctest stays fast.
//! let dataset = DatasetKind::Cora.spec().scaled(0.05).synthesize(7)?;
//! let model = NetworkKind::Gcn.build_paper_config(dataset.spec.feature_dim, 7)?;
//!
//! // Compile once, execute under two dataflows.
//! let session = SimSession::new(model, &dataset)?;
//! let config = GnneratorConfig::paper_default();
//! let blocked = session.simulate(&config, DataflowConfig::paper_default())?;
//! let baseline = session.simulate(&config, DataflowConfig::conventional())?;
//! assert!(blocked.total_cycles > 0);
//! assert!(baseline.total_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
mod backend;
mod bandwidth;
mod compiler;
mod config;
pub mod cost;
mod dataflow;
mod dense_engine;
mod dram;
mod error;
pub mod functional;
mod graph_engine;
mod program;
mod report;
mod session;
mod simulator;
mod sweep;
mod systolic;

pub use backend::{
    Backend, BackendError, BackendEvaluation, BackendKind, GnneratorBackend, GpuRooflineBackend,
    HygcnBackend,
};
pub use compiler::Compiler;
pub use config::{DenseEngineConfig, GnneratorConfig, GraphEngineConfig};
pub use dataflow::{BlockingPolicy, DataflowConfig};
pub use dense_engine::DenseEngine;
pub use dram::DramConfig;
pub use error::{GnneratorError, SimError};
pub use graph_engine::{FetchPlanner, GraphEngine, ShardComputeUnit};
pub use program::{DenseOp, LayerPlan, Program};
pub use report::{LayerReport, Report};
pub use session::{CompiledWorkload, SimSession};
pub use simulator::{Cycle, Simulator};
pub use sweep::{
    build_session, evaluate_scenario, evaluate_scenario_batch, BaselineSeconds, ScenarioResult,
    ScenarioSpec, SessionKey, SweepRunner,
};
