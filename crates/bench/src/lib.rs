//! Benchmark harness for the GNNerator reproduction.
//!
//! This crate regenerates every table and figure of the paper's evaluation
//! section:
//!
//! | Artifact | Function | Binary |
//! |----------|----------|--------|
//! | Table I  | [`experiments::table1_table`] | `table1` |
//! | Figure 3 | [`experiments::figure3`] | `fig3` |
//! | Table V  | [`experiments::table5`] | `table5` |
//! | Figure 4 | [`experiments::figure4`] | `fig4` |
//! | Figure 5 | [`experiments::figure5`] | `fig5` |
//!
//! The [`suite`] module defines the nine-benchmark suite (three citation
//! datasets × three networks, Tables II & III) on top of the core crate's
//! [`SweepRunner`](gnnerator::SweepRunner): every figure/table enumerates
//! scenario points and executes them as one parallel batch over shared
//! compile-once sessions. The [`rows`] module provides the plain-text table
//! formatting shared by all harness binaries, [`experiments`] assembles the
//! per-figure result tables, and [`sweep_report`] measures the sweep engine
//! against the serial per-run path and emits `BENCH_sweep.json`.
//!
//! # Examples
//!
//! ```
//! use gnnerator_bench::suite::{SuiteContext, SuiteOptions, Workload};
//! use gnnerator_graph::datasets::DatasetKind;
//! use gnnerator_gnn::NetworkKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A scaled-down context so the doctest stays fast.
//! let ctx = SuiteContext::materialize(&SuiteOptions::quick())?;
//! let result = ctx.run_workload(&Workload::new(DatasetKind::Cora, NetworkKind::Gcn))?;
//! assert!(result.speedup_blocked_vs_gpu() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod rows;
pub mod suite;
pub mod sweep_report;
