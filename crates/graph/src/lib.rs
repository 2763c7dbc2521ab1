//! Graph substrate for the GNNerator reproduction.
//!
//! The paper evaluates GNNerator on three citation graphs (Cora, Citeseer,
//! Pubmed — Table II) that are sharded with a GridGraph-style two-dimensional
//! sharding scheme (Section II-B, Figure 1) before being streamed through the
//! Graph Engine. This crate provides everything between "a graph exists" and
//! "the accelerator can be pointed at it":
//!
//! * [`EdgeList`] — the edge-list graph representation every dataset,
//!   session and shard grid is built on, and [`CsrGraph`], the
//!   compressed-sparse-row form only the value-level reference executor
//!   (`gnnerator_gnn::reference`) reads,
//! * [`EdgeListBuilder`] — streaming chunked construction: generators emit
//!   symmetric pairs into in-memory chunks that a counting sort of
//!   unordered pairs, in row bands on several workers, puts in canonical
//!   order, instead of comparison-sorting one giant vector at the end,
//! * [`NodeFeatures`] — the dense per-node feature table, computed on demand
//!   by [`DatasetSpec::features`](datasets::DatasetSpec::features) and
//!   never stored,
//! * [`generators`] — seeded synthetic graph generators (Erdős–Rényi with
//!   geometric skip sampling and an R-MAT/power-law generator) used to stand
//!   in for the real datasets,
//! * [`datasets`] — the Table II dataset specifications (plus an ogbn-scale
//!   extension) and synthesisers; a dataset handle is its spec and seed,
//!   with its edge list and its shard summaries materialised on first use,
//! * [`ShardSummary`] — the 2-D shard grid as the timing model sees it: one
//!   [`ShardMeta`] per occupied shard (edge count, distinct endpoints) plus
//!   row/column indexes, with source-/destination-stationary traversal
//!   orders that skip empty cells, built in one linear pass and holding no
//!   edges; [`ShardGrid`] adds the sorted edge arena for the value-level
//!   executors,
//! * [`ArtifactCache`] — a persistent, checksummed on-disk store of
//!   synthesised edge lists and shard summaries, keyed by `(spec, seed)` and
//!   shard parameters, so repeated harness runs skip synthesis and
//!   re-sharding.
//!
//! # Examples
//!
//! ```
//! use gnnerator_graph::{generators, ShardGrid};
//!
//! # fn main() -> Result<(), gnnerator_graph::GraphError> {
//! let graph = generators::erdos_renyi(64, 0.1, 7)?;
//! let grid = ShardGrid::build(&graph, 16)?;
//! assert_eq!(grid.grid_dim(), 4);
//! assert_eq!(grid.total_edges(), graph.num_edges());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cache;
mod csr;
pub mod datasets;
mod edge_builder;
mod edge_list;
mod error;
mod features;
pub mod generators;
mod parallel;
mod plan_cache;
mod shard;

pub use cache::{ArtifactCache, CACHE_ENV_VAR, FORMAT_VERSION};
pub use csr::CsrGraph;
pub use edge_builder::EdgeListBuilder;
pub use edge_list::{Edge, EdgeList};
pub use error::GraphError;
pub use features::NodeFeatures;
pub use shard::{
    OccupiedTraversal, SerpentineCoords, ShardCoord, ShardGrid, ShardMeta, ShardSummary, ShardView,
    TraversalOrder, BYTES_PER_EDGE, BYTES_PER_FEATURE_ELEMENT,
};

/// Node identifier type used throughout the workspace.
///
/// 32 bits is enough for the paper's datasets (the largest, Pubmed, has
/// 19 717 vertices) and matches the 4-byte edge-record entries assumed by the
/// Graph Engine's edge memory sizing.
pub type NodeId = u32;
