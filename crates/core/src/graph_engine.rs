//! Timing and traffic model of the Graph Engine (Section III-B).
//!
//! The Graph Engine processes one shard at a time through a four-stage
//! pipeline: the Shard Edge Fetch and Shard Feature Fetch units bring the
//! shard's edge list and the required node features (or the active block of
//! their dimensions) on-chip, the Shard Compute Unit's GPEs walk the edges
//! and apply/reduce feature vectors, and the Shard Writeback Unit stores the
//! finished destination features. All buffers are double-buffered so the next
//! shard's fetch overlaps the current shard's compute.

use crate::{Cycle, GnneratorError, GraphEngineConfig};
use gnnerator_graph::{ShardMeta, BYTES_PER_FEATURE_ELEMENT as BYTES_PER_ELEMENT};

/// The Shard Compute Unit: an array of Graph Processing Elements, each a set
/// of SIMD apply/reduce lanes.
///
/// Inter-node parallelism comes from distributing a shard's edges across the
/// GPEs; intra-node parallelism comes from each GPE's SIMD lanes processing
/// feature dimensions in parallel.
///
/// # Examples
///
/// ```
/// use gnnerator::ShardComputeUnit;
///
/// let unit = ShardComputeUnit::new(32, 32);
/// // 1024 edges over a 64-dim block: 32 edges per GPE, 2 lane-passes each.
/// assert_eq!(unit.compute_cycles(1024, 64), 32 * 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardComputeUnit {
    num_gpes: usize,
    simd_lanes: usize,
}

impl ShardComputeUnit {
    /// Creates a compute unit with `num_gpes` GPEs of `simd_lanes` lanes each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(num_gpes: usize, simd_lanes: usize) -> Self {
        assert!(
            num_gpes > 0 && simd_lanes > 0,
            "GPE array must be non-empty"
        );
        Self {
            num_gpes,
            simd_lanes,
        }
    }

    /// Number of GPEs.
    pub fn num_gpes(&self) -> usize {
        self.num_gpes
    }

    /// SIMD lanes per GPE.
    pub fn simd_lanes(&self) -> usize {
        self.simd_lanes
    }

    /// Cycles per edge for a feature block of `block_dim` dimensions: one
    /// apply+reduce pass per `simd_lanes`-wide chunk.
    pub fn edge_cycles(&self, block_dim: usize) -> Cycle {
        block_dim.max(1).div_ceil(self.simd_lanes) as Cycle
    }

    /// Cycles to process `num_edges` edges of a shard over a `block_dim`-wide
    /// feature block, with the edges distributed across the GPEs.
    pub fn compute_cycles(&self, num_edges: usize, block_dim: usize) -> Cycle {
        if num_edges == 0 {
            return 0;
        }
        let edges_per_gpe = num_edges.div_ceil(self.num_gpes) as Cycle;
        edges_per_gpe * self.edge_cycles(block_dim)
    }

    /// Aggregate throughput in feature-element operations per cycle.
    pub fn peak_elements_per_cycle(&self) -> u64 {
        (self.num_gpes * self.simd_lanes) as u64
    }
}

/// The Shard Edge Fetch, Shard Feature Fetch and Shard Writeback units'
/// traffic model: how many bytes must move for one shard under a given
/// feature-block width.
///
/// The per-shard inputs are [`ShardMeta`] records — the sparse grid's
/// precomputed edge/endpoint counts — so costing a shard never touches its
/// edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FetchPlanner;

impl FetchPlanner {
    /// Creates a fetch planner.
    pub fn new() -> Self {
        Self
    }

    /// Bytes of edge records fetched for a shard.
    pub fn edge_bytes(&self, shard: &ShardMeta) -> u64 {
        shard.edge_fetch_bytes()
    }

    /// Bytes of source-node features fetched for a shard when `block_dim`
    /// feature dimensions are resident.
    pub fn source_feature_bytes(&self, shard: &ShardMeta, block_dim: usize) -> u64 {
        shard.source_feature_bytes(block_dim)
    }

    /// Bytes of destination accumulators written back for `num_dst_nodes`
    /// nodes of `block_dim` dimensions.
    pub fn destination_bytes(&self, num_dst_nodes: usize, block_dim: usize) -> u64 {
        num_dst_nodes as u64 * block_dim as u64 * BYTES_PER_ELEMENT
    }

    /// Bytes needed to spill and re-load a partially aggregated destination
    /// block, as happens for every shard but the first/last of a row under
    /// the source-stationary order (Table I's write-cost term).
    pub fn destination_reload_bytes(&self, num_dst_nodes: usize, block_dim: usize) -> u64 {
        2 * self.destination_bytes(num_dst_nodes, block_dim)
    }
}

/// The assembled Graph Engine model.
///
/// # Examples
///
/// ```
/// use gnnerator::{GraphEngine, GraphEngineConfig};
///
/// # fn main() -> Result<(), gnnerator::GnneratorError> {
/// let engine = GraphEngine::new(&GraphEngineConfig::default())?;
/// assert_eq!(engine.compute().num_gpes(), 32);
/// // How many nodes fit on-chip when 64 dims are resident per node?
/// let nodes = engine.nodes_per_shard(64);
/// assert!(nodes > 10_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GraphEngine {
    config: GraphEngineConfig,
    compute: ShardComputeUnit,
    fetch: FetchPlanner,
}

impl GraphEngine {
    /// Builds the engine model from its configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::InvalidConfig`] for an empty GPE array or an
    /// implausibly small scratchpad.
    pub fn new(config: &GraphEngineConfig) -> Result<Self, GnneratorError> {
        if config.num_gpes == 0 || config.simd_lanes == 0 {
            return Err(GnneratorError::config(
                "graph engine must have GPEs and lanes",
            ));
        }
        if config.feature_scratchpad_bytes < 1024 {
            return Err(GnneratorError::config(
                "graph engine feature scratchpad is implausibly small",
            ));
        }
        Ok(Self {
            config: *config,
            compute: ShardComputeUnit::new(config.num_gpes, config.simd_lanes),
            fetch: FetchPlanner::new(),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GraphEngineConfig {
        &self.config
    }

    /// The Shard Compute Unit model.
    pub fn compute(&self) -> &ShardComputeUnit {
        &self.compute
    }

    /// The fetch/writeback traffic model.
    pub fn fetch(&self) -> &FetchPlanner {
        &self.fetch
    }

    /// Cycles to process one shard: the compute time plus the fixed per-shard
    /// pipeline overhead.
    pub fn shard_cycles(&self, num_edges: usize, block_dim: usize) -> Cycle {
        if num_edges == 0 {
            return 0;
        }
        self.compute.compute_cycles(num_edges, block_dim) + self.config.per_shard_overhead_cycles
    }

    /// Maximum number of nodes whose features (source slice plus destination
    /// accumulator slice, `block_dim` dims each) fit in one bank of the
    /// feature scratchpad. This is the paper's tunable shard parameter `n`:
    /// smaller blocks let more nodes stay resident, shrinking the shard grid.
    pub fn nodes_per_shard(&self, block_dim: usize) -> usize {
        let bytes_per_node = 2 * block_dim.max(1) as u64 * BYTES_PER_ELEMENT;
        (self.config.feature_bank_bytes() / bytes_per_node).max(1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator_graph::{EdgeList, ShardGrid};

    fn sample_meta() -> ShardMeta {
        let edges = EdgeList::from_pairs(8, &[(0, 4), (1, 4), (1, 5), (2, 6), (3, 7)]).unwrap();
        let grid = ShardGrid::build(&edges, 4).unwrap();
        *grid
            .shard(gnnerator_graph::ShardCoord::new(0, 1))
            .meta()
            .expect("shard (0, 1) is occupied")
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_gpes_panics() {
        let _ = ShardComputeUnit::new(0, 32);
    }

    #[test]
    fn edge_cycles_round_up_lane_passes() {
        let unit = ShardComputeUnit::new(8, 32);
        assert_eq!(unit.edge_cycles(32), 1);
        assert_eq!(unit.edge_cycles(33), 2);
        assert_eq!(unit.edge_cycles(1), 1);
        assert_eq!(unit.edge_cycles(0), 1);
    }

    #[test]
    fn compute_cycles_distribute_edges_across_gpes() {
        let unit = ShardComputeUnit::new(8, 32);
        assert_eq!(unit.compute_cycles(80, 32), 10);
        assert_eq!(unit.compute_cycles(81, 32), 11);
        assert_eq!(unit.compute_cycles(0, 32), 0);
        assert_eq!(unit.peak_elements_per_cycle(), 256);
    }

    #[test]
    fn more_gpes_never_slower() {
        let small = ShardComputeUnit::new(8, 32);
        let big = ShardComputeUnit::new(32, 32);
        for edges in [1, 10, 100, 1000, 12345] {
            assert!(big.compute_cycles(edges, 64) <= small.compute_cycles(edges, 64));
        }
    }

    #[test]
    fn fetch_planner_byte_accounting() {
        let meta = sample_meta();
        let f = FetchPlanner::new();
        assert_eq!(f.edge_bytes(&meta), meta.num_edges() as u64 * 8);
        assert_eq!(f.edge_bytes(&meta), meta.edge_fetch_bytes());
        assert_eq!(
            f.source_feature_bytes(&meta, 64),
            meta.unique_source_count() as u64 * 64 * 4
        );
        assert_eq!(
            f.source_feature_bytes(&meta, 64),
            meta.source_feature_bytes(64)
        );
        assert_eq!(f.destination_bytes(100, 16), 100 * 16 * 4);
        assert_eq!(f.destination_reload_bytes(100, 16), 2 * 100 * 16 * 4);
    }

    #[test]
    fn graph_engine_rejects_bad_configs() {
        let bad = GraphEngineConfig {
            num_gpes: 0,
            ..GraphEngineConfig::default()
        };
        assert!(GraphEngine::new(&bad).is_err());
        let bad = GraphEngineConfig {
            feature_scratchpad_bytes: 10,
            ..GraphEngineConfig::default()
        };
        assert!(GraphEngine::new(&bad).is_err());
    }

    #[test]
    fn nodes_per_shard_shrinks_with_block_width() {
        let engine = GraphEngine::new(&GraphEngineConfig::default()).unwrap();
        let narrow = engine.nodes_per_shard(64);
        let wide = engine.nodes_per_shard(1433);
        assert!(narrow > wide, "{narrow} vs {wide}");
        // 12 MiB bank / (2 * 64 * 4 bytes) = 24576 nodes.
        assert_eq!(narrow, 24576);
        // Degenerate block still gives at least one node.
        assert!(engine.nodes_per_shard(100_000_000) >= 1);
    }

    #[test]
    fn doubling_graph_memory_doubles_resident_nodes() {
        let base = GraphEngine::new(&GraphEngineConfig::default()).unwrap();
        let doubled_cfg = GraphEngineConfig {
            feature_scratchpad_bytes: 48 * 1024 * 1024,
            ..GraphEngineConfig::default()
        };
        let doubled = GraphEngine::new(&doubled_cfg).unwrap();
        // Exact doubling when the per-node footprint divides the bank evenly.
        assert_eq!(doubled.nodes_per_shard(64), 2 * base.nodes_per_shard(64));
        // Within rounding otherwise.
        let diff = doubled.nodes_per_shard(1433) as i64 - 2 * base.nodes_per_shard(1433) as i64;
        assert!(diff.abs() <= 1, "doubling was off by {diff}");
    }

    #[test]
    fn shard_cycles_include_overhead() {
        let engine = GraphEngine::new(&GraphEngineConfig::default()).unwrap();
        let compute = engine.compute().compute_cycles(1000, 64);
        assert_eq!(engine.shard_cycles(1000, 64), compute + 8);
        assert_eq!(engine.shard_cycles(0, 64), 0);
    }
}
