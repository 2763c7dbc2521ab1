//! Graph Engine timing: the fetch → compute shard pipeline.

use super::{Cycle, DramModel};
use crate::program::LayerPlan;
use crate::GraphEngine;
use gnnerator_graph::{ShardMeta, TraversalOrder};

/// Per-destination-column completion bookkeeping for one feature block.
#[derive(Debug)]
pub(crate) struct ColumnState {
    /// Completion cycle of the latest shard contributing to each column.
    pub done: Vec<Cycle>,
    /// Whether each destination block has been visited in this feature block
    /// (drives accumulator reload traffic under source-stationary order).
    pub visited: Vec<bool>,
}

impl ColumnState {
    pub fn new(grid_dim: usize, layer_start: Cycle) -> Self {
        Self {
            done: vec![layer_start; grid_dim],
            visited: vec![false; grid_dim],
        }
    }
}

/// Timing cursors of the Graph Engine while one layer executes.
///
/// The engine is a two-stage pipeline: the fetch units stream a shard's edges
/// and source features from DRAM while the Shard Compute Unit walks the
/// previous shard, so `fetch_free` and `compute_free` advance independently
/// and a shard's compute begins at the later of the two (plus any producer
/// dependency).
#[derive(Debug)]
pub(crate) struct GraphTimer<'e> {
    engine: &'e GraphEngine,
    fetch_free: Cycle,
    compute_free: Cycle,
    busy: Cycle,
    stall: Cycle,
}

impl<'e> GraphTimer<'e> {
    pub fn new(engine: &'e GraphEngine, layer_start: Cycle) -> Self {
        Self {
            engine,
            fetch_free: layer_start,
            compute_free: layer_start,
            busy: 0,
            stall: 0,
        }
    }

    /// Cycle at which the compute unit finishes its last accepted shard.
    pub fn compute_free(&self) -> Cycle {
        self.compute_free
    }

    /// Total busy cycles of the compute unit so far.
    pub fn busy(&self) -> Cycle {
        self.busy
    }

    /// Total cycles the compute unit stalled on loads or producer
    /// dependencies so far.
    pub fn stall(&self) -> Cycle {
        self.stall
    }

    /// Processes one occupied shard through the fetch → compute pipeline,
    /// updating the engine cursors and the column completion times.
    ///
    /// Callers hand in the shard's precomputed [`ShardMeta`]; the sparse
    /// grid's occupancy-aware walks never surface empty shards (which are
    /// no-ops by construction: no bytes, no cycles, no column updates).
    #[allow(clippy::too_many_arguments)]
    pub fn process_shard(
        &mut self,
        plan: &LayerPlan,
        dram: &mut DramModel,
        meta: &ShardMeta,
        block_dim: usize,
        pre_done: &[Cycle],
        layer_start: Cycle,
        columns: &mut ColumnState,
    ) {
        debug_assert!(meta.num_edges() > 0, "occupied walks never yield empties");
        let coord = meta.coord();
        let fetch = self.engine.fetch();
        let mut load_bytes = fetch.edge_bytes(meta) + fetch.source_feature_bytes(meta, block_dim);
        let mut spill_bytes = 0u64;
        if plan.traversal == TraversalOrder::SourceStationary {
            // Destination accumulators do not stay resident across rows.
            let dst_nodes = meta.unique_destination_count();
            if columns.visited[coord.dst_block] {
                load_bytes += fetch.destination_bytes(dst_nodes, block_dim);
            }
            spill_bytes = fetch.destination_bytes(dst_nodes, block_dim);
        }
        columns.visited[coord.dst_block] = true;

        // Producer dependency: with a dense-first layer the pooled features
        // of both endpoints' node blocks must exist before aggregation.
        let dependency = if plan.pre_dense.is_some() {
            pre_done[coord.src_block].max(pre_done[coord.dst_block])
        } else {
            layer_start
        };

        let load_done = dram.read(self.fetch_free, load_bytes);
        self.fetch_free = load_done;
        let compute_cycles = self.engine.shard_cycles(meta.num_edges(), block_dim);
        let start = self.compute_free.max(load_done).max(dependency);
        self.stall += start - self.compute_free;
        let end = start + compute_cycles;
        self.busy += compute_cycles;
        self.compute_free = end;
        if spill_bytes > 0 {
            dram.write(end, spill_bytes);
        }
        columns.done[coord.dst_block] = columns.done[coord.dst_block].max(end);
    }
}
