//! The per-layer controller: orchestrates the Graph Engine and Dense Engine
//! timers over the shard grid, feature block by feature block (Algorithm 1).

use super::dense_timing::DenseTimer;
use super::graph_timing::{ColumnState, GraphTimer};
use super::{Cycle, DramModel};
use crate::program::LayerPlan;
use crate::{DenseEngine, GraphEngine, LayerReport};
use gnnerator_graph::TraversalOrder;

/// Simulates one layer, returning a report with cycles counted from the
/// layer's own start.
pub(crate) fn simulate_layer(
    plan: &LayerPlan,
    graph_engine: &GraphEngine,
    dense_engine: &DenseEngine,
    dram: &mut DramModel,
    layer_start: Cycle,
) -> LayerReport {
    let s = plan.grid_dim();
    let aggregated_dim = plan.aggregated_dim();

    let mut graph = GraphTimer::new(graph_engine, layer_start);
    let mut dense = DenseTimer::new(dense_engine, layer_start);
    let mut layer_end = layer_start;
    let mut occupied_shards = 0usize;

    let traffic_before = *dram.traffic();

    // ---- Producer dense stage (GraphSAGE-Pool's pooling MLP) ----
    let mut pre_done: Vec<Cycle> = vec![layer_start; s];
    layer_end = layer_end.max(dense.producer_pass(plan, dram, &mut pre_done));

    // When the consumer stage's full output (the partial sums accumulated
    // across feature blocks) fits in the Dense Engine's output buffer, no
    // partial-sum DRAM traffic is paid and the result is written out once at
    // the end of the layer.
    let output_resident = dense.output_resident(plan);
    // When the accumulating output cannot stay resident, fusing the consumer
    // GEMM into every feature block would spill and reload the partial sums
    // on every pass; the compiler instead spills the aggregated features and
    // runs the consumer stage as one full-depth GEMM pass after the last
    // feature block (`deferred_consumer`).
    let deferred_consumer = plan.post_dense.is_some() && !output_resident;
    // Completion time of each destination column across all feature blocks,
    // which is what the deferred consumer pass waits on.
    let mut column_final: Vec<Cycle> = vec![layer_start; s];

    for block_idx in 0..plan.num_blocks {
        let block_offset = block_idx * plan.block_size;
        let block_dim = plan.block_size.min(aggregated_dim - block_offset);
        let first_block = block_idx == 0;

        // ---- Aggregation over the shard grid + consumer dense stage ----
        let mut columns = ColumnState::new(s, layer_start);

        if plan.aggregation.is_some() {
            // The walks below visit only *occupied* shards through the sparse
            // grid index. Empty shards are provably no-ops in `process_shard`
            // (no DRAM requests, no cycles, no column updates), so skipping
            // them leaves every cycle and byte count bit-identical while the
            // loop scales with occupied shards instead of `S²`.
            match plan.traversal {
                TraversalOrder::DestinationStationary => {
                    // Column by column; the consumer dense job for a column
                    // is issued as soon as the column finishes. Within a
                    // column the occupied shards come back in ascending
                    // source-block order, matching the dense walk.
                    for dst in 0..s {
                        for meta in plan.grid.column_metas(dst) {
                            graph.process_shard(
                                plan,
                                dram,
                                meta,
                                block_dim,
                                &pre_done,
                                layer_start,
                                &mut columns,
                            );
                            if first_block {
                                occupied_shards += 1;
                            }
                        }
                        let consumed = dense.consume_column(
                            plan,
                            dram,
                            dst,
                            block_idx,
                            deferred_consumer,
                            block_dim,
                            columns.done[dst],
                        );
                        layer_end = layer_end.max(consumed).max(columns.done[dst]);
                    }
                }
                TraversalOrder::SourceStationary => {
                    // Row by row; destination accumulators spill and reload
                    // between visits, and the consumer dense jobs can only
                    // run after the final row.
                    for src in 0..s {
                        for meta in plan.grid.row_metas(src) {
                            graph.process_shard(
                                plan,
                                dram,
                                meta,
                                block_dim,
                                &pre_done,
                                layer_start,
                                &mut columns,
                            );
                            if first_block {
                                occupied_shards += 1;
                            }
                        }
                    }
                    for dst in 0..s {
                        let consumed = dense.consume_column(
                            plan,
                            dram,
                            dst,
                            block_idx,
                            deferred_consumer,
                            block_dim,
                            columns.done[dst],
                        );
                        layer_end = layer_end.max(consumed).max(columns.done[dst]);
                    }
                }
            }
        } else {
            // No aggregation stage: the layer is pure feature extraction.
            for dst in 0..s {
                let consumed = dense.consume_column(
                    plan,
                    dram,
                    dst,
                    block_idx,
                    deferred_consumer,
                    block_dim,
                    layer_start,
                );
                layer_end = layer_end.max(consumed);
            }
        }

        for (final_done, done) in column_final.iter_mut().zip(&columns.done) {
            *final_done = (*final_done).max(*done);
        }
    }

    // ---- Deferred consumer pass ----
    if deferred_consumer {
        layer_end = layer_end.max(dense.deferred_pass(plan, dram, &column_final));
    }

    // ---- Self-feature contribution of a concatenating consumer stage ----
    layer_end = layer_end.max(dense.self_feature_pass(plan, dram, output_resident));

    layer_end = layer_end
        .max(graph.compute_free())
        .max(dense.free())
        .max(dram.busy_until());

    let traffic_after = *dram.traffic();
    LayerReport {
        layer_index: plan.layer_index,
        cycles: layer_end - layer_start,
        graph_engine_busy: graph.busy(),
        dense_engine_busy: dense.busy(),
        inter_engine_stall: graph.stall() + dense.stall(),
        dram_read_bytes: traffic_after.read_bytes - traffic_before.read_bytes,
        dram_write_bytes: traffic_after.write_bytes - traffic_before.write_bytes,
        grid_dim: s,
        block_size: plan.block_size,
        num_blocks: plan.num_blocks,
        nodes_per_shard: plan.nodes_per_shard,
        occupied_shards,
    }
}
