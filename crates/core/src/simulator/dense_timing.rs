//! Dense Engine timing: producer, consumer, deferred and self-feature GEMMs.

use super::{Cycle, DramModel};
use crate::program::LayerPlan;
use crate::DenseEngine;

/// Timing cursors of the Dense Engine while one layer executes.
///
/// The engine runs its GEMM jobs strictly in issue order (weight-stationary
/// systolic array with double-buffered operand scratchpads), so a single
/// `free` cursor tracks when the next job can start; `busy` and `stall`
/// accumulate utilisation and producer/consumer-dependency stalls.
#[derive(Debug)]
pub(crate) struct DenseTimer<'e> {
    engine: &'e DenseEngine,
    free: Cycle,
    busy: Cycle,
    stall: Cycle,
}

impl<'e> DenseTimer<'e> {
    pub fn new(engine: &'e DenseEngine, layer_start: Cycle) -> Self {
        Self {
            engine,
            free: layer_start,
            busy: 0,
            stall: 0,
        }
    }

    /// Cycle at which the engine finishes its last accepted GEMM.
    pub fn free(&self) -> Cycle {
        self.free
    }

    /// Total busy cycles so far.
    pub fn busy(&self) -> Cycle {
        self.busy
    }

    /// Total cycles stalled on loads or on the Graph Engine so far.
    pub fn stall(&self) -> Cycle {
        self.stall
    }

    /// Whether the full accumulating output of the consumer stage stays
    /// resident in the engine's output buffer (no partial-sum DRAM traffic).
    pub fn output_resident(&self, plan: &LayerPlan) -> bool {
        plan.post_dense
            .as_ref()
            .map(|post| {
                self.engine
                    .output_resident(plan.grid.num_nodes(), post.out_dim)
            })
            .unwrap_or(false)
    }

    /// Producer dense stage (GraphSAGE-Pool's pooling MLP).
    ///
    /// Runs once per layer: it produces the full pooled feature table (all
    /// dimensions) node block by node block and spills it to DRAM, from where
    /// the Graph Engine's fetch units read the active dimension block of it.
    /// The Graph Engine stalls on these completions (the GNNerator
    /// Controller's dense-first synchronisation).
    ///
    /// Fills `pre_done` with each node block's completion cycle and returns
    /// the latest completion (a layer-end candidate).
    pub fn producer_pass(
        &mut self,
        plan: &LayerPlan,
        dram: &mut DramModel,
        pre_done: &mut [Cycle],
    ) -> Cycle {
        let mut latest = 0;
        if let Some(pre) = &plan.pre_dense {
            for (nb, done) in pre_done.iter_mut().enumerate() {
                let m = plan.grid.block_len(nb);
                if m == 0 {
                    *done = self.free;
                    continue;
                }
                let k = pre.total_in_dim();
                let n_out = pre.out_dim;
                let bytes = self.engine.weight_bytes(k, n_out) + self.engine.input_bytes(m, k);
                let load_done = dram.read(self.free, bytes);
                let start = self.free.max(load_done);
                let cycles = self.engine.gemm_cycles(m, k, n_out);
                let end = start + cycles;
                dram.write(end, self.engine.output_bytes(m, n_out));
                self.busy += cycles;
                self.free = end;
                *done = end;
                latest = latest.max(end);
            }
        }
        latest
    }

    /// Consumer dense stage for one destination column of one feature block:
    /// the blocked GEMM with partial-sum accumulation.
    ///
    /// Returns a layer-end candidate (0 when the column produced no work).
    #[allow(clippy::too_many_arguments)]
    pub fn consume_column(
        &mut self,
        plan: &LayerPlan,
        dram: &mut DramModel,
        dst_block: usize,
        block_idx: usize,
        deferred: bool,
        block_dim: usize,
        column_ready: Cycle,
    ) -> Cycle {
        let m = plan.grid.block_len(dst_block);
        if plan.post_dense.is_none() || deferred {
            // Either there is no consumer dense stage, or the consumer runs
            // as a deferred full-depth pass after the last block; in both
            // cases the aggregated block is written back to DRAM here.
            if m > 0 && plan.aggregation.is_some() {
                let bytes = (m * block_dim * 4) as u64;
                return dram.write(column_ready, bytes);
            }
            return 0;
        }
        let post = plan.post_dense.as_ref().expect("checked above");
        if m == 0 {
            return 0;
        }
        // Fused consumer: the accumulating output stays resident in the Dense
        // Engine's output buffer, so the only traffic per block is the weight
        // slice (plus the inputs for a layer with no aggregation stage).
        let mut bytes = self.engine.weight_bytes(block_dim, post.out_dim);
        if plan.aggregation.is_none() {
            bytes += self.engine.input_bytes(m, block_dim);
        }
        let load_done = dram.read(self.free, bytes);
        let start = self.free.max(load_done).max(column_ready);
        self.stall += start - self.free;
        let cycles = self.engine.gemm_cycles(m, block_dim, post.out_dim);
        let end = start + cycles;
        // The resident output is only written out once, after the final block.
        let is_last_block = block_idx + 1 == plan.num_blocks;
        if is_last_block {
            dram.write(end, self.engine.output_bytes(m, post.out_dim));
        }
        self.busy += cycles;
        self.free = end;
        end
    }

    /// Deferred consumer pass.
    ///
    /// When the output could not stay resident, the aggregated features were
    /// spilled per block; the consumer GEMM now runs once per destination
    /// block over the full aggregated depth, waiting on each column's final
    /// aggregation across all feature blocks.
    ///
    /// Returns a layer-end candidate.
    pub fn deferred_pass(
        &mut self,
        plan: &LayerPlan,
        dram: &mut DramModel,
        column_final: &[Cycle],
    ) -> Cycle {
        let mut latest = 0;
        if let Some(post) = &plan.post_dense {
            for (dst, final_done) in column_final.iter().enumerate() {
                let m = plan.grid.block_len(dst);
                if m == 0 {
                    continue;
                }
                let k = post.blocked_dim;
                let bytes =
                    self.engine.input_bytes(m, k) + self.engine.weight_bytes(k, post.out_dim);
                let load_done = dram.read(self.free, bytes);
                let start = self.free.max(load_done).max(*final_done);
                self.stall += start - self.free;
                let cycles = self.engine.gemm_cycles(m, k, post.out_dim);
                let end = start + cycles;
                dram.write(end, self.engine.output_bytes(m, post.out_dim));
                self.busy += cycles;
                self.free = end;
                latest = latest.max(end);
            }
        }
        latest
    }

    /// Self-feature contribution of a concatenating consumer stage.
    ///
    /// GraphSAGE's `W · (z̄ ∪ h)`: the `h` half of the weights multiplies the
    /// node's own (un-aggregated) input feature. It is processed once per
    /// destination block after all aggregated blocks have accumulated.
    ///
    /// Returns a layer-end candidate.
    pub fn self_feature_pass(
        &mut self,
        plan: &LayerPlan,
        dram: &mut DramModel,
        output_resident: bool,
    ) -> Cycle {
        let mut latest = 0;
        if let Some(post) = &plan.post_dense {
            if post.self_dim > 0 {
                for dst in 0..plan.grid_dim() {
                    let m = plan.grid.block_len(dst);
                    if m == 0 {
                        continue;
                    }
                    let mut bytes = self.engine.weight_bytes(post.self_dim, post.out_dim)
                        + self.engine.input_bytes(m, post.self_dim);
                    if !output_resident {
                        bytes += self.engine.partial_sum_traffic_bytes(m, post.out_dim);
                    }
                    let load_done = dram.read(self.free, bytes);
                    let start = self.free.max(load_done);
                    self.stall += start - self.free;
                    let cycles = self.engine.gemm_cycles(m, post.self_dim, post.out_dim);
                    let end = start + cycles;
                    dram.write(end, self.engine.output_bytes(m, post.out_dim));
                    self.busy += cycles;
                    self.free = end;
                    latest = latest.max(end);
                }
            }
        }
        latest
    }
}
