//! FLOP and byte accounting for GNN workloads.
//!
//! The baselines (GPU roofline, HyGCN analytical model) and the report
//! generator all need to know how much arithmetic and how much memory
//! traffic each stage of each layer requires. This module derives those
//! quantities from a [`GnnModel`] and the size of the graph it runs on,
//! independent of any particular hardware mapping.

use crate::{GnnModel, Stage, StageOrder};
use std::fmt;

/// Bytes per feature element (fp32).
pub const BYTES_PER_ELEMENT: usize = 4;

/// Bytes per edge record (source id + destination id, 4 bytes each).
pub const BYTES_PER_EDGE: usize = 8;

/// Which engine class a stage belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Dense feature extraction (systolic-array work).
    Dense,
    /// Sparse neighbourhood aggregation (graph-engine work).
    Aggregate,
}

impl fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhaseKind::Dense => f.write_str("dense"),
            PhaseKind::Aggregate => f.write_str("aggregate"),
        }
    }
}

/// Arithmetic and traffic requirements of one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageWorkload {
    /// Dense or aggregation work.
    pub kind: PhaseKind,
    /// Input feature dimension of the stage.
    pub in_dim: usize,
    /// Output feature dimension of the stage.
    pub out_dim: usize,
    /// Floating-point operations (multiply-accumulate counted as 2 FLOPs for
    /// dense stages, one combine op per edge element for aggregation).
    pub flops: u64,
    /// Bytes that must be read from DRAM assuming *perfect* on-chip reuse
    /// (every operand read exactly once).
    pub ideal_read_bytes: u64,
    /// Bytes read from DRAM by a locality-oblivious gather (one feature read
    /// per edge); only meaningful for aggregation stages, equal to
    /// `ideal_read_bytes` for dense stages.
    pub gather_read_bytes: u64,
    /// Bytes written back to DRAM.
    pub write_bytes: u64,
}

impl StageWorkload {
    /// Arithmetic intensity in FLOPs per ideal DRAM byte moved.
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.ideal_read_bytes + self.write_bytes;
        if bytes == 0 {
            0.0
        } else {
            self.flops as f64 / bytes as f64
        }
    }
}

/// Arithmetic and traffic requirements of one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerWorkload {
    /// Index of the layer in the model.
    pub index: usize,
    /// Producer/consumer ordering of the layer.
    pub stage_order: StageOrder,
    /// Per-stage breakdown in execution order.
    pub stages: Vec<StageWorkload>,
}

impl LayerWorkload {
    /// Total FLOPs across all stages.
    pub fn total_flops(&self) -> u64 {
        self.stages.iter().map(|s| s.flops).sum()
    }

    /// Total ideal DRAM traffic (reads + writes) across all stages.
    pub fn total_ideal_bytes(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.ideal_read_bytes + s.write_bytes)
            .sum()
    }

    /// FLOPs attributable to dense stages.
    pub fn dense_flops(&self) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.kind == PhaseKind::Dense)
            .map(|s| s.flops)
            .sum()
    }

    /// FLOPs attributable to aggregation stages.
    pub fn aggregate_flops(&self) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.kind == PhaseKind::Aggregate)
            .map(|s| s.flops)
            .sum()
    }
}

/// Arithmetic and traffic requirements of a whole model on a given graph.
///
/// # Examples
///
/// ```
/// use gnnerator_gnn::{NetworkKind, workload::ModelWorkload};
///
/// # fn main() -> Result<(), gnnerator_gnn::GnnError> {
/// let model = NetworkKind::Gcn.build_paper_config(1433, 7)?;
/// let w = ModelWorkload::analyze(&model, 2708, 10556);
/// assert_eq!(w.layers.len(), 2);
/// assert!(w.total_flops() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelWorkload {
    /// Number of nodes in the target graph.
    pub num_nodes: usize,
    /// Number of directed edges in the target graph.
    pub num_edges: usize,
    /// Per-layer breakdown.
    pub layers: Vec<LayerWorkload>,
}

impl ModelWorkload {
    /// Derives the workload of `model` running on a graph with `num_nodes`
    /// nodes and `num_edges` edges.
    pub fn analyze(model: &GnnModel, num_nodes: usize, num_edges: usize) -> Self {
        let n = num_nodes as u64;
        let e = num_edges as u64;
        let layers = model
            .layers()
            .iter()
            .enumerate()
            .map(|(index, layer)| {
                let stages = layer
                    .stages()
                    .iter()
                    .map(|stage| analyze_stage(stage, n, e))
                    .collect();
                LayerWorkload {
                    index,
                    stage_order: layer.stage_order(),
                    stages,
                }
            })
            .collect();
        Self {
            num_nodes,
            num_edges,
            layers,
        }
    }

    /// Total FLOPs across the whole model.
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().map(LayerWorkload::total_flops).sum()
    }

    /// Total ideal DRAM traffic across the whole model.
    pub fn total_ideal_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(LayerWorkload::total_ideal_bytes)
            .sum()
    }

    /// Total dense-engine FLOPs.
    pub fn dense_flops(&self) -> u64 {
        self.layers.iter().map(LayerWorkload::dense_flops).sum()
    }

    /// Total aggregation FLOPs.
    pub fn aggregate_flops(&self) -> u64 {
        self.layers.iter().map(LayerWorkload::aggregate_flops).sum()
    }
}

fn analyze_stage(stage: &Stage, n: u64, e: u64) -> StageWorkload {
    match stage {
        Stage::Dense {
            in_dim,
            out_dim,
            concat_self,
            ..
        } => {
            let d_in = *in_dim as u64;
            let d_out = *out_dim as u64;
            // 2 FLOPs per MAC.
            let flops = 2 * n * d_in * d_out;
            let input_bytes = n * d_in * BYTES_PER_ELEMENT as u64;
            let weight_bytes = d_in * d_out * BYTES_PER_ELEMENT as u64;
            let read = input_bytes + weight_bytes;
            let write = n * d_out * BYTES_PER_ELEMENT as u64;
            let _ = concat_self;
            StageWorkload {
                kind: PhaseKind::Dense,
                in_dim: *in_dim,
                out_dim: *out_dim,
                flops,
                ideal_read_bytes: read,
                gather_read_bytes: read,
                write_bytes: write,
            }
        }
        Stage::Aggregate {
            dim,
            aggregator,
            include_self,
        } => {
            let d = *dim as u64;
            let effective_edges = if *include_self { e + n } else { e };
            let flops = effective_edges * d * aggregator.ops_per_edge_per_dim() as u64;
            // Ideal: every node feature read once + edge list read once.
            let ideal_read =
                n * d * BYTES_PER_ELEMENT as u64 + effective_edges * BYTES_PER_EDGE as u64;
            // Gather: one source-feature read per edge + edge list.
            let gather_read = effective_edges * d * BYTES_PER_ELEMENT as u64
                + effective_edges * BYTES_PER_EDGE as u64;
            let write = n * d * BYTES_PER_ELEMENT as u64;
            StageWorkload {
                kind: PhaseKind::Aggregate,
                in_dim: *dim,
                out_dim: *dim,
                flops,
                ideal_read_bytes: ideal_read,
                gather_read_bytes: gather_read,
                write_bytes: write,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkKind;

    fn cora_gcn() -> ModelWorkload {
        let model = NetworkKind::Gcn.build_paper_config(1433, 7).unwrap();
        ModelWorkload::analyze(&model, 2708, 10556)
    }

    #[test]
    fn layer_count_matches_model() {
        let w = cora_gcn();
        assert_eq!(w.layers.len(), 2);
        assert_eq!(w.num_nodes, 2708);
        assert_eq!(w.num_edges, 10556);
    }

    #[test]
    fn dense_flops_dominate_for_gcn_layer_one() {
        // Layer 1 of Cora-GCN: dense is 2 * 2708 * 1433 * 16 MACs, aggregation
        // is only ~13k edges * 1433 adds — dense dominates by >5x.
        let w = cora_gcn();
        let l0 = &w.layers[0];
        assert!(l0.dense_flops() > 5 * l0.aggregate_flops());
    }

    #[test]
    fn dense_stage_flop_formula() {
        let model = NetworkKind::Gcn.build(100, 10, 10, 0).unwrap();
        let w = ModelWorkload::analyze(&model, 50, 200);
        let dense = &w.layers[0].stages[1];
        assert_eq!(dense.kind, PhaseKind::Dense);
        assert_eq!(dense.flops, 2 * 50 * 100 * 10);
        assert_eq!(dense.write_bytes, 50 * 10 * 4);
    }

    #[test]
    fn aggregate_stage_counts_self_loops() {
        let model = NetworkKind::Gcn.build(8, 4, 4, 0).unwrap();
        let w = ModelWorkload::analyze(&model, 10, 30);
        let agg = &w.layers[0].stages[0];
        assert_eq!(agg.kind, PhaseKind::Aggregate);
        // include_self = true adds one edge per node.
        assert_eq!(agg.flops, (30 + 10) * 8);
        assert_eq!(agg.write_bytes, 10 * 8 * 4);
        assert!(agg.gather_read_bytes > agg.ideal_read_bytes);
    }

    #[test]
    fn graphsage_dense_input_is_doubled() {
        let model = NetworkKind::Graphsage.build(16, 8, 8, 0).unwrap();
        let w = ModelWorkload::analyze(&model, 10, 20);
        let dense = &w.layers[0].stages[1];
        assert_eq!(dense.in_dim, 32);
        assert_eq!(dense.flops, 2 * 10 * 32 * 8);
    }

    #[test]
    fn graphsage_pool_has_three_stages_and_dense_first_order() {
        let model = NetworkKind::GraphsagePool
            .build_paper_config(64, 4)
            .unwrap();
        let w = ModelWorkload::analyze(&model, 100, 400);
        assert_eq!(w.layers[0].stages.len(), 3);
        assert_eq!(w.layers[0].stage_order, StageOrder::DenseFirst);
        assert_eq!(w.layers[0].stages[0].kind, PhaseKind::Dense);
        assert_eq!(w.layers[0].stages[1].kind, PhaseKind::Aggregate);
    }

    #[test]
    fn totals_are_sums_of_layers() {
        let w = cora_gcn();
        let sum: u64 = w.layers.iter().map(LayerWorkload::total_flops).sum();
        assert_eq!(w.total_flops(), sum);
        assert_eq!(w.total_flops(), w.dense_flops() + w.aggregate_flops());
        assert!(w.total_ideal_bytes() > 0);
    }

    #[test]
    fn arithmetic_intensity_is_low_for_aggregation() {
        // Aggregation does 1 op per 4-byte element moved: intensity << 1.
        let w = cora_gcn();
        let agg = &w.layers[0].stages[0];
        assert!(agg.arithmetic_intensity() < 1.0);
        let dense = &w.layers[0].stages[1];
        assert!(dense.arithmetic_intensity() > agg.arithmetic_intensity());
    }

    #[test]
    fn citeseer_has_more_aggregation_traffic_than_cora() {
        // Citeseer's 3703-dim features make its aggregation stage heavier even
        // though it has fewer edges.
        let gcn_cora = cora_gcn();
        let model = NetworkKind::Gcn.build_paper_config(3703, 6).unwrap();
        let citeseer = ModelWorkload::analyze(&model, 3327, 9104);
        assert!(
            citeseer.layers[0].stages[0].gather_read_bytes
                > gcn_cora.layers[0].stages[0].gather_read_bytes
        );
    }

    #[test]
    fn display_phase_kind() {
        assert_eq!(PhaseKind::Dense.to_string(), "dense");
        assert_eq!(PhaseKind::Aggregate.to_string(), "aggregate");
    }
}
