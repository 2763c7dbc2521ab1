use gnnerator_gnn::{Aggregator, StageOrder};
use gnnerator_graph::{ShardSummary, TraversalOrder};
use gnnerator_tensor::Activation;
use std::fmt;
use std::sync::Arc;

/// A dense (feature-extraction) operation mapped onto the Dense Engine.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseOp {
    /// The K dimension that is fed by the (blocked) aggregated feature — the
    /// part that is processed block-by-block with partial-sum accumulation.
    pub blocked_dim: usize,
    /// Additional K contributed by the node's own (un-aggregated) feature
    /// when the layer concatenates it (`W · (z̄ ∪ h)`); zero otherwise.
    pub self_dim: usize,
    /// Output dimension N.
    pub out_dim: usize,
    /// Activation applied by the activation unit after the GEMM.
    pub activation: Activation,
}

impl DenseOp {
    /// Total K of the full (unblocked) GEMM.
    pub fn total_in_dim(&self) -> usize {
        self.blocked_dim + self.self_dim
    }
}

impl fmt::Display for DenseOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dense {}(+{}) -> {} [{}]",
            self.blocked_dim, self.self_dim, self.out_dim, self.activation
        )
    }
}

/// An aggregation operation mapped onto the Graph Engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregationOp {
    /// Feature dimension being aggregated.
    pub dim: usize,
    /// Reduction performed by the Reduce Unit.
    pub aggregator: Aggregator,
    /// Whether each node's own feature participates (handled by adding
    /// self-loop edges to the sharded edge list).
    pub include_self: bool,
}

/// The execution plan for one GNN layer on GNNerator.
///
/// The plan fixes everything Algorithm 1 needs: the feature-block size `B`,
/// the shard grid (whose dimension `S` follows from how many nodes fit
/// on-chip at that block size), the traversal order, and the dense operations
/// that produce (`pre_dense`, GraphSAGE-Pool's pooling MLP) or consume
/// (`post_dense`) the aggregated features.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    /// Index of the layer in the model.
    pub layer_index: usize,
    /// Which engine is the producer for this layer.
    pub stage_order: StageOrder,
    /// Layer input feature dimension.
    pub in_dim: usize,
    /// Layer output feature dimension.
    pub out_dim: usize,
    /// The aggregation mapped onto the Graph Engine, if the layer has one.
    pub aggregation: Option<AggregationOp>,
    /// Dense stage executed *before* aggregation (producer), if any.
    pub pre_dense: Option<DenseOp>,
    /// Dense stage executed *after* aggregation (consumer), if any.
    pub post_dense: Option<DenseOp>,
    /// Feature-block size `B` chosen by the dataflow.
    pub block_size: usize,
    /// Number of feature blocks (`ceil(D / B)`).
    pub num_blocks: usize,
    /// Maximum nodes per shard (`n`), derived from the scratchpad capacity.
    pub nodes_per_shard: usize,
    /// Shard-grid traversal order.
    pub traversal: TraversalOrder,
    /// The occupied-shard summary of this layer's 2-D shard grid
    /// (self-loops already merged in when the aggregation includes the node
    /// itself). It carries the per-shard counts the timing model reads and
    /// no edges.
    ///
    /// Shared: layers of one program — and programs compiled from the same
    /// [`SimSession`](crate::SimSession) under different configurations —
    /// reuse one summary whenever their shard parameters coincide.
    pub grid: Arc<ShardSummary>,
}

impl LayerPlan {
    /// The shard grid dimension `S`.
    pub fn grid_dim(&self) -> usize {
        self.grid.grid_dim()
    }

    /// The feature dimension flowing through the Graph Engine.
    pub fn aggregated_dim(&self) -> usize {
        self.aggregation.map(|a| a.dim).unwrap_or(self.in_dim)
    }
}

impl fmt::Display for LayerPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layer {}: {} -> {}, B={} ({} blocks), S={} ({} nodes/shard), {}",
            self.layer_index,
            self.in_dim,
            self.out_dim,
            self.block_size,
            self.num_blocks,
            self.grid_dim(),
            self.nodes_per_shard,
            self.traversal
        )
    }
}

/// A compiled program: one [`LayerPlan`] per model layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Name of the model the program was compiled from.
    pub model_name: String,
    /// Number of nodes in the target graph.
    pub num_nodes: usize,
    /// Number of edges in the target graph (excluding any self-loops the
    /// compiler added for self-inclusive aggregation).
    pub num_edges: usize,
    /// Per-layer execution plans.
    pub layers: Vec<LayerPlan>,
}

impl Program {
    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program for {} on {} nodes / {} edges:",
            self.model_name, self.num_nodes, self.num_edges
        )?;
        for layer in &self.layers {
            writeln!(f, "  {layer}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator_graph::EdgeList;

    fn tiny_grid() -> Arc<ShardSummary> {
        let edges = EdgeList::from_pairs(4, &[(0, 1), (2, 3)]).unwrap();
        Arc::new(ShardSummary::build(&edges, 2, false).unwrap())
    }

    fn sample_plan() -> LayerPlan {
        LayerPlan {
            layer_index: 0,
            stage_order: StageOrder::GraphFirst,
            in_dim: 8,
            out_dim: 4,
            aggregation: Some(AggregationOp {
                dim: 8,
                aggregator: Aggregator::Mean,
                include_self: true,
            }),
            pre_dense: None,
            post_dense: Some(DenseOp {
                blocked_dim: 8,
                self_dim: 0,
                out_dim: 4,
                activation: Activation::Relu,
            }),
            block_size: 4,
            num_blocks: 2,
            nodes_per_shard: 2,
            traversal: TraversalOrder::DestinationStationary,
            grid: tiny_grid(),
        }
    }

    #[test]
    fn dense_op_total_dim() {
        let op = DenseOp {
            blocked_dim: 16,
            self_dim: 16,
            out_dim: 4,
            activation: Activation::Relu,
        };
        assert_eq!(op.total_in_dim(), 32);
        assert!(op.to_string().contains("16"));
    }

    #[test]
    fn layer_plan_accessors() {
        let plan = sample_plan();
        assert_eq!(plan.grid_dim(), 2);
        assert_eq!(plan.aggregated_dim(), 8);
        assert!(plan.to_string().contains("B=4"));
    }

    #[test]
    fn aggregated_dim_falls_back_to_input_dim() {
        let mut plan = sample_plan();
        plan.aggregation = None;
        assert_eq!(plan.aggregated_dim(), 8);
    }

    #[test]
    fn program_counts_shard_steps() {
        let program = Program {
            model_name: "gcn".into(),
            num_nodes: 4,
            num_edges: 2,
            layers: vec![sample_plan(), sample_plan()],
        };
        assert_eq!(program.num_layers(), 2);
        assert!(program.to_string().contains("gcn"));
    }
}
