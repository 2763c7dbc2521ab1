use crate::program::{AggregationOp, DenseOp, LayerPlan, Program};
use crate::{cost, DataflowConfig, GnneratorConfig, GnneratorError, GraphEngine};
use gnnerator_gnn::{GnnModel, Stage};
use gnnerator_graph::{EdgeList, ShardPlanCache};
use std::sync::Arc;

/// The GNNerator compiler: lowers a [`GnnModel`] plus a graph onto the two
/// engines, producing a [`Program`] of per-layer execution plans.
///
/// For every layer the compiler
///
/// 1. splits the layer's stages into an optional producer-side dense op, the
///    aggregation, and an optional consumer-side dense op,
/// 2. picks the feature-block size `B` from the [`DataflowConfig`],
/// 3. derives how many nodes fit on-chip at that block size (the shard
///    parameter `n`) from the Graph Engine's scratchpad capacity,
/// 4. summarises the edge list's `S x S` shard grid — per-occupied-shard
///    edge and distinct-endpoint counts, no edges (merging in self-loop
///    edges when the aggregation includes the node itself), and
/// 5. chooses the shard-traversal order from the Table I cost model unless
///    the dataflow pins one.
///
/// # Examples
///
/// ```
/// use gnnerator::{Compiler, DataflowConfig, GnneratorConfig};
/// use gnnerator_gnn::NetworkKind;
/// use gnnerator_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let edges = generators::rmat(256, 1024, 7)?;
/// let model = NetworkKind::Gcn.build(128, 16, 4, 1)?;
/// let compiler = Compiler::new(GnneratorConfig::paper_default(), DataflowConfig::paper_default())?;
/// let program = compiler.compile(&model, &edges)?;
/// assert_eq!(program.num_layers(), 2);
/// assert_eq!(program.layers[0].block_size, 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    config: GnneratorConfig,
    dataflow: DataflowConfig,
    graph_engine: GraphEngine,
}

impl Compiler {
    /// Creates a compiler for a given platform and dataflow.
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::InvalidConfig`] or
    /// [`GnneratorError::InvalidDataflow`] if either configuration is invalid.
    pub fn new(config: GnneratorConfig, dataflow: DataflowConfig) -> Result<Self, GnneratorError> {
        config.validate()?;
        dataflow.validate()?;
        let graph_engine = GraphEngine::new(&config.graph)?;
        Ok(Self {
            config,
            dataflow,
            graph_engine,
        })
    }

    /// The platform configuration this compiler targets.
    pub fn config(&self) -> &GnneratorConfig {
        &self.config
    }

    /// The dataflow configuration this compiler applies.
    pub fn dataflow(&self) -> &DataflowConfig {
        &self.dataflow
    }

    /// Compiles `model` for execution on the graph described by `edges`.
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::Unmappable`] if a layer has a stage structure
    /// the two-engine pipeline cannot express (more than one aggregation or
    /// more than one dense stage on either side of it), and propagates graph
    /// errors from sharding.
    pub fn compile(&self, model: &GnnModel, edges: &EdgeList) -> Result<Program, GnneratorError> {
        // A throwaway cache keeps the one-shot path on the same code as the
        // session path (and already dedups identical grids across layers).
        let plans = ShardPlanCache::new(Arc::new(edges.clone()));
        self.compile_cached(model, &plans)
    }

    /// Compiles `model` against a shard-plan cache, reusing any grids the
    /// cache already holds.
    ///
    /// This is the compile-once path used by
    /// [`SimSession`](crate::SimSession): sweeping many configurations over
    /// one graph re-shards only when the derived nodes-per-shard parameter
    /// actually changes.
    ///
    /// # Errors
    ///
    /// Same contract as [`Compiler::compile`].
    pub fn compile_cached(
        &self,
        model: &GnnModel,
        plans: &ShardPlanCache,
    ) -> Result<Program, GnneratorError> {
        let edges = plans.edges();
        if edges.num_nodes() == 0 {
            return Err(GnneratorError::unmappable("graph has no nodes"));
        }
        let num_nodes = edges.num_nodes();
        let num_edges = edges.num_edges();
        let mut layers = Vec::with_capacity(model.num_layers());
        for (index, layer) in model.layers().iter().enumerate() {
            layers.push(self.compile_layer(index, layer, plans)?);
        }
        Ok(Program {
            model_name: model.name().to_string(),
            num_nodes,
            num_edges,
            layers,
        })
    }

    fn compile_layer(
        &self,
        layer_index: usize,
        layer: &gnnerator_gnn::GnnLayer,
        plans: &ShardPlanCache,
    ) -> Result<LayerPlan, GnneratorError> {
        let (pre_dense, aggregation, post_dense) = split_stages(layer_index, layer)?;

        let aggregated_dim = aggregation.map(|a| a.dim).unwrap_or(layer.in_dim());
        let block_size = self.dataflow.effective_block_size(aggregated_dim);
        let num_blocks = self.dataflow.num_blocks(aggregated_dim);

        let nodes_per_shard = self
            .graph_engine
            .nodes_per_shard(block_size)
            .min(plans.edges().num_nodes())
            .max(1);

        // Self-inclusive aggregation is realised by adding self-loop edges so
        // the Graph Engine treats every contribution uniformly.
        let include_self = aggregation.map(|a| a.include_self).unwrap_or(false);
        let grid = plans.plan(nodes_per_shard, include_self)?;

        let traversal = self
            .dataflow
            .traversal
            .unwrap_or_else(|| cost::choose_order(grid.grid_dim() as u64, 1));

        Ok(LayerPlan {
            layer_index,
            stage_order: layer.stage_order(),
            in_dim: layer.in_dim(),
            out_dim: layer.out_dim(),
            aggregation,
            pre_dense,
            post_dense,
            block_size,
            num_blocks,
            nodes_per_shard,
            traversal,
            grid,
        })
    }
}

/// The three-way split of a layer's stages: (producer dense, aggregation,
/// consumer dense).
type SplitStages = (Option<DenseOp>, Option<AggregationOp>, Option<DenseOp>);

/// Splits a layer's stage list into (producer dense, aggregation, consumer
/// dense), erroring on structures the hardware pipeline cannot express.
fn split_stages(
    layer_index: usize,
    layer: &gnnerator_gnn::GnnLayer,
) -> Result<SplitStages, GnneratorError> {
    let mut pre_dense: Option<DenseOp> = None;
    let mut aggregation: Option<AggregationOp> = None;
    let mut post_dense: Option<DenseOp> = None;

    for stage in layer.stages() {
        match stage {
            Stage::Aggregate {
                dim,
                aggregator,
                include_self,
            } => {
                if aggregation.is_some() {
                    return Err(GnneratorError::unmappable(format!(
                        "layer {layer_index} has more than one aggregation stage"
                    )));
                }
                aggregation = Some(AggregationOp {
                    dim: *dim,
                    aggregator: *aggregator,
                    include_self: *include_self,
                });
            }
            Stage::Dense {
                in_dim,
                out_dim,
                activation,
                concat_self,
                ..
            } => {
                let blocked_dim = if *concat_self {
                    in_dim - layer.in_dim()
                } else {
                    *in_dim
                };
                let op = DenseOp {
                    blocked_dim,
                    self_dim: in_dim - blocked_dim,
                    out_dim: *out_dim,
                    activation: *activation,
                };
                let slot = if aggregation.is_none() {
                    &mut pre_dense
                } else {
                    &mut post_dense
                };
                if slot.is_some() {
                    return Err(GnneratorError::unmappable(format!(
                        "layer {layer_index} has more than one dense stage on one side of the aggregation"
                    )));
                }
                *slot = Some(op);
            }
        }
    }
    Ok((pre_dense, aggregation, post_dense))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator_gnn::{NetworkKind, StageOrder};
    use gnnerator_graph::{generators, TraversalOrder};

    fn small_edges() -> EdgeList {
        generators::rmat(200, 800, 3).unwrap()
    }

    fn compiler(dataflow: DataflowConfig) -> Compiler {
        Compiler::new(GnneratorConfig::paper_default(), dataflow).unwrap()
    }

    #[test]
    fn rejects_invalid_configs() {
        let mut cfg = GnneratorConfig::paper_default();
        cfg.dense.array_rows = 0;
        assert!(Compiler::new(cfg, DataflowConfig::paper_default()).is_err());
        assert!(
            Compiler::new(GnneratorConfig::paper_default(), DataflowConfig::blocked(0)).is_err()
        );
    }

    #[test]
    fn rejects_empty_graph() {
        let c = compiler(DataflowConfig::paper_default());
        let model = NetworkKind::Gcn.build(16, 8, 4, 1).unwrap();
        let empty = EdgeList::new(0);
        assert!(c.compile(&model, &empty).is_err());
    }

    #[test]
    fn gcn_layers_are_graph_first_with_post_dense_only() {
        let c = compiler(DataflowConfig::paper_default());
        let model = NetworkKind::Gcn.build(128, 16, 4, 1).unwrap();
        let program = c.compile(&model, &small_edges()).unwrap();
        for plan in &program.layers {
            assert_eq!(plan.stage_order, StageOrder::GraphFirst);
            assert!(plan.pre_dense.is_none());
            assert!(plan.post_dense.is_some());
            assert!(plan.aggregation.is_some());
            assert_eq!(plan.post_dense.as_ref().unwrap().self_dim, 0);
        }
    }

    #[test]
    fn graphsage_post_dense_concatenates_self() {
        let c = compiler(DataflowConfig::paper_default());
        let model = NetworkKind::Graphsage.build(128, 16, 4, 0).unwrap();
        let program = c.compile(&model, &small_edges()).unwrap();
        let dense = program.layers[0].post_dense.as_ref().unwrap();
        assert_eq!(dense.blocked_dim, 128);
        assert_eq!(dense.self_dim, 128);
        assert_eq!(dense.total_in_dim(), 256);
    }

    #[test]
    fn graphsage_pool_has_a_producer_dense_stage() {
        let c = compiler(DataflowConfig::paper_default());
        let model = NetworkKind::GraphsagePool.build(64, 16, 4, 0).unwrap();
        let program = c.compile(&model, &small_edges()).unwrap();
        let plan = &program.layers[0];
        assert_eq!(plan.stage_order, StageOrder::DenseFirst);
        assert!(plan.pre_dense.is_some());
        assert!(plan.post_dense.is_some());
        assert_eq!(plan.pre_dense.as_ref().unwrap().out_dim, 64);
    }

    #[test]
    fn blocking_reduces_grid_dimension() {
        // With feature blocking many more nodes fit on-chip, so the shard
        // grid is smaller than (or equal to) the conventional dataflow's.
        let edges = generators::rmat(4000, 16000, 5).unwrap();
        let model = NetworkKind::Gcn.build(3703, 16, 4, 0).unwrap();
        let blocked = compiler(DataflowConfig::paper_default())
            .compile(&model, &edges)
            .unwrap();
        let conventional = compiler(DataflowConfig::conventional())
            .compile(&model, &edges)
            .unwrap();
        assert!(blocked.layers[0].grid_dim() <= conventional.layers[0].grid_dim());
        assert!(blocked.layers[0].nodes_per_shard >= conventional.layers[0].nodes_per_shard);
        assert!(
            conventional.layers[0].grid_dim() > 1,
            "test graph should not fit on-chip"
        );
    }

    #[test]
    fn block_count_covers_the_feature_dimension() {
        let c = compiler(DataflowConfig::blocked(64));
        let model = NetworkKind::Gcn.build(1433, 16, 4, 1).unwrap();
        let program = c.compile(&model, &small_edges()).unwrap();
        assert_eq!(program.layers[0].num_blocks, 23);
        assert_eq!(program.layers[0].block_size, 64);
        // Second layer aggregates the 16-dim hidden features: a single block.
        assert_eq!(program.layers[1].num_blocks, 1);
        assert_eq!(program.layers[1].block_size, 16);
    }

    #[test]
    fn self_loops_are_added_for_self_inclusive_aggregation() {
        let c = compiler(DataflowConfig::paper_default());
        let model = NetworkKind::Gcn.build(32, 8, 4, 0).unwrap();
        let edges = small_edges();
        let program = c.compile(&model, &edges).unwrap();
        // The sharded edge count includes one self-loop per node.
        assert_eq!(
            program.layers[0].grid.total_edges(),
            edges.num_edges() + edges.num_nodes()
        );
        // The program records the original edge count.
        assert_eq!(program.num_edges, edges.num_edges());
    }

    #[test]
    fn pinned_traversal_order_is_respected() {
        let df = DataflowConfig::conventional().with_traversal(TraversalOrder::SourceStationary);
        let c = compiler(df);
        let model = NetworkKind::Gcn.build(3703, 16, 4, 0).unwrap();
        let edges = generators::rmat(4000, 16000, 5).unwrap();
        let program = c.compile(&model, &edges).unwrap();
        assert_eq!(
            program.layers[0].traversal,
            TraversalOrder::SourceStationary
        );
    }

    #[test]
    fn auto_traversal_picks_destination_stationary_for_multi_shard_grids() {
        let c = compiler(DataflowConfig::conventional());
        let model = NetworkKind::Gcn.build(3703, 16, 4, 0).unwrap();
        let edges = generators::rmat(4000, 16000, 5).unwrap();
        let program = c.compile(&model, &edges).unwrap();
        assert!(program.layers[0].grid_dim() > 1);
        assert_eq!(
            program.layers[0].traversal,
            TraversalOrder::DestinationStationary
        );
    }

    #[test]
    fn accessors_expose_configs() {
        let c = compiler(DataflowConfig::paper_default());
        assert_eq!(c.config().name, "gnnerator");
        assert_eq!(c.dataflow(), &DataflowConfig::paper_default());
    }
}
