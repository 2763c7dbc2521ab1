//! Functional (value-level) execution of the compiled, feature-blocked
//! dataflow.
//!
//! The timing simulator answers "how long does it take"; this module answers
//! "does the blocked dataflow compute the same thing". It walks the same
//! shard grid in the same block/traversal order the hardware would, uses the
//! Graph Engine's streaming combine/finalize reduction, and accumulates the
//! Dense Engine's blocked GEMM partial sums — then the integration tests
//! compare the result against the plain mathematical reference executor
//! ([`gnnerator_gnn::reference`]). Agreement is the evidence that
//! feature-dimension blocking (Algorithm 1) is a *legal* re-ordering of the
//! GNN computation.

use crate::{Compiler, DataflowConfig, GnneratorConfig, GnneratorError};
use gnnerator_gnn::{GnnModel, Stage};
use gnnerator_graph::{EdgeList, NodeFeatures, ShardGrid};
use gnnerator_tensor::{ops, Matrix};

/// Executes `model` on the graph/features using the compiled blocked
/// dataflow, returning the output feature table.
///
/// # Errors
///
/// Returns [`GnneratorError::Unmappable`] if the features do not match the
/// model's input dimension, and propagates compilation or tensor errors.
///
/// # Examples
///
/// ```
/// use gnnerator::{functional, DataflowConfig, GnneratorConfig};
/// use gnnerator_gnn::{reference, NetworkKind};
/// use gnnerator_graph::{generators, CsrGraph, NodeFeatures};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let edges = generators::rmat(64, 256, 3)?;
/// let features = NodeFeatures::from_fn(64, 20, |v, d| ((v + d) % 7) as f32 * 0.1);
/// let model = NetworkKind::Gcn.build(20, 8, 4, 1)?;
///
/// let blocked = functional::execute_blocked(
///     &model,
///     &edges,
///     &features,
///     &GnneratorConfig::paper_default(),
///     &DataflowConfig::blocked(8),
/// )?;
/// let reference = reference::execute(&model, &CsrGraph::from_edge_list(&edges), &features)?;
/// assert!(blocked.approx_eq(&reference, 1e-3));
/// # Ok(())
/// # }
/// ```
pub fn execute_blocked(
    model: &GnnModel,
    edges: &EdgeList,
    input: &NodeFeatures,
    config: &GnneratorConfig,
    dataflow: &DataflowConfig,
) -> Result<Matrix, GnneratorError> {
    if input.dim() != model.input_dim() {
        return Err(GnneratorError::unmappable(format!(
            "features are {}-dimensional but the model expects {}",
            input.dim(),
            model.input_dim()
        )));
    }
    if input.num_nodes() != edges.num_nodes() {
        return Err(GnneratorError::unmappable(format!(
            "feature table has {} rows but the graph has {} nodes",
            input.num_nodes(),
            edges.num_nodes()
        )));
    }
    let compiler = Compiler::new(config.clone(), *dataflow)?;
    let program = compiler.compile(model, edges)?;

    let mut current = input.as_matrix().clone();
    for (plan, layer) in program.layers.iter().zip(model.layers()) {
        let layer_input = current.clone();

        // Locate the weights for the producer/consumer dense stages.
        let (pre_stage, post_stage) = locate_dense_stages(layer);

        // ---- Producer dense stage (pooling MLP) ----
        let agg_input = if let Some(stage) = pre_stage {
            apply_dense(&current, &layer_input, stage)?
        } else {
            current.clone()
        };

        // ---- Aggregation over the shard grid, block by block ----
        let aggregated = if let Some(agg) = plan.aggregation {
            // The compiled plan carries only the shard summary; the value
            // walk needs the edges, so shard this (small) graph here with
            // the plan's parameters.
            let grid = if agg.include_self {
                let mut with_self = edges.clone();
                with_self.add_self_loops();
                ShardGrid::build(&with_self, plan.nodes_per_shard)
            } else {
                ShardGrid::build(edges, plan.nodes_per_shard)
            }?;
            debug_assert_eq!(grid.summary(), &*plan.grid);
            let n = edges.num_nodes();
            let dim = agg.dim;
            let mut acc = Matrix::filled(n, dim, agg.aggregator.identity());
            let mut counts = vec![0usize; n];
            for block_idx in 0..plan.num_blocks {
                let lo = block_idx * plan.block_size;
                let hi = (lo + plan.block_size).min(dim);
                // Walk only occupied shards, in the same serpentine order the
                // hardware would: empty shards contribute no edges, so the
                // edge-processing order (and the floating-point result) is
                // unchanged.
                for shard in grid.occupied_traversal(plan.traversal) {
                    for edge in shard.edges() {
                        let (src, dst) = (edge.src as usize, edge.dst as usize);
                        if block_idx == 0 {
                            counts[dst] += 1;
                        }
                        for d in lo..hi {
                            let combined = agg
                                .aggregator
                                .combine(acc.get(dst, d), agg_input.get(src, d));
                            acc.set(dst, d, combined);
                        }
                    }
                }
            }
            let mut out = Matrix::zeros(n, dim);
            for (v, &count) in counts.iter().enumerate().take(n) {
                for d in 0..dim {
                    let value = if count == 0 {
                        0.0
                    } else {
                        agg.aggregator.finalize(acc.get(v, d), count)
                    };
                    out.set(v, d, value);
                }
            }
            out
        } else {
            agg_input.clone()
        };

        // ---- Consumer dense stage with blocked partial-sum accumulation ----
        current = if let Some(stage) = post_stage {
            apply_blocked_dense(&aggregated, &layer_input, stage, plan.block_size)?
        } else {
            aggregated
        };
    }
    Ok(current)
}

/// Returns the dense stages before and after the aggregation stage of a layer.
fn locate_dense_stages(layer: &gnnerator_gnn::GnnLayer) -> (Option<&Stage>, Option<&Stage>) {
    let mut pre = None;
    let mut post = None;
    let mut seen_aggregate = false;
    for stage in layer.stages() {
        match stage {
            Stage::Aggregate { .. } => seen_aggregate = true,
            Stage::Dense { .. } => {
                if seen_aggregate {
                    post = post.or(Some(stage));
                } else {
                    pre = pre.or(Some(stage));
                }
            }
        }
    }
    (pre, post)
}

/// Applies a dense stage in one unblocked GEMM (used for the producer stage,
/// whose output blocks are independent columns anyway).
fn apply_dense(
    current: &Matrix,
    layer_input: &Matrix,
    stage: &Stage,
) -> Result<Matrix, GnneratorError> {
    let Stage::Dense {
        weights,
        activation,
        concat_self,
        ..
    } = stage
    else {
        return Err(GnneratorError::unmappable("expected a dense stage"));
    };
    let input = if *concat_self {
        ops::concat_cols(current, layer_input).map_err(gnnerator_gnn::GnnError::from)?
    } else {
        current.clone()
    };
    let out = ops::matmul(&input, weights).map_err(gnnerator_gnn::GnnError::from)?;
    Ok(activation.apply(&out))
}

/// Applies a dense stage the way the Dense Engine does under feature
/// blocking: the aggregated input is consumed block by block with partial-sum
/// accumulation, the concatenated self feature contributes its own partial
/// product, and the activation runs once at the end.
fn apply_blocked_dense(
    aggregated: &Matrix,
    layer_input: &Matrix,
    stage: &Stage,
    block_size: usize,
) -> Result<Matrix, GnneratorError> {
    let Stage::Dense {
        weights,
        activation,
        concat_self,
        out_dim,
        ..
    } = stage
    else {
        return Err(GnneratorError::unmappable("expected a dense stage"));
    };
    let n = aggregated.rows();
    let agg_dim = aggregated.cols();
    let mut acc = Matrix::zeros(n, *out_dim);

    // Blocked partial products over the aggregated part of the weights.
    let mut lo = 0;
    while lo < agg_dim {
        let hi = (lo + block_size.max(1)).min(agg_dim);
        let input_block = aggregated.slice_cols(lo, hi);
        let weight_block = Matrix::from_fn(hi - lo, *out_dim, |r, c| weights.get(lo + r, c));
        acc = ops::matmul_accumulate(&input_block, &weight_block, acc)
            .map_err(gnnerator_gnn::GnnError::from)?;
        lo = hi;
    }

    // Self-feature contribution (the `h` half of `W · (z̄ ∪ h)`).
    if *concat_self {
        let self_dim = layer_input.cols();
        let self_weights = Matrix::from_fn(self_dim, *out_dim, |r, c| weights.get(agg_dim + r, c));
        acc = ops::matmul_accumulate(layer_input, &self_weights, acc)
            .map_err(gnnerator_gnn::GnnError::from)?;
    }
    Ok(activation.apply(&acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnerator_gnn::{reference, NetworkKind};
    use gnnerator_graph::{generators, CsrGraph};

    fn small_case(dim: usize, seed: u64) -> (EdgeList, NodeFeatures) {
        let edges = generators::rmat(80, 320, seed).unwrap();
        let features = NodeFeatures::from_fn(80, dim, |v, d| {
            ((v * 17 + d * 5 + seed as usize) % 13) as f32 * 0.15 - 0.9
        });
        (edges, features)
    }

    fn compare(kind: NetworkKind, dataflow: DataflowConfig, dim: usize, seed: u64) {
        let (edges, features) = small_case(dim, seed);
        let model = kind.build(dim, 12, 5, 1).unwrap();
        let blocked = execute_blocked(
            &model,
            &edges,
            &features,
            &GnneratorConfig::paper_default(),
            &dataflow,
        )
        .unwrap();
        let expected =
            reference::execute(&model, &CsrGraph::from_edge_list(&edges), &features).unwrap();
        let diff = blocked.max_abs_diff(&expected).unwrap();
        assert!(diff < 1e-3, "{kind} with {dataflow}: max abs diff {diff}");
    }

    #[test]
    fn gcn_blocked_matches_reference() {
        compare(NetworkKind::Gcn, DataflowConfig::blocked(8), 30, 1);
        compare(NetworkKind::Gcn, DataflowConfig::blocked(64), 30, 2);
        compare(NetworkKind::Gcn, DataflowConfig::conventional(), 30, 3);
    }

    #[test]
    fn graphsage_blocked_matches_reference() {
        compare(NetworkKind::Graphsage, DataflowConfig::blocked(7), 25, 4);
        compare(
            NetworkKind::Graphsage,
            DataflowConfig::conventional(),
            25,
            5,
        );
    }

    #[test]
    fn graphsage_pool_blocked_matches_reference() {
        compare(
            NetworkKind::GraphsagePool,
            DataflowConfig::blocked(9),
            20,
            6,
        );
        compare(
            NetworkKind::GraphsagePool,
            DataflowConfig::conventional(),
            20,
            7,
        );
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let (edges, features) = small_case(16, 1);
        let model = NetworkKind::Gcn.build(32, 8, 4, 0).unwrap();
        assert!(execute_blocked(
            &model,
            &edges,
            &features,
            &GnneratorConfig::paper_default(),
            &DataflowConfig::paper_default(),
        )
        .is_err());

        let short_features = NodeFeatures::zeros(10, 16);
        let model16 = NetworkKind::Gcn.build(16, 8, 4, 0).unwrap();
        assert!(execute_blocked(
            &model16,
            &edges,
            &short_features,
            &GnneratorConfig::paper_default(),
            &DataflowConfig::paper_default(),
        )
        .is_err());
    }

    #[test]
    fn block_size_does_not_change_the_result() {
        let (edges, features) = small_case(40, 9);
        let model = NetworkKind::Gcn.build(40, 8, 4, 1).unwrap();
        let reference_out =
            reference::execute(&model, &CsrGraph::from_edge_list(&edges), &features).unwrap();
        for b in [1, 3, 16, 40, 4096] {
            let out = execute_blocked(
                &model,
                &edges,
                &features,
                &GnneratorConfig::paper_default(),
                &DataflowConfig::blocked(b),
            )
            .unwrap();
            assert!(
                out.approx_eq(&reference_out, 1e-3),
                "block size {b} changed the result"
            );
        }
    }
}
