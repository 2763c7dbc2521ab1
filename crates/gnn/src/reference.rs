//! Functional reference executor.
//!
//! Runs a [`GnnModel`] on a graph exactly as the mathematics
//! of Section II-A prescribes, with no notion of hardware. The accelerator's
//! functional simulation mode is cross-checked against this executor in the
//! integration tests, which is what gives us confidence that the timing model
//! is simulating the *right* computation.

use crate::{GnnError, GnnModel, Stage};
use gnnerator_graph::{CsrGraph, GraphError, NodeFeatures};
use gnnerator_tensor::{ops, Matrix};

/// Executes `model` on `graph` with the input feature table `input`,
/// returning the output feature table (one row per node).
///
/// # Errors
///
/// Returns [`GnnError::DimensionMismatch`] if the feature dimension does not
/// match the model's input dimension, [`GnnError::Graph`] if the feature
/// table and graph disagree on the node count, and propagates tensor errors
/// from the underlying matrix operations.
///
/// # Examples
///
/// ```
/// use gnnerator_gnn::{NetworkKind, reference};
/// use gnnerator_graph::{CsrGraph, NodeFeatures};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = CsrGraph::from_pairs(3, &[(0, 1), (1, 2), (2, 0)])?;
/// let features = NodeFeatures::from_fn(3, 4, |v, d| (v + d) as f32);
/// let model = NetworkKind::Graphsage.build(4, 8, 2, 1)?;
/// let out = reference::execute(&model, &graph, &features)?;
/// assert_eq!(out.shape(), (3, 2));
/// # Ok(())
/// # }
/// ```
pub fn execute(
    model: &GnnModel,
    graph: &CsrGraph,
    input: &NodeFeatures,
) -> Result<Matrix, GnnError> {
    if input.num_nodes() != graph.num_nodes() {
        return Err(GraphError::invalid(
            "features",
            format!(
                "feature table has {} rows but the graph has {} nodes",
                input.num_nodes(),
                graph.num_nodes()
            ),
        )
        .into());
    }
    if input.dim() != model.input_dim() {
        return Err(GnnError::DimensionMismatch {
            expected: model.input_dim(),
            actual: input.dim(),
        });
    }
    let mut current = input.as_matrix().clone();
    for layer in model.layers() {
        current = execute_layer(layer, graph, &current)?;
    }
    Ok(current)
}

/// Executes a single layer on the whole graph.
///
/// # Errors
///
/// Propagates tensor shape errors (which indicate a malformed layer).
pub fn execute_layer(
    layer: &crate::GnnLayer,
    graph: &CsrGraph,
    input: &Matrix,
) -> Result<Matrix, GnnError> {
    let layer_input = input.clone();
    let mut current = input.clone();
    for stage in layer.stages() {
        current = execute_stage(stage, graph, &current, &layer_input)?;
    }
    Ok(current)
}

/// Executes a single stage.
///
/// `layer_input` is the feature table the layer started from; it is needed by
/// dense stages with `concat_self` (GraphSAGE's `(z̄ ∪ h)` concatenation).
///
/// # Errors
///
/// Propagates tensor shape errors.
pub fn execute_stage(
    stage: &Stage,
    graph: &CsrGraph,
    current: &Matrix,
    layer_input: &Matrix,
) -> Result<Matrix, GnnError> {
    match stage {
        Stage::Aggregate {
            dim,
            aggregator,
            include_self,
        } => {
            debug_assert_eq!(*dim, current.cols());
            let n = graph.num_nodes();
            let mut out = Matrix::zeros(n, current.cols());
            for v in 0..n {
                let mut indices: Vec<usize> = graph
                    .neighbors(v as u32)
                    .iter()
                    .map(|&u| u as usize)
                    .collect();
                if *include_self {
                    indices.push(v);
                }
                let row = aggregator.aggregate(current, &indices);
                out.row_mut(v).copy_from_slice(row.row(0));
            }
            Ok(out)
        }
        Stage::Dense {
            weights,
            activation,
            concat_self,
            ..
        } => {
            let input = if *concat_self {
                ops::concat_cols(current, layer_input)?
            } else {
                current.clone()
            };
            let out = ops::matmul(&input, weights)?;
            Ok(activation.apply(&out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aggregator, GnnLayer, NetworkKind};
    use gnnerator_tensor::Activation;

    fn path_graph() -> CsrGraph {
        // 0 -> 1 -> 2, plus 2 -> 0 to close the loop.
        CsrGraph::from_pairs(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn execute_checks_input_dimension() {
        let graph = path_graph();
        let model = NetworkKind::Gcn.build(8, 4, 2, 1).unwrap();
        let wrong = NodeFeatures::zeros(3, 5);
        assert!(matches!(
            execute(&model, &graph, &wrong),
            Err(GnnError::DimensionMismatch {
                expected: 8,
                actual: 5
            })
        ));
    }

    #[test]
    fn execute_checks_node_count() {
        let graph = path_graph();
        let model = NetworkKind::Gcn.build(8, 4, 2, 1).unwrap();
        let wrong = NodeFeatures::zeros(4, 8);
        assert!(matches!(
            execute(&model, &graph, &wrong),
            Err(GnnError::Graph(_))
        ));
    }

    #[test]
    fn gcn_mean_aggregation_by_hand() {
        // Single GCN layer with identity weights and no activation lets us
        // check the aggregation arithmetic by hand.
        let graph = path_graph();
        let layer = GnnLayer::from_stages(
            "hand",
            2,
            vec![
                Stage::Aggregate {
                    dim: 2,
                    aggregator: Aggregator::Mean,
                    include_self: true,
                },
                Stage::Dense {
                    in_dim: 2,
                    out_dim: 2,
                    weights: Matrix::identity(2),
                    activation: Activation::Identity,
                    concat_self: false,
                },
            ],
        )
        .unwrap();
        let model = GnnModel::new("hand", vec![layer]).unwrap();
        let feats = NodeFeatures::from_fn(3, 2, |v, d| (v * 2 + d) as f32);
        let out = execute(&model, &graph, &feats).unwrap();
        // Node 1 aggregates {0, 1}: mean of [0,1] and [2,3] = [1, 2].
        assert_eq!(out.row(1), &[1.0, 2.0]);
        // Node 0 aggregates {2, 0}: mean of [4,5] and [0,1] = [2, 3].
        assert_eq!(out.row(0), &[2.0, 3.0]);
    }

    #[test]
    fn max_aggregation_by_hand() {
        let graph = CsrGraph::from_pairs(3, &[(0, 2), (1, 2)]).unwrap();
        let stage = Stage::Aggregate {
            dim: 1,
            aggregator: Aggregator::Max,
            include_self: false,
        };
        let feats = Matrix::from_rows(&[vec![5.0], vec![9.0], vec![1.0]]).unwrap();
        let out = execute_stage(&stage, &graph, &feats, &feats).unwrap();
        assert_eq!(out.get(2, 0), 9.0);
        // Nodes 0 and 1 have no in-neighbours: empty aggregation -> 0.
        assert_eq!(out.get(0, 0), 0.0);
    }

    #[test]
    fn concat_self_doubles_dense_input() {
        let graph = path_graph();
        let feats = NodeFeatures::from_fn(3, 2, |v, _| v as f32);
        let model = NetworkKind::Graphsage.build(2, 3, 2, 0).unwrap();
        let out = execute(&model, &graph, &feats).unwrap();
        assert_eq!(out.shape(), (3, 2));
    }

    #[test]
    fn isolated_node_does_not_poison_the_output() {
        let graph = CsrGraph::from_pairs(4, &[(0, 1), (1, 0)]).unwrap();
        let feats = NodeFeatures::from_fn(4, 4, |v, d| (v + d) as f32);
        for kind in NetworkKind::ALL {
            let model = kind.build(4, 8, 2, 1).unwrap();
            let out = execute(&model, &graph, &feats).unwrap();
            assert!(
                out.iter().all(|v| v.is_finite()),
                "{kind} produced non-finite output"
            );
        }
    }

    #[test]
    fn relu_layers_produce_nonnegative_hidden_features() {
        let graph = path_graph();
        let feats = NodeFeatures::from_fn(3, 4, |v, d| (v as f32 - 1.0) * (d as f32 + 1.0));
        let model = NetworkKind::Gcn.build(4, 8, 8, 0).unwrap();
        // Single layer model with ReLU on all but the last layer: here the
        // only layer is the last, so outputs may be negative; execute layer 0
        // of a 2-layer model instead.
        let model2 = NetworkKind::Gcn.build(4, 8, 2, 1).unwrap();
        let hidden = execute_layer(&model2.layers()[0], &graph, feats.as_matrix()).unwrap();
        assert!(hidden.iter().all(|&v| v >= 0.0));
        // Sanity: full model still runs.
        let _ = execute(&model, &graph, &feats).unwrap();
    }

    #[test]
    fn all_paper_networks_execute_on_a_small_graph() {
        let graph =
            CsrGraph::from_pairs(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 0)])
                .unwrap();
        let feats = NodeFeatures::from_fn(6, 10, |v, d| ((v * d) % 5) as f32 * 0.1);
        for kind in NetworkKind::ALL {
            let model = kind.build_paper_config(10, 3).unwrap();
            let out = execute(&model, &graph, &feats).unwrap();
            assert_eq!(out.shape(), (6, 3), "{kind}");
            assert!(out.iter().all(|v| v.is_finite()));
        }
    }
}
