use crate::{Aggregator, GnnError};
use gnnerator_tensor::{Activation, Matrix};
use std::fmt;

/// Which engine acts as the producer in a layer (Section III-C).
///
/// The GNNerator Controller supports both orderings; HyGCN only supports
/// [`StageOrder::GraphFirst`], which is why GraphSAGE-Pool maps poorly onto it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageOrder {
    /// Aggregation runs first and feeds feature extraction (GCN, GraphSAGE).
    GraphFirst,
    /// Feature extraction runs first and feeds aggregation (GraphSAGE-Pool's
    /// pooling MLP is consumed by the max aggregation).
    DenseFirst,
}

impl fmt::Display for StageOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageOrder::GraphFirst => f.write_str("graph-first"),
            StageOrder::DenseFirst => f.write_str("dense-first"),
        }
    }
}

/// One computational stage of a GNN layer.
///
/// A [`GnnLayer`] is an ordered list of stages; the compiler lowers dense
/// stages onto the Dense Engine and aggregate stages onto the Graph Engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// A fully-connected transform applied to every node's feature.
    Dense {
        /// Input feature dimension seen by the weight matrix. When
        /// `concat_self` is true this includes the node's own feature
        /// (`2 * aggregated_dim` for GraphSAGE).
        in_dim: usize,
        /// Output feature dimension.
        out_dim: usize,
        /// Weight matrix of shape `(in_dim, out_dim)`.
        weights: Matrix,
        /// Non-linearity applied by the activation unit.
        activation: Activation,
        /// Whether the stage input is the concatenation of the aggregated
        /// feature and the node's own (pre-aggregation) feature.
        concat_self: bool,
    },
    /// A neighbourhood aggregation applied to every node.
    Aggregate {
        /// Feature dimension being aggregated.
        dim: usize,
        /// Reduction to apply.
        aggregator: Aggregator,
        /// Whether the node's own feature participates in the reduction
        /// (`N(u) ∪ u` in Eq. 1).
        include_self: bool,
    },
}

impl Stage {
    /// Returns the stage's output feature dimension.
    pub fn out_dim(&self) -> usize {
        match self {
            Stage::Dense { out_dim, .. } => *out_dim,
            Stage::Aggregate { dim, .. } => *dim,
        }
    }
}

/// One GNN layer: an ordered sequence of dense and aggregation stages.
///
/// # Examples
///
/// ```
/// use gnnerator_gnn::{GnnLayer, Aggregator, StageOrder};
/// use gnnerator_tensor::Activation;
///
/// # fn main() -> Result<(), gnnerator_gnn::GnnError> {
/// let layer = GnnLayer::gcn(1433, 16, Activation::Relu, 42)?;
/// assert_eq!(layer.in_dim(), 1433);
/// assert_eq!(layer.out_dim(), 16);
/// assert_eq!(layer.stage_order(), StageOrder::GraphFirst);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GnnLayer {
    name: String,
    in_dim: usize,
    out_dim: usize,
    stages: Vec<Stage>,
}

impl GnnLayer {
    /// Creates a layer from an explicit stage list.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidModel`] if the stage list is empty, a
    /// dimension is zero, or consecutive stages have incompatible dimensions.
    pub fn from_stages(
        name: impl Into<String>,
        in_dim: usize,
        stages: Vec<Stage>,
    ) -> Result<Self, GnnError> {
        if stages.is_empty() {
            return Err(GnnError::invalid("layer must contain at least one stage"));
        }
        if in_dim == 0 {
            return Err(GnnError::invalid("layer input dimension must be positive"));
        }
        // Validate stage-to-stage dimension compatibility.
        let mut current = in_dim;
        let mut layer_input = in_dim;
        for (i, stage) in stages.iter().enumerate() {
            match stage {
                Stage::Dense {
                    in_dim: d_in,
                    out_dim,
                    weights,
                    concat_self,
                    ..
                } => {
                    if *out_dim == 0 {
                        return Err(GnnError::invalid(format!("stage {i}: zero output dim")));
                    }
                    let expected = if *concat_self {
                        current + layer_input
                    } else {
                        current
                    };
                    if *d_in != expected {
                        return Err(GnnError::invalid(format!(
                            "stage {i}: dense stage expects input dim {expected}, declared {d_in}"
                        )));
                    }
                    if weights.shape() != (*d_in, *out_dim) {
                        return Err(GnnError::invalid(format!(
                            "stage {i}: weight shape {:?} does not match ({d_in}, {out_dim})",
                            weights.shape()
                        )));
                    }
                    current = *out_dim;
                }
                Stage::Aggregate { dim, .. } => {
                    if *dim != current {
                        return Err(GnnError::invalid(format!(
                            "stage {i}: aggregate stage expects dim {current}, declared {dim}"
                        )));
                    }
                    // Aggregation preserves dimension.
                }
            }
            // After the first stage, the "self feature" available for
            // concatenation is still the layer's input feature.
            layer_input = in_dim;
        }
        let out_dim = current;
        Ok(Self {
            name: name.into(),
            in_dim,
            out_dim,
            stages,
        })
    }

    /// Builds a GCN layer: mean aggregation over `N(u) ∪ u` followed by a
    /// linear transform and activation.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidModel`] for zero dimensions.
    pub fn gcn(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        seed: u64,
    ) -> Result<Self, GnnError> {
        let weights = init_weights(in_dim, out_dim, seed);
        Self::from_stages(
            "gcn",
            in_dim,
            vec![
                Stage::Aggregate {
                    dim: in_dim,
                    aggregator: Aggregator::Mean,
                    include_self: true,
                },
                Stage::Dense {
                    in_dim,
                    out_dim,
                    weights,
                    activation,
                    concat_self: false,
                },
            ],
        )
    }

    /// Builds a GraphSAGE (mean) layer: mean aggregation followed by a linear
    /// transform of the concatenation `(z̄ ∪ h)` (Eq. 1).
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidModel`] for zero dimensions.
    pub fn graphsage(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        seed: u64,
    ) -> Result<Self, GnnError> {
        let weights = init_weights(2 * in_dim, out_dim, seed);
        Self::from_stages(
            "graphsage",
            in_dim,
            vec![
                Stage::Aggregate {
                    dim: in_dim,
                    aggregator: Aggregator::Mean,
                    include_self: true,
                },
                Stage::Dense {
                    in_dim: 2 * in_dim,
                    out_dim,
                    weights,
                    activation,
                    concat_self: true,
                },
            ],
        )
    }

    /// Builds a GraphSAGE-Pool layer: a per-node pooling MLP (`z = σ(W_pool·h)`),
    /// element-wise max aggregation of `z` over `N(u) ∪ u`, then a linear
    /// transform of `(z̄ ∪ h)` (Eq. 2).
    ///
    /// The pooling MLP keeps the feature dimension (`pool_dim == in_dim`), as
    /// in the original GraphSAGE-Pool formulation.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidModel`] for zero dimensions.
    pub fn graphsage_pool(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        seed: u64,
    ) -> Result<Self, GnnError> {
        let pool_dim = in_dim;
        let pool_weights = init_weights(in_dim, pool_dim, seed);
        let weights = init_weights(pool_dim + in_dim, out_dim, seed.wrapping_add(1));
        Self::from_stages(
            "graphsage-pool",
            in_dim,
            vec![
                Stage::Dense {
                    in_dim,
                    out_dim: pool_dim,
                    weights: pool_weights,
                    activation: Activation::Sigmoid,
                    concat_self: false,
                },
                Stage::Aggregate {
                    dim: pool_dim,
                    aggregator: Aggregator::Max,
                    include_self: true,
                },
                Stage::Dense {
                    in_dim: pool_dim + in_dim,
                    out_dim,
                    weights,
                    activation,
                    concat_self: true,
                },
            ],
        )
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The layer's stages in execution order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Whether the Graph Engine or the Dense Engine is the producer for this
    /// layer — determined by which kind of stage comes first.
    pub fn stage_order(&self) -> StageOrder {
        match self.stages.first() {
            Some(Stage::Aggregate { .. }) | None => StageOrder::GraphFirst,
            Some(Stage::Dense { .. }) => StageOrder::DenseFirst,
        }
    }
}

impl fmt::Display for GnnLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} -> {}, {} stages, {}]",
            self.name,
            self.in_dim,
            self.out_dim,
            self.stages.len(),
            self.stage_order()
        )
    }
}

/// Deterministic, seed-based Glorot-style weight initialisation.
///
/// The reproduction does not train networks; weights only need to be
/// deterministic and reasonably scaled so functional cross-checks are stable.
fn init_weights(in_dim: usize, out_dim: usize, seed: u64) -> Matrix {
    let scale = (6.0 / (in_dim + out_dim) as f32).sqrt();
    Matrix::from_fn(in_dim, out_dim, |r, c| {
        let mut x = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((r * out_dim + c + 1) as u64);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let unit = (x % 1_000_000) as f32 / 1_000_000.0;
        (unit * 2.0 - 1.0) * scale
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcn_layer_shape_and_order() {
        let l = GnnLayer::gcn(8, 4, Activation::Relu, 0).unwrap();
        assert_eq!(l.in_dim(), 8);
        assert_eq!(l.out_dim(), 4);
        assert_eq!(l.stage_order(), StageOrder::GraphFirst);
        assert_eq!(l.stages().len(), 2);
        assert!(matches!(l.stages()[0], Stage::Aggregate { .. }));
        assert!(matches!(l.stages()[1], Stage::Dense { .. }));
    }

    #[test]
    fn graphsage_layer_concatenates_self() {
        let l = GnnLayer::graphsage(8, 4, Activation::Relu, 0).unwrap();
        match &l.stages()[1] {
            Stage::Dense {
                in_dim,
                concat_self,
                ..
            } => {
                assert_eq!(*in_dim, 16);
                assert!(concat_self);
            }
            _ => panic!("second stage should be dense"),
        }
        assert_eq!(l.stage_order(), StageOrder::GraphFirst);
    }

    #[test]
    fn graphsage_pool_layer_is_dense_first() {
        let l = GnnLayer::graphsage_pool(8, 4, Activation::Relu, 0).unwrap();
        assert_eq!(l.stage_order(), StageOrder::DenseFirst);
        assert_eq!(l.stages().len(), 3);
        match &l.stages()[1] {
            Stage::Aggregate { aggregator, .. } => assert_eq!(*aggregator, Aggregator::Max),
            _ => panic!("second stage should be aggregation"),
        }
    }

    #[test]
    fn from_stages_rejects_empty_and_zero_dims() {
        assert!(GnnLayer::from_stages("x", 8, vec![]).is_err());
        assert!(GnnLayer::from_stages(
            "x",
            0,
            vec![Stage::Aggregate {
                dim: 0,
                aggregator: Aggregator::Mean,
                include_self: true
            }]
        )
        .is_err());
    }

    #[test]
    fn from_stages_rejects_dimension_mismatch() {
        let bad = GnnLayer::from_stages(
            "bad",
            8,
            vec![
                Stage::Aggregate {
                    dim: 8,
                    aggregator: Aggregator::Mean,
                    include_self: true,
                },
                Stage::Dense {
                    in_dim: 10,
                    out_dim: 4,
                    weights: Matrix::zeros(10, 4),
                    activation: Activation::Relu,
                    concat_self: false,
                },
            ],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn from_stages_rejects_wrong_weight_shape() {
        let bad = GnnLayer::from_stages(
            "bad",
            8,
            vec![Stage::Dense {
                in_dim: 8,
                out_dim: 4,
                weights: Matrix::zeros(8, 5),
                activation: Activation::Relu,
                concat_self: false,
            }],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn weights_are_deterministic_and_bounded() {
        let a = init_weights(16, 8, 7);
        let b = init_weights(16, 8, 7);
        assert_eq!(a, b);
        let c = init_weights(16, 8, 8);
        assert_ne!(a, c);
        let bound = (6.0 / 24.0_f32).sqrt() + 1e-6;
        assert!(a.iter().all(|&v| v.abs() <= bound));
    }

    #[test]
    fn display_mentions_dims() {
        let l = GnnLayer::gcn(8, 4, Activation::Relu, 0).unwrap();
        let s = l.to_string();
        assert!(s.contains("8 -> 4"));
        assert!(s.contains("graph-first"));
    }

    #[test]
    fn stage_out_dim() {
        let d = Stage::Dense {
            in_dim: 4,
            out_dim: 2,
            weights: Matrix::zeros(4, 2),
            activation: Activation::Identity,
            concat_self: false,
        };
        assert_eq!(d.out_dim(), 2);
        let a = Stage::Aggregate {
            dim: 4,
            aggregator: Aggregator::Mean,
            include_self: false,
        };
        assert_eq!(a.out_dim(), 4);
    }
}
