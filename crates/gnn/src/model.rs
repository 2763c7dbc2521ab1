use crate::{GnnError, GnnLayer};
use gnnerator_tensor::Activation;
use std::fmt;

/// The three network architectures evaluated in the paper (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// Graph Convolutional Network (Kipf & Welling).
    Gcn,
    /// GraphSAGE with the mean aggregator.
    Graphsage,
    /// GraphSAGE with the trainable max-pooling aggregator.
    GraphsagePool,
}

impl NetworkKind {
    /// All three networks in the order Table III lists them.
    pub const ALL: [NetworkKind; 3] = [
        NetworkKind::Gcn,
        NetworkKind::Graphsage,
        NetworkKind::GraphsagePool,
    ];

    /// The hidden dimension used in the paper's main experiments (Table III).
    pub const PAPER_HIDDEN_DIM: usize = 16;

    /// Short name as used in the paper's figure labels
    /// (`gcn`, `gsage`, `gsage-max`).
    pub fn short_name(self) -> &'static str {
        match self {
            NetworkKind::Gcn => "gcn",
            NetworkKind::Graphsage => "gsage",
            NetworkKind::GraphsagePool => "gsage-max",
        }
    }

    /// Builds a model of this kind.
    ///
    /// The model has `hidden_layers` hidden layers of width `hidden_dim`
    /// (Table III uses one hidden layer of width 16), preceded by an input
    /// layer mapping `input_dim -> hidden_dim` and followed by an output
    /// layer mapping `hidden_dim -> output_dim`.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidModel`] if any dimension is zero.
    pub fn build(
        self,
        input_dim: usize,
        hidden_dim: usize,
        output_dim: usize,
        hidden_layers: usize,
    ) -> Result<GnnModel, GnnError> {
        let mut dims = Vec::with_capacity(hidden_layers + 2);
        dims.push(input_dim);
        for _ in 0..hidden_layers {
            dims.push(hidden_dim);
        }
        dims.push(output_dim);

        let mut layers = Vec::new();
        for (i, window) in dims.windows(2).enumerate() {
            let (d_in, d_out) = (window[0], window[1]);
            let is_last = i + 2 == dims.len();
            let activation = if is_last {
                Activation::Identity
            } else {
                Activation::Relu
            };
            let seed = 0xC0FFEE ^ (i as u64);
            let layer = match self {
                NetworkKind::Gcn => GnnLayer::gcn(d_in, d_out, activation, seed)?,
                NetworkKind::Graphsage => GnnLayer::graphsage(d_in, d_out, activation, seed)?,
                NetworkKind::GraphsagePool => {
                    GnnLayer::graphsage_pool(d_in, d_out, activation, seed)?
                }
            };
            layers.push(layer);
        }
        GnnModel::new(format!("{self}"), layers)
    }

    /// Builds the exact configuration used in the paper's main evaluation:
    /// one hidden layer of dimension 16 (Table III), with the dataset's
    /// class count as the output dimension.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidModel`] if `input_dim` or `num_classes` is zero.
    pub fn build_paper_config(
        self,
        input_dim: usize,
        num_classes: usize,
    ) -> Result<GnnModel, GnnError> {
        self.build(input_dim, Self::PAPER_HIDDEN_DIM, num_classes, 1)
    }
}

impl fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            NetworkKind::Gcn => "gcn",
            NetworkKind::Graphsage => "graphsage",
            NetworkKind::GraphsagePool => "graphsage-pool",
        };
        f.write_str(name)
    }
}

/// A full GNN: an ordered stack of [`GnnLayer`]s.
///
/// # Examples
///
/// ```
/// use gnnerator_gnn::NetworkKind;
///
/// # fn main() -> Result<(), gnnerator_gnn::GnnError> {
/// let model = NetworkKind::Graphsage.build_paper_config(1433, 7)?;
/// assert_eq!(model.num_layers(), 2);
/// assert_eq!(model.input_dim(), 1433);
/// assert_eq!(model.output_dim(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GnnModel {
    name: String,
    layers: Vec<GnnLayer>,
}

impl GnnModel {
    /// Creates a model from a layer stack.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidModel`] if the stack is empty or consecutive
    /// layers have mismatched dimensions.
    pub fn new(name: impl Into<String>, layers: Vec<GnnLayer>) -> Result<Self, GnnError> {
        if layers.is_empty() {
            return Err(GnnError::invalid("model must contain at least one layer"));
        }
        for (i, pair) in layers.windows(2).enumerate() {
            if pair[0].out_dim() != pair[1].in_dim() {
                return Err(GnnError::invalid(format!(
                    "layer {i} produces dim {} but layer {} expects dim {}",
                    pair[0].out_dim(),
                    i + 1,
                    pair[1].in_dim()
                )));
            }
        }
        Ok(Self {
            name: name.into(),
            layers,
        })
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[GnnLayer] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input feature dimension of the first layer.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output feature dimension of the last layer.
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Largest feature dimension that flows through any aggregation stage —
    /// the quantity that determines how much on-chip feature storage the
    /// Graph Engine needs per node under the conventional dataflow.
    pub fn max_aggregated_dim(&self) -> usize {
        self.layers
            .iter()
            .map(GnnLayer::aggregated_dim)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for GnnModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, {} -> {})",
            self.name,
            self.num_layers(),
            self.input_dim(),
            self.output_dim()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StageOrder;

    #[test]
    fn paper_config_has_one_hidden_layer() {
        for kind in NetworkKind::ALL {
            let m = kind.build_paper_config(1433, 7).unwrap();
            assert_eq!(m.num_layers(), 2, "{kind}");
            assert_eq!(m.input_dim(), 1433);
            assert_eq!(m.layers()[0].out_dim(), 16);
            assert_eq!(m.output_dim(), 7);
        }
    }

    #[test]
    fn deeper_models_chain_dimensions() {
        let m = NetworkKind::Gcn.build(100, 32, 10, 3).unwrap();
        assert_eq!(m.num_layers(), 4);
        assert_eq!(m.layers()[0].in_dim(), 100);
        assert_eq!(m.layers()[1].in_dim(), 32);
        assert_eq!(m.layers()[3].out_dim(), 10);
    }

    #[test]
    fn build_rejects_zero_dims() {
        assert!(NetworkKind::Gcn.build(0, 16, 4, 1).is_err());
        assert!(NetworkKind::Gcn.build(16, 0, 4, 1).is_err());
        assert!(NetworkKind::Gcn.build(16, 16, 0, 1).is_err());
    }

    #[test]
    fn stage_orders_match_the_paper() {
        let gcn = NetworkKind::Gcn.build_paper_config(64, 4).unwrap();
        let pool = NetworkKind::GraphsagePool
            .build_paper_config(64, 4)
            .unwrap();
        assert!(gcn
            .layers()
            .iter()
            .all(|l| l.stage_order() == StageOrder::GraphFirst));
        assert!(pool
            .layers()
            .iter()
            .all(|l| l.stage_order() == StageOrder::DenseFirst));
    }

    #[test]
    fn new_rejects_empty_and_mismatched_stacks() {
        assert!(GnnModel::new("empty", vec![]).is_err());
        let l1 = GnnLayer::gcn(8, 4, Activation::Relu, 0).unwrap();
        let l2 = GnnLayer::gcn(5, 2, Activation::Relu, 0).unwrap();
        assert!(GnnModel::new("bad", vec![l1, l2]).is_err());
    }

    #[test]
    fn max_aggregated_dim_is_input_dim_for_paper_models() {
        // With a single 16-wide hidden layer the widest aggregation is over
        // the raw input features.
        let m = NetworkKind::Gcn.build_paper_config(3703, 6).unwrap();
        assert_eq!(m.max_aggregated_dim(), 3703);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(NetworkKind::Gcn.short_name(), "gcn");
        assert_eq!(NetworkKind::GraphsagePool.short_name(), "gsage-max");
        assert_eq!(NetworkKind::Graphsage.to_string(), "graphsage");
        let m = NetworkKind::Gcn.build_paper_config(8, 2).unwrap();
        assert!(m.to_string().contains("gcn"));
        assert_eq!(m.name(), "gcn");
    }

    #[test]
    fn paper_hidden_dim_constant() {
        assert_eq!(NetworkKind::PAPER_HIDDEN_DIM, 16);
    }
}
