use crate::{CsrGraph, GraphError};
use gnnerator_tensor::Matrix;

/// Dense per-node feature table.
///
/// Row `v` holds the feature vector of node `v`. The paper's datasets attach
/// high-dimensional features to every node (up to 3703 dimensions for
/// Citeseer), which is what makes the aggregation stage memory-bound and the
/// feature-blocking dataflow worthwhile.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::NodeFeatures;
///
/// let feats = NodeFeatures::zeros(10, 16);
/// assert_eq!(feats.num_nodes(), 10);
/// assert_eq!(feats.dim(), 16);
/// assert_eq!(feats.size_bytes(), 10 * 16 * 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFeatures {
    matrix: Matrix,
}

impl NodeFeatures {
    /// Creates an all-zero feature table for `num_nodes` nodes of dimension `dim`.
    pub fn zeros(num_nodes: usize, dim: usize) -> Self {
        Self {
            matrix: Matrix::zeros(num_nodes, dim),
        }
    }

    /// Wraps an existing matrix as a feature table.
    pub fn from_matrix(matrix: Matrix) -> Self {
        Self { matrix }
    }

    /// Creates a feature table where entry `(v, d)` is `f(v, d)`.
    pub fn from_fn<F>(num_nodes: usize, dim: usize, f: F) -> Self
    where
        F: FnMut(usize, usize) -> f32,
    {
        Self {
            matrix: Matrix::from_fn(num_nodes, dim, f),
        }
    }

    /// Number of nodes (rows).
    pub fn num_nodes(&self) -> usize {
        self.matrix.rows()
    }

    /// Feature dimension (columns).
    pub fn dim(&self) -> usize {
        self.matrix.cols()
    }

    /// Total storage footprint in bytes, assuming 4-byte (f32/fp32) features.
    ///
    /// This is the quantity Table II reports as "Size" and the quantity the
    /// DRAM traffic model charges when streaming features on and off chip.
    pub fn size_bytes(&self) -> usize {
        self.num_nodes() * self.dim() * std::mem::size_of::<f32>()
    }

    /// Storage footprint of a single node's feature vector in bytes.
    pub fn bytes_per_node(&self) -> usize {
        self.dim() * std::mem::size_of::<f32>()
    }

    /// The feature vector of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn feature(&self, v: usize) -> &[f32] {
        self.matrix.row(v)
    }

    /// Borrows the underlying matrix.
    pub fn as_matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Consumes the table and returns the underlying matrix.
    pub fn into_matrix(self) -> Matrix {
        self.matrix
    }

    /// Checks that this table is compatible with `graph` (same node count).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::FeatureShapeMismatch`] if the row count differs
    /// from the graph's node count.
    pub fn check_compatible(&self, graph: &CsrGraph) -> Result<(), GraphError> {
        if self.num_nodes() != graph.num_nodes() {
            return Err(GraphError::FeatureShapeMismatch {
                graph_nodes: graph.num_nodes(),
                feature_rows: self.num_nodes(),
            });
        }
        Ok(())
    }
}

impl From<Matrix> for NodeFeatures {
    fn from(matrix: Matrix) -> Self {
        Self { matrix }
    }
}

impl AsRef<Matrix> for NodeFeatures {
    fn as_ref(&self) -> &Matrix {
        &self.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrGraph;

    #[test]
    fn zeros_shape_and_size() {
        let f = NodeFeatures::zeros(100, 32);
        assert_eq!(f.num_nodes(), 100);
        assert_eq!(f.dim(), 32);
        assert_eq!(f.size_bytes(), 100 * 32 * 4);
        assert_eq!(f.bytes_per_node(), 128);
    }

    #[test]
    fn from_fn_populates_rows() {
        let f = NodeFeatures::from_fn(4, 2, |v, d| (v * 10 + d) as f32);
        assert_eq!(f.feature(2), &[20.0, 21.0]);
    }

    #[test]
    fn compatible_with_matching_graph() {
        let g = CsrGraph::from_pairs(3, &[(0, 1)]).unwrap();
        let good = NodeFeatures::zeros(3, 8);
        let bad = NodeFeatures::zeros(4, 8);
        assert!(good.check_compatible(&g).is_ok());
        assert!(bad.check_compatible(&g).is_err());
    }

    #[test]
    fn conversions_roundtrip() {
        let m = Matrix::filled(2, 3, 1.0);
        let f = NodeFeatures::from(m.clone());
        assert_eq!(f.as_matrix(), &m);
        assert_eq!(f.as_ref(), &m);
        assert_eq!(f.into_matrix(), m);
    }

    #[test]
    fn table_ii_sizes_are_of_the_right_order() {
        // Table II: Cora 2708 x 1433 ~ 15.6 MB (the paper counts fp32 features).
        let cora = NodeFeatures::zeros(2708, 1433);
        let mb = cora.size_bytes() as f64 / 1e6;
        assert!(mb > 14.0 && mb < 17.0, "Cora feature table is {mb:.1} MB");
    }
}
