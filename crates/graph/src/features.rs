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

    /// Borrows the underlying matrix.
    pub fn as_matrix(&self) -> &Matrix {
        &self.matrix
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

    #[test]
    fn zeros_shape_and_size() {
        let f = NodeFeatures::zeros(100, 32);
        assert_eq!(f.num_nodes(), 100);
        assert_eq!(f.dim(), 32);
    }

    #[test]
    fn from_fn_populates_rows() {
        let f = NodeFeatures::from_fn(4, 2, |v, d| (v * 10 + d) as f32);
        assert_eq!(f.as_matrix().row(2), &[20.0, 21.0]);
    }

    #[test]
    fn conversions_roundtrip() {
        let m = Matrix::filled(2, 3, 1.0);
        let f = NodeFeatures::from(m.clone());
        assert_eq!(f.as_matrix(), &m);
        assert_eq!(f.as_ref(), &m);
    }
}
