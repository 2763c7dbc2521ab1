use gnnerator_tensor::{ops, Matrix};
use std::fmt;

/// Neighbourhood reduction applied during the aggregation stage.
///
/// The Graph Engine's Reduce Unit performs this operation element-wise across
/// the feature dimensions of a node's neighbourhood; all three reductions are
/// associative and commutative, which is what lets the accelerator process a
/// shard's edges in any order and lets feature-dimension blocking split the
/// reduction across dimension blocks.
///
/// # Examples
///
/// ```
/// use gnnerator_gnn::Aggregator;
/// use gnnerator_tensor::Matrix;
///
/// let feats = Matrix::from_rows(&[vec![1.0, 4.0], vec![3.0, 2.0]]).unwrap();
/// let mean = Aggregator::Mean.aggregate(&feats, &[0, 1]);
/// assert_eq!(mean.as_slice(), &[2.0, 3.0]);
/// let max = Aggregator::Max.aggregate(&feats, &[0, 1]);
/// assert_eq!(max.as_slice(), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Aggregator {
    /// Arithmetic mean of the neighbourhood (GCN, GraphSAGE-mean).
    #[default]
    Mean,
    /// Element-wise maximum (GraphSAGE-Pool).
    Max,
    /// Element-wise sum.
    Sum,
}

impl Aggregator {
    /// Aggregates the selected rows of `features` into a `1 x dim` row.
    ///
    /// An empty selection yields a zero row (isolated-node convention).
    pub fn aggregate(self, features: &Matrix, indices: &[usize]) -> Matrix {
        match self {
            Aggregator::Mean => ops::mean_rows(features, indices),
            Aggregator::Max => ops::max_rows(features, indices),
            Aggregator::Sum => ops::sum_rows(features, indices),
        }
    }

    /// Streaming combine step used by the accelerator's Reduce Unit: folds
    /// one new value into the running accumulator.
    pub fn combine(self, accumulator: f32, value: f32) -> f32 {
        match self {
            Aggregator::Mean | Aggregator::Sum => accumulator + value,
            Aggregator::Max => accumulator.max(value),
        }
    }

    /// Finalisation step applied after all `count` neighbours have been
    /// combined (divides by the count for the mean aggregator).
    pub fn finalize(self, accumulator: f32, count: usize) -> f32 {
        match self {
            Aggregator::Mean => {
                if count == 0 {
                    0.0
                } else {
                    accumulator / count as f32
                }
            }
            Aggregator::Max | Aggregator::Sum => accumulator,
        }
    }

    /// Identity element for the streaming combine.
    pub fn identity(self) -> f32 {
        match self {
            Aggregator::Mean | Aggregator::Sum => 0.0,
            Aggregator::Max => f32::NEG_INFINITY,
        }
    }

    /// Number of arithmetic operations per edge per feature dimension.
    ///
    /// Every aggregator performs one combine op per edge per dimension; the
    /// mean adds a per-node divide which is negligible and folded into the
    /// same count. Used by the workload FLOP accounting.
    pub fn ops_per_edge_per_dim(self) -> usize {
        1
    }
}

impl fmt::Display for Aggregator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Aggregator::Mean => "mean",
            Aggregator::Max => "max",
            Aggregator::Sum => "sum",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feats() -> Matrix {
        Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, 0.0], vec![-1.0, 4.0]]).unwrap()
    }

    #[test]
    fn mean_aggregation() {
        let m = Aggregator::Mean.aggregate(&feats(), &[0, 1, 2]);
        assert_eq!(m.as_slice(), &[1.0, 2.0 / 3.0]);
    }

    #[test]
    fn max_aggregation() {
        let m = Aggregator::Max.aggregate(&feats(), &[0, 1, 2]);
        assert_eq!(m.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn sum_aggregation() {
        let m = Aggregator::Sum.aggregate(&feats(), &[0, 2]);
        assert_eq!(m.as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn empty_neighbourhood_gives_zero() {
        for agg in [Aggregator::Mean, Aggregator::Max, Aggregator::Sum] {
            let m = agg.aggregate(&feats(), &[]);
            assert!(m.iter().all(|&v| v == 0.0), "{agg} of empty set");
        }
    }

    #[test]
    fn streaming_matches_batch_mean() {
        let f = feats();
        let idx = [0usize, 1, 2];
        for d in 0..2 {
            let mut acc = Aggregator::Mean.identity();
            for &i in &idx {
                acc = Aggregator::Mean.combine(acc, f.get(i, d));
            }
            let streamed = Aggregator::Mean.finalize(acc, idx.len());
            let batch = Aggregator::Mean.aggregate(&f, &idx).get(0, d);
            assert!((streamed - batch).abs() < 1e-6);
        }
    }

    #[test]
    fn streaming_matches_batch_max() {
        let f = feats();
        let idx = [0usize, 1, 2];
        for d in 0..2 {
            let mut acc = Aggregator::Max.identity();
            for &i in &idx {
                acc = Aggregator::Max.combine(acc, f.get(i, d));
            }
            let streamed = Aggregator::Max.finalize(acc, idx.len());
            let batch = Aggregator::Max.aggregate(&f, &idx).get(0, d);
            assert_eq!(streamed, batch);
        }
    }

    #[test]
    fn finalize_of_empty_mean_is_zero() {
        assert_eq!(Aggregator::Mean.finalize(0.0, 0), 0.0);
    }

    #[test]
    fn display_and_default() {
        assert_eq!(Aggregator::Mean.to_string(), "mean");
        assert_eq!(Aggregator::Max.to_string(), "max");
        assert_eq!(Aggregator::Sum.to_string(), "sum");
        assert_eq!(Aggregator::default(), Aggregator::Mean);
        assert_eq!(Aggregator::Mean.ops_per_edge_per_dim(), 1);
    }
}
