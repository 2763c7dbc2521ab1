//! Matrix operations used by the GNN reference executor and the functional
//! accelerator model.
//!
//! All operations validate operand shapes and return [`TensorError`] on
//! mismatch; none of them panic on well-formed matrices.

use crate::{Matrix, TensorError};

/// Computes the matrix product `a * b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
///
/// # Examples
///
/// ```
/// use gnnerator_tensor::{Matrix, ops};
/// # fn main() -> Result<(), gnnerator_tensor::TensorError> {
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::from_rows(&[vec![5.0], vec![6.0]])?;
/// let c = ops::matmul(&a, &b)?;
/// assert_eq!(c.as_slice(), &[17.0, 39.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for (k, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            let out_row = out.row_mut(i);
            for (j, &b_kj) in b_row.iter().enumerate() {
                out_row[j] += a_ik * b_kj;
            }
        }
    }
    Ok(out)
}

/// Computes `a * b + c`, reusing `c` as the accumulator (partial sums).
///
/// This mirrors the Dense Engine's partial-sum reload path: when the
/// feature-blocking dataflow splits a feature extraction across blocks, the
/// partial output of earlier blocks is reloaded and accumulated into.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes are not conformant.
///
/// # Examples
///
/// ```
/// use gnnerator_tensor::{Matrix, ops};
/// # fn main() -> Result<(), gnnerator_tensor::TensorError> {
/// let a = Matrix::identity(2);
/// let b = Matrix::filled(2, 2, 1.0);
/// let c = Matrix::filled(2, 2, 10.0);
/// let out = ops::matmul_accumulate(&a, &b, c)?;
/// assert_eq!(out.get(0, 0), 11.0);
/// # Ok(())
/// # }
/// ```
pub fn matmul_accumulate(a: &Matrix, b: &Matrix, c: Matrix) -> Result<Matrix, TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_accumulate",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if c.shape() != (a.rows(), b.cols()) {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_accumulate",
            lhs: (a.rows(), b.cols()),
            rhs: c.shape(),
        });
    }
    let partial = matmul(a, b)?;
    add(&partial, &c)
}

/// Element-wise sum of two matrices.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes disagree.
pub fn add(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "add",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = a.clone();
    for r in 0..out.rows() {
        let b_row = b.row(r);
        for (v, &bv) in out.row_mut(r).iter_mut().zip(b_row) {
            *v += bv;
        }
    }
    Ok(out)
}

/// Multiplies every element of `a` by `factor`.
pub fn scale(a: &Matrix, factor: f32) -> Matrix {
    let mut out = a.clone();
    for r in 0..out.rows() {
        for v in out.row_mut(r) {
            *v *= factor;
        }
    }
    out
}

/// Horizontally concatenates two matrices (`[a | b]`).
///
/// GraphSAGE concatenates the aggregated neighbourhood feature with the
/// node's own feature before the linear layer (`W · (z̄ ∪ h)` in Eq. 1).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the row counts disagree.
///
/// # Examples
///
/// ```
/// use gnnerator_tensor::{Matrix, ops};
/// # fn main() -> Result<(), gnnerator_tensor::TensorError> {
/// let a = Matrix::filled(2, 1, 1.0);
/// let b = Matrix::filled(2, 2, 2.0);
/// let c = ops::concat_cols(&a, &b)?;
/// assert_eq!(c.shape(), (2, 3));
/// assert_eq!(c.get(0, 0), 1.0);
/// assert_eq!(c.get(0, 2), 2.0);
/// # Ok(())
/// # }
/// ```
pub fn concat_cols(a: &Matrix, b: &Matrix) -> Result<Matrix, TensorError> {
    if a.rows() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "concat_cols",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.rows(), a.cols() + b.cols());
    for r in 0..a.rows() {
        out.row_mut(r)[..a.cols()].copy_from_slice(a.row(r));
        out.row_mut(r)[a.cols()..].copy_from_slice(b.row(r));
    }
    Ok(out)
}

/// Mean of the selected rows of `a`, returned as a `1 x cols` matrix.
///
/// This is the mean aggregator of GraphSAGE / GCN applied to one node's
/// neighbourhood. An empty selection returns a zero row, matching the
/// convention that isolated nodes aggregate to zero.
pub fn mean_rows(a: &Matrix, indices: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(1, a.cols());
    if indices.is_empty() {
        return out;
    }
    for &idx in indices {
        for (o, &v) in out.row_mut(0).iter_mut().zip(a.row(idx)) {
            *o += v;
        }
    }
    let inv = 1.0 / indices.len() as f32;
    for o in out.row_mut(0) {
        *o *= inv;
    }
    out
}

/// Element-wise maximum over the selected rows of `a`, as a `1 x cols` matrix.
///
/// An empty selection returns a zero row.
pub fn max_rows(a: &Matrix, indices: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(1, a.cols());
    if indices.is_empty() {
        return out;
    }
    out.row_mut(0).copy_from_slice(a.row(indices[0]));
    for &idx in &indices[1..] {
        for (o, &v) in out.row_mut(0).iter_mut().zip(a.row(idx)) {
            *o = o.max(v);
        }
    }
    out
}

/// Sum of the selected rows of `a`, returned as a `1 x cols` matrix.
pub fn sum_rows(a: &Matrix, indices: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(1, a.cols());
    for &idx in indices {
        for (o, &v) in out.row_mut(0).iter_mut().zip(a.row(idx)) {
            *o += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Matrix, Matrix) {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        (a, b)
    }

    #[test]
    fn matmul_2x2() {
        let (a, b) = small();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let (a, _) = small();
        let id = Matrix::identity(2);
        assert_eq!(matmul(&a, &id).unwrap(), a);
        assert_eq!(matmul(&id, &a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dim() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(4, 2, |r, c| (r * c) as f32);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (3, 2));
        // Manual check of entry (1, 1): sum_k a[1][k] * b[k][1]
        let expected: f32 = (0..4).map(|k| (1 + k) as f32 * k as f32).sum();
        assert_eq!(c.get(1, 1), expected);
    }

    #[test]
    fn matmul_accumulate_adds_partials() {
        let (a, b) = small();
        let c = Matrix::filled(2, 2, 1.0);
        let out = matmul_accumulate(&a, &b, c).unwrap();
        assert_eq!(out.as_slice(), &[20.0, 23.0, 44.0, 51.0]);
    }

    #[test]
    fn matmul_accumulate_rejects_bad_accumulator_shape() {
        let (a, b) = small();
        let c = Matrix::zeros(3, 2);
        assert!(matmul_accumulate(&a, &b, c).is_err());
    }

    #[test]
    fn blocked_matmul_equals_full_matmul() {
        // Splitting the inner dimension into blocks and accumulating partial
        // sums must give the same answer as one full product. This is the
        // numerical core of the feature-blocking dataflow.
        let a = Matrix::from_fn(5, 8, |r, c| ((r * 13 + c * 7) % 5) as f32 - 2.0);
        let b = Matrix::from_fn(8, 3, |r, c| ((r * 3 + c) % 7) as f32 - 3.0);
        let full = matmul(&a, &b).unwrap();

        let mut acc = Matrix::zeros(5, 3);
        for block_start in (0..8).step_by(2) {
            let a_block = a.slice_cols(block_start, block_start + 2);
            let b_block = Matrix::from_fn(2, 3, |r, c| b.get(block_start + r, c));
            acc = matmul_accumulate(&a_block, &b_block, acc).unwrap();
        }
        assert!(full.approx_eq(&acc, 1e-4));
    }

    #[test]
    fn add_and_scale() {
        let (a, b) = small();
        let s = add(&a, &b).unwrap();
        assert_eq!(s.as_slice(), &[6.0, 8.0, 10.0, 12.0]);
        let d = scale(&a, 2.0);
        assert_eq!(d.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn concat_cols_shapes() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 3, 2.0);
        let c = concat_cols(&a, &b).unwrap();
        assert_eq!(c.shape(), (2, 5));
        assert_eq!(c.get(1, 1), 1.0);
        assert_eq!(c.get(1, 4), 2.0);
    }

    #[test]
    fn concat_cols_rejects_row_mismatch() {
        assert!(concat_cols(&Matrix::zeros(2, 2), &Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn mean_rows_of_neighbourhood() {
        let feats = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let mean = mean_rows(&feats, &[0, 2]);
        assert_eq!(mean.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn mean_rows_empty_selection_is_zero() {
        let feats = Matrix::filled(3, 2, 1.0);
        assert_eq!(mean_rows(&feats, &[]).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn max_rows_of_neighbourhood() {
        let feats = Matrix::from_rows(&[vec![1.0, 6.0], vec![3.0, 4.0], vec![5.0, 2.0]]).unwrap();
        let max = max_rows(&feats, &[0, 1, 2]);
        assert_eq!(max.as_slice(), &[5.0, 6.0]);
    }

    #[test]
    fn max_rows_empty_selection_is_zero() {
        let feats = Matrix::filled(3, 2, -1.0);
        assert_eq!(max_rows(&feats, &[]).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn sum_rows_accumulates() {
        let feats = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        assert_eq!(sum_rows(&feats, &[0, 1, 2]).get(0, 0), 6.0);
    }
}
