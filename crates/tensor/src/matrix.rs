use crate::TensorError;
use std::fmt;

/// A dense, row-major `f32` matrix.
///
/// This is the only tensor type needed by the reproduction: node feature
/// tables are `(num_nodes, feature_dim)` matrices and layer weights are
/// `(in_dim, out_dim)` matrices. The type is deliberately simple — no views,
/// no strides — because the simulator only needs functional correctness for
/// cross-checking, not numerical performance.
///
/// # Examples
///
/// ```
/// use gnnerator_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m.get(1, 2), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnerator_tensor::Matrix;
    /// let z = Matrix::zeros(3, 4);
    /// assert_eq!(z.shape(), (3, 4));
    /// assert!(z.iter().all(|&v| v == 0.0));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnerator_tensor::Matrix;
    /// let m = Matrix::filled(2, 2, 1.5);
    /// assert_eq!(m.get(1, 1), 1.5);
    /// ```
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnerator_tensor::Matrix;
    /// let id = Matrix::identity(3);
    /// assert_eq!(id.get(2, 2), 1.0);
    /// assert_eq!(id.get(0, 2), 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix whose entry `(r, c)` is `f(r, c)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnerator_tensor::Matrix;
    /// let m = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
    /// assert_eq!(m, Matrix::identity(2));
    /// ```
    // Inlined so the loop is compiled together with the caller's closure:
    // left out of line, the closure reloads its captures on every element,
    // which made the weight fill of `NetworkKind::build` about twice as slow.
    #[inline]
    pub fn from_fn<F>(rows: usize, cols: usize, mut f: F) -> Self
    where
        F: FnMut(usize, usize) -> f32,
    {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidBufferLength`] if `data.len()` is not
    /// `rows * cols`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnerator_tensor::Matrix;
    /// # fn main() -> Result<(), gnnerator_tensor::TensorError> {
    /// let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
    /// assert_eq!(m.get(1, 0), 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidBufferLength {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RaggedRows`] if the rows do not all have the
    /// same length, and [`TensorError::EmptyInput`] if `rows` is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnerator_tensor::Matrix;
    /// # fn main() -> Result<(), gnnerator_tensor::TensorError> {
    /// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
    /// assert_eq!(m.shape(), (2, 2));
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, TensorError> {
        let first = rows
            .first()
            .ok_or(TensorError::EmptyInput { op: "from_rows" })?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(TensorError::RaggedRows {
                    expected: cols,
                    row: i,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col] = value;
    }

    /// Returns the `row`-th row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(
            row < self.rows,
            "row {row} out of bounds ({} rows)",
            self.rows
        );
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns the `row`-th row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(
            row < self.rows,
            "row {row} out of bounds ({} rows)",
            self.rows
        );
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Iterates over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Returns the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Returns a new matrix containing columns `[start, end)` of `self`.
    ///
    /// This models the feature-dimension-blocking dataflow: a block of `B`
    /// feature dimensions is a column slice of the feature table.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.cols()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnerator_tensor::Matrix;
    /// let m = Matrix::from_fn(2, 4, |_, c| c as f32);
    /// let block = m.slice_cols(1, 3);
    /// assert_eq!(block.shape(), (2, 2));
    /// assert_eq!(block.get(0, 0), 1.0);
    /// ```
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "invalid column range {start}..{end}"
        );
        let mut out = Matrix::zeros(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Maximum absolute difference between `self` and `other`.
    ///
    /// Used by tests to compare the functional simulator against the
    /// reference executor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes disagree.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f32, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f32, f32::max))
    }

    /// Approximate equality within an absolute tolerance.
    ///
    /// Returns `false` if the shapes differ.
    pub fn approx_eq(&self, other: &Matrix, tolerance: f32) -> bool {
        match self.max_abs_diff(other) {
            Ok(diff) => diff <= tolerance,
            Err(_) => false,
        }
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        let max_cols = 8.min(self.cols);
        for r in 0..max_rows {
            for c in 0..max_cols {
                write!(f, "{:>10.4}", self.get(r, c))?;
            }
            if max_cols < self.cols {
                write!(f, " ...")?;
            }
            writeln!(f)?;
        }
        if max_rows < self.rows {
            writeln!(f, "...")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Matrix {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_values() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert_eq!(m.len(), 15);
        assert!(m.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn filled_sets_every_element() {
        let m = Matrix::filled(2, 2, 3.25);
        assert!(m.iter().all(|&v| v == 3.25));
    }

    #[test]
    fn identity_is_diagonal() {
        let id = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(id.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(TensorError::InvalidBufferLength {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            Matrix::from_rows(&rows),
            Err(TensorError::RaggedRows { row: 1, .. })
        ));
    }

    #[test]
    fn from_rows_rejects_empty_input() {
        let rows: Vec<Vec<f32>> = vec![];
        assert!(matches!(
            Matrix::from_rows(&rows),
            Err(TensorError::EmptyInput { .. })
        ));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::zeros(3, 3);
        m.set(1, 2, 7.0);
        assert_eq!(m.get(1, 2), 7.0);
        assert_eq!(m.get(2, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_panics_out_of_bounds() {
        let m = Matrix::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn row_access() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(m.row(1), &[2.0, 3.0]);
    }

    #[test]
    fn slice_and_write_cols_roundtrip() {
        let m = Matrix::from_fn(3, 6, |r, c| (r * 6 + c) as f32);
        let block = m.slice_cols(2, 5);
        assert_eq!(block.shape(), (3, 3));
        for r in 0..3 {
            assert_eq!(block.row(r), &m.row(r)[2..5]);
        }
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b.set(1, 1, 1.5);
        assert!((a.max_abs_diff(&b).unwrap() - 0.5).abs() < 1e-6);
        assert!(!a.approx_eq(&b, 0.1));
        assert!(a.approx_eq(&b, 0.6));
    }

    #[test]
    fn max_abs_diff_shape_mismatch() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(a.max_abs_diff(&b).is_err());
        assert!(!a.approx_eq(&b, 1.0));
    }

    #[test]
    fn display_is_not_empty() {
        let m = Matrix::identity(2);
        assert!(!format!("{m}").is_empty());
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn default_is_empty() {
        let m = Matrix::default();
        assert!(m.is_empty());
        assert_eq!(m.shape(), (0, 0));
    }
}
