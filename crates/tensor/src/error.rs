use std::error::Error;
use std::fmt;

/// Error type for shape and argument validation in tensor operations.
///
/// All fallible operations in this crate return `Result<_, TensorError>` so
/// that shape mismatches surface as recoverable errors rather than panics.
///
/// # Examples
///
/// ```
/// use gnnerator_tensor::{Matrix, ops};
///
/// let a = Matrix::zeros(2, 3);
/// let b = Matrix::zeros(2, 3);
/// // 2x3 * 2x3 is not a valid product: inner dimensions disagree.
/// assert!(ops::matmul(&a, &b).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right-hand operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The raw buffer handed to a constructor does not match `rows * cols`.
    InvalidBufferLength {
        /// Expected number of elements.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// A constructor was given rows of differing lengths.
    RaggedRows {
        /// Length of the first row, which sets the expectation.
        expected: usize,
        /// Index of the first offending row.
        row: usize,
        /// Length of the offending row.
        actual: usize,
    },
    /// The operation requires a non-empty matrix but an empty one was given.
    EmptyInput {
        /// Human readable name of the operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidBufferLength { expected, actual } => write!(
                f,
                "buffer length {actual} does not match rows * cols = {expected}"
            ),
            TensorError::RaggedRows {
                expected,
                row,
                actual,
            } => write!(
                f,
                "row {row} has {actual} elements but the first row has {expected}"
            ),
            TensorError::EmptyInput { op } => {
                write!(f, "operation {op} requires a non-empty matrix")
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let err = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let msg = err.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));
    }

    #[test]
    fn display_invalid_buffer() {
        let err = TensorError::InvalidBufferLength {
            expected: 6,
            actual: 5,
        };
        assert!(err.to_string().contains('6'));
        assert!(err.to_string().contains('5'));
    }

    #[test]
    fn display_ragged_rows() {
        let err = TensorError::RaggedRows {
            expected: 3,
            row: 2,
            actual: 4,
        };
        assert!(err.to_string().contains("row 2"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
