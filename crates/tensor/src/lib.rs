//! Dense tensor kernels for the GNNerator reproduction.
//!
//! GNN feature extraction is a sequence of dense matrix products followed by
//! element-wise activations. The accelerator model, the functional reference
//! executor and the baselines all need a small, dependency-free numeric
//! substrate; this crate provides it:
//!
//! * [`Matrix`] — a row-major `f32` matrix with shape-checked constructors,
//! * [`ops`] — matrix products, concatenation and reductions,
//! * [`Activation`] — the element-wise non-linearities used by the paper's
//!   networks (ReLU for GCN/GraphSAGE, sigmoid for GraphSAGE-Pool's
//!   pooling MLP).
//!
//! # Examples
//!
//! ```
//! use gnnerator_tensor::{Matrix, ops, Activation};
//!
//! # fn main() -> Result<(), gnnerator_tensor::TensorError> {
//! let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
//! let w = Matrix::identity(2);
//! let y = ops::matmul(&x, &w)?;
//! let y = Activation::Relu.apply(&y);
//! assert_eq!(y.get(1, 1), 4.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod activation;
mod error;
mod matrix;
pub mod ops;

pub use activation::Activation;
pub use error::TensorError;
pub use matrix::Matrix;
