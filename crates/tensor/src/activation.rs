use crate::Matrix;
use std::fmt;

/// Element-wise non-linearity applied by the Dense Engine's activation unit.
///
/// The paper's Dense Engine feeds the systolic-array output through a
/// one-dimensional activation unit before the result is written to the output
/// buffer (Section III-A). The networks in Table III use ReLU; the
/// GraphSAGE-Pool pooling MLP uses a sigmoid in the original GraphSAGE
/// formulation.
///
/// # Examples
///
/// ```
/// use gnnerator_tensor::Activation;
///
/// assert_eq!(Activation::Relu.apply_scalar(-2.0), 0.0);
/// assert_eq!(Activation::Identity.apply_scalar(-2.0), -2.0);
/// assert!(Activation::Sigmoid.apply_scalar(0.0) - 0.5 < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// No non-linearity; the value passes through unchanged.
    #[default]
    Identity,
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// Logistic sigmoid: `1 / (1 + exp(-x))`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to a single value.
    pub fn apply_scalar(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Applies the activation element-wise, returning a new matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use gnnerator_tensor::{Activation, Matrix};
    /// let m = Matrix::from_fn(1, 3, |_, c| c as f32 - 1.0);
    /// let r = Activation::Relu.apply(&m);
    /// assert_eq!(r.as_slice(), &[0.0, 0.0, 1.0]);
    /// ```
    pub fn apply(self, input: &Matrix) -> Matrix {
        let mut out = input.clone();
        self.apply_in_place(&mut out);
        out
    }

    /// Applies the activation element-wise in place.
    pub fn apply_in_place(self, input: &mut Matrix) {
        if self == Activation::Identity {
            return;
        }
        for r in 0..input.rows() {
            for v in input.row_mut(r) {
                *v = self.apply_scalar(*v);
            }
        }
    }

    /// Returns `true` if applying this activation is a no-op.
    pub fn is_identity(self) -> bool {
        self == Activation::Identity
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Activation::Identity => "identity",
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply_scalar(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply_scalar(2.5), 2.5);
        assert_eq!(Activation::Relu.apply_scalar(0.0), 0.0);
    }

    #[test]
    fn sigmoid_is_bounded() {
        for x in [-100.0, -1.0, 0.0, 1.0, 100.0] {
            let y = Activation::Sigmoid.apply_scalar(x);
            assert!((0.0..=1.0).contains(&y), "sigmoid({x}) = {y} out of range");
        }
        assert!((Activation::Sigmoid.apply_scalar(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn tanh_is_odd() {
        let y = Activation::Tanh.apply_scalar(0.7);
        let z = Activation::Tanh.apply_scalar(-0.7);
        assert!((y + z).abs() < 1e-6);
    }

    #[test]
    fn identity_returns_input_unchanged() {
        let m = Matrix::from_fn(2, 2, |r, c| (r as f32) - (c as f32));
        assert_eq!(Activation::Identity.apply(&m), m);
        assert!(Activation::Identity.is_identity());
        assert!(!Activation::Relu.is_identity());
    }

    #[test]
    fn apply_matches_apply_scalar() {
        let m = Matrix::from_fn(3, 3, |r, c| (r as f32) - (c as f32));
        for act in [Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            let out = act.apply(&m);
            for r in 0..3 {
                for c in 0..3 {
                    assert_eq!(out.get(r, c), act.apply_scalar(m.get(r, c)));
                }
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Activation::Relu.to_string(), "relu");
        assert_eq!(Activation::Identity.to_string(), "identity");
        assert_eq!(Activation::Sigmoid.to_string(), "sigmoid");
        assert_eq!(Activation::Tanh.to_string(), "tanh");
    }

    #[test]
    fn default_is_identity() {
        assert_eq!(Activation::default(), Activation::Identity);
    }
}
