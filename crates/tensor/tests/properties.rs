//! Property-based tests for the tensor crate.

use gnnerator_tensor::{ops, Activation, Matrix};
use proptest::prelude::*;

/// Strategy producing a matrix of the given shape with small values.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0_f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized buffer"))
}

/// Strategy for a small shape (1..=8 in each dimension).
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (1_usize..=8, 1_usize..=8)
}

proptest! {
    #[test]
    fn matmul_identity_left_and_right((r, c) in shape(), seed in 0u64..1000) {
        let m = deterministic_matrix(r, c, seed);
        let left = ops::matmul(&Matrix::identity(r), &m).unwrap();
        let right = ops::matmul(&m, &Matrix::identity(c)).unwrap();
        prop_assert!(left.approx_eq(&m, 1e-5));
        prop_assert!(right.approx_eq(&m, 1e-5));
    }

    #[test]
    fn matmul_distributes_over_addition(seed in 0u64..500) {
        let a = deterministic_matrix(4, 5, seed);
        let b = deterministic_matrix(5, 3, seed.wrapping_add(1));
        let c = deterministic_matrix(5, 3, seed.wrapping_add(2));
        let lhs = ops::matmul(&a, &ops::add(&b, &c).unwrap()).unwrap();
        let rhs = ops::add(
            &ops::matmul(&a, &b).unwrap(),
            &ops::matmul(&a, &c).unwrap(),
        )
        .unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn transpose_swaps_matmul_order(seed in 0u64..500) {
        let a = deterministic_matrix(3, 4, seed);
        let b = deterministic_matrix(4, 2, seed.wrapping_add(7));
        let lhs = transpose(&ops::matmul(&a, &b).unwrap());
        let rhs = ops::matmul(&transpose(&b), &transpose(&a)).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn relu_is_idempotent(m in matrix(4, 4)) {
        let once = Activation::Relu.apply(&m);
        let twice = Activation::Relu.apply(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn relu_output_is_nonnegative(m in matrix(5, 3)) {
        let out = Activation::Relu.apply(&m);
        prop_assert!(out.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn sigmoid_output_in_unit_interval(m in matrix(3, 6)) {
        let out = Activation::Sigmoid.apply(&m);
        prop_assert!(out.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn concat_then_slice_recovers_operands(seed in 0u64..1000) {
        let a = deterministic_matrix(3, 2, seed);
        let b = deterministic_matrix(3, 4, seed.wrapping_add(11));
        let cat = ops::concat_cols(&a, &b).unwrap();
        prop_assert_eq!(cat.slice_cols(0, 2), a);
        prop_assert_eq!(cat.slice_cols(2, 6), b);
    }

    #[test]
    fn mean_rows_is_bounded_by_min_and_max(seed in 0u64..1000) {
        let feats = deterministic_matrix(6, 3, seed);
        let idx = [0_usize, 2, 4];
        let mean = ops::mean_rows(&feats, &idx);
        for c in 0..3 {
            let vals: Vec<f32> = idx.iter().map(|&i| feats.get(i, c)).collect();
            let lo = vals.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(mean.get(0, c) >= lo - 1e-5 && mean.get(0, c) <= hi + 1e-5);
        }
    }

    #[test]
    fn blocked_matmul_matches_full(seed in 0u64..200, block in 1usize..=4) {
        // Core invariant behind feature-dimension blocking: accumulating
        // block-wise partial products equals the unblocked product.
        let k = 8usize;
        let a = deterministic_matrix(5, k, seed);
        let b = deterministic_matrix(k, 3, seed.wrapping_add(17));
        let full = ops::matmul(&a, &b).unwrap();
        let mut acc = Matrix::zeros(5, 3);
        let mut start = 0;
        while start < k {
            let end = (start + block).min(k);
            let a_blk = a.slice_cols(start, end);
            let b_blk = Matrix::from_fn(end - start, 3, |r, c| b.get(start + r, c));
            acc = ops::matmul_accumulate(&a_blk, &b_blk, acc).unwrap();
            start = end;
        }
        prop_assert!(full.approx_eq(&acc, 1e-3));
    }
}

/// The transpose of `a`.
fn transpose(a: &Matrix) -> Matrix {
    Matrix::from_fn(a.cols(), a.rows(), |r, c| a.get(c, r))
}

/// Builds a deterministic pseudo-random matrix from a seed without depending
/// on the `rand` crate in this test target.
fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let mut x = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add((r * 31 + c * 7 + 1) as u64);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51afd7ed558ccd);
        x ^= x >> 33;
        ((x % 2000) as f32) / 100.0 - 10.0
    })
}
