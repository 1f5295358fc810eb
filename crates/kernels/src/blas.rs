//! Small dense BLAS-like routines on column-major tiles, supporting the
//! least-squares solver and the explicit-Q builders. These are utility
//! kernels (the paper's algorithms only need the six QR kernels).
//!
//! [`gemm`] is a thin shim over the shared register-blocked core in
//! [`crate::micro`], so it rides the same runtime scalar/AVX2 dispatch as
//! the tile kernels. Buffer-size contract: every routine here demands
//! exact sizes (`assert_eq!`) — including [`try_trsm_upper`]'s `r`, which
//! historically tolerated oversized buffers and silently indexed the
//! leading block.

use crate::micro::{gemm_core, simd_arm, MaskA};
use crate::KernelError;
use crate::Trans;

/// C := beta·C + alpha·op(A)·op(B) for column-major matrices.
/// `a` is `m × k` (after op), `b` is `k × n` (after op), `c` is `m × n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    ta: Trans,
    b: &[f64],
    tb: Trans,
    beta: f64,
    c: &mut [f64],
) {
    assert_eq!(c.len(), m * n, "C must be m*n");
    match ta {
        Trans::NoTrans => assert_eq!(a.len(), m * k, "A must be m*k"),
        Trans::Trans => assert_eq!(a.len(), k * m, "A' must be k*m"),
    }
    match tb {
        Trans::NoTrans => assert_eq!(b.len(), k * n, "B must be k*n"),
        Trans::Trans => assert_eq!(b.len(), n * k, "B' must be n*k"),
    }
    // The core takes both operands untransposed; pack transposed views.
    let apack;
    let an: &[f64] = match ta {
        Trans::NoTrans => a,
        Trans::Trans => {
            let mut p = vec![0.0; m * k];
            for l in 0..k {
                for i in 0..m {
                    p[i + l * m] = a[l + i * k];
                }
            }
            apack = p;
            &apack
        }
    };
    let bpack;
    let bn: &[f64] = match tb {
        Trans::NoTrans => b,
        Trans::Trans => {
            let mut p = vec![0.0; k * n];
            for j in 0..n {
                for l in 0..k {
                    p[l + j * k] = b[j + l * n];
                }
            }
            bpack = p;
            &bpack
        }
    };
    gemm_core(simd_arm(), m, n, k, alpha, an, m, MaskA::Full, bn, k, beta, c, m);
}

/// Solve R·X = B in place (X overwrites B), where `r` is the upper
/// triangle of an `n × n` column-major matrix (entries below the diagonal
/// are ignored) and `b` is `n × nrhs`. Backward substitution; returns
/// [`KernelError::SingularR`] on a zero diagonal entry, leaving `b` in an
/// unspecified partially-solved state.
pub fn try_trsm_upper(n: usize, nrhs: usize, r: &[f64], b: &mut [f64]) -> Result<(), KernelError> {
    assert_eq!(r.len(), n * n, "R must be n*n");
    assert_eq!(b.len(), n * nrhs, "B must be n*nrhs");
    for col in 0..nrhs {
        let bc = col * n;
        for i in (0..n).rev() {
            let mut s = b[bc + i];
            for l in (i + 1)..n {
                s -= r[i + l * n] * b[bc + l];
            }
            let d = r[i + i * n];
            if d == 0.0 {
                return Err(KernelError::SingularR { index: i });
            }
            b[bc + i] = s / d;
        }
    }
    Ok(())
}

/// Panicking convenience wrapper around [`try_trsm_upper`] for callers that
/// have already established R is nonsingular.
pub fn trsm_upper(n: usize, nrhs: usize, r: &[f64], b: &mut [f64]) {
    if let Err(e) = try_trsm_upper(n, nrhs, r, b) {
        panic!("{e}");
    }
}

/// Infinity norm of the difference of two equal-length buffers.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqr_tile::DenseMatrix;

    #[test]
    fn gemm_matches_dense_reference() {
        let (m, n, k) = (4usize, 3usize, 5usize);
        let a = DenseMatrix::random(m, k, 1);
        let b = DenseMatrix::random(k, n, 2);
        let mut c = vec![0.0; m * n];
        gemm(m, n, k, 1.0, a.data(), Trans::NoTrans, b.data(), Trans::NoTrans, 0.0, &mut c);
        let expect = a.matmul(&b);
        assert!(max_abs_diff(&c, expect.data()) < 1e-14);
    }

    #[test]
    fn gemm_transposed_operands() {
        let (m, n, k) = (3usize, 4usize, 2usize);
        let at = DenseMatrix::random(k, m, 3); // holds Aᵀ
        let bt = DenseMatrix::random(n, k, 4); // holds Bᵀ
        let mut c = vec![0.0; m * n];
        gemm(m, n, k, 1.0, at.data(), Trans::Trans, bt.data(), Trans::Trans, 0.0, &mut c);
        let expect = at.transpose().matmul(&bt.transpose());
        assert!(max_abs_diff(&c, expect.data()) < 1e-14);
    }

    #[test]
    fn gemm_alpha_beta() {
        let (m, n, k) = (2usize, 2usize, 2usize);
        let a = DenseMatrix::identity(2, 2);
        let b = DenseMatrix::identity(2, 2);
        let mut c = vec![1.0; 4];
        gemm(m, n, k, 2.0, a.data(), Trans::NoTrans, b.data(), Trans::NoTrans, 3.0, &mut c);
        // C = 3*ones + 2*I
        assert_eq!(c, vec![5.0, 3.0, 3.0, 5.0]);
    }

    #[test]
    fn gemm_large_shapes_match_reference_on_both_arms() {
        // Exercise the register-block tails (m, n not multiples of 8/4).
        use crate::micro::{simd_detected, with_arm, SimdArm};
        for &(m, n, k) in &[(17usize, 9usize, 13usize), (64, 64, 64), (33, 5, 21)] {
            let a = DenseMatrix::random(m, k, 91);
            let b = DenseMatrix::random(k, n, 92);
            let expect = a.matmul(&b);
            for arm in [SimdArm::Scalar, simd_detected()] {
                let mut c = vec![0.0; m * n];
                with_arm(arm, || {
                    let (a, b) = (a.data(), b.data());
                    gemm(m, n, k, 1.0, a, Trans::NoTrans, b, Trans::NoTrans, 0.0, &mut c)
                });
                assert!(max_abs_diff(&c, expect.data()) < 1e-11 * (k as f64));
            }
        }
    }

    #[test]
    fn trsm_solves_upper_system() {
        let n = 5;
        // Build a well-conditioned upper-triangular R.
        let mut r = vec![0.0; n * n];
        let dm = DenseMatrix::random(n, n, 5);
        for j in 0..n {
            for i in 0..=j {
                r[i + j * n] = dm.get(i, j) + if i == j { 3.0 } else { 0.0 };
            }
        }
        let x_true = DenseMatrix::random(n, 2, 6);
        // b = R x
        let mut b = vec![0.0; n * 2];
        gemm(n, 2, n, 1.0, &r, Trans::NoTrans, x_true.data(), Trans::NoTrans, 0.0, &mut b);
        try_trsm_upper(n, 2, &r, &mut b).unwrap();
        assert!(max_abs_diff(&b, x_true.data()) < 1e-12);
    }

    #[test]
    fn trsm_ignores_strict_lower() {
        let n = 3;
        let mut r = vec![0.0; n * n];
        for j in 0..n {
            for i in 0..=j {
                r[i + j * n] = 1.0 + (i + j) as f64;
            }
        }
        let mut r_poison = r.clone();
        for j in 0..n {
            for i in (j + 1)..n {
                r_poison[i + j * n] = f64::NAN;
            }
        }
        let mut b1 = vec![1.0, 2.0, 3.0];
        let mut b2 = b1.clone();
        try_trsm_upper(n, 1, &r, &mut b1).unwrap();
        try_trsm_upper(n, 1, &r_poison, &mut b2).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn trsm_reports_singularity_as_error() {
        let mut r = vec![0.0; 9];
        r[0] = 1.0;
        r[4] = 0.0; // zero diagonal at index 1
        r[8] = 2.0;
        let mut b = vec![1.0, 1.0, 1.0];
        assert_eq!(try_trsm_upper(3, 1, &r, &mut b), Err(KernelError::SingularR { index: 1 }));
    }

    #[test]
    #[should_panic(expected = "singular R")]
    fn trsm_panicking_wrapper_still_panics() {
        let r = vec![0.0; 4];
        let mut b = vec![1.0, 1.0];
        trsm_upper(2, 1, &r, &mut b);
    }

    #[test]
    #[should_panic(expected = "R must be n*n")]
    fn trsm_rejects_oversized_r() {
        // Contract unified with gemm: exact sizes only.
        let r = vec![1.0; 10];
        let mut b = vec![1.0; 3];
        let _ = try_trsm_upper(3, 1, &r, &mut b);
    }
}
