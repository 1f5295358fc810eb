//! Scalar-vs-SIMD dispatch-arm parity and run-to-run determinism.
//!
//! The two gemm-core arms (portable scalar, AVX2/FMA) share blocking and
//! accumulation *order*, but the vector arm contracts multiply-adds with
//! FMA, so cross-arm results agree only to rounding — these tests bound
//! that gap with norm-scaled tolerances over every kernel entry point.
//! Within a fixed arm the kernels must be *bitwise* deterministic
//! run-to-run: checkpoint resume and the multi-job service's solo-parity
//! invariant both compare f64 buffers for exact equality across runs.
//!
//! When the host has no AVX2 the detected arm is the scalar arm and the
//! parity checks degenerate to exact self-comparison (still meaningful
//! for the determinism half).

use hqr_kernels::reference::dense_householder_qr;
use hqr_kernels::{
    geqrt, geqrt_ib, simd_detected, tsmqr, tsmqr_ib, tsqrt, tsqrt_ib, ttmqr, ttmqr_ib, ttqrt,
    ttqrt_ib, unmqr, unmqr_ib, with_arm, SimdArm, Trans,
};
use hqr_tile::DenseMatrix;

const SIZES: &[usize] = &[1, 3, 5, 8, 13, 24, 32];

fn tile(b: usize, seed: u64) -> Vec<f64> {
    DenseMatrix::random(b, b, seed).data().to_vec()
}

fn upper(b: usize, a: &[f64]) -> Vec<f64> {
    let mut u = vec![0.0; b * b];
    for j in 0..b {
        for i in 0..=j {
            u[i + j * b] = a[i + j * b];
        }
    }
    u
}

fn norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Max |x−y| must be small relative to the buffer norm.
fn assert_close(b: usize, x: &[f64], y: &[f64], what: &str) {
    let scale = norm(x).max(1.0);
    let gap = x.iter().zip(y).fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
    assert!(
        gap < 1e-12 * (b as f64).max(1.0) * scale,
        "{what} (b={b}): cross-arm gap {gap:e} vs scale {scale:e}"
    );
}

fn assert_bits(x: &[f64], y: &[f64], what: &str) {
    for (i, (p, q)) in x.iter().zip(y).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "{what}: bit mismatch at {i}: {p} vs {q}");
    }
}

fn ib_for(b: usize) -> usize {
    (b / 2).max(1)
}

/// Run every kernel entry point once on `arm` from identical inputs and
/// return all output buffers, concatenated per kernel.
fn run_all(arm: SimdArm, b: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    with_arm(arm, || run_all_here(b, seed))
}

fn run_all_here(b: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let ib = ib_for(b);
    let mut out: Vec<(&'static str, Vec<f64>)> = Vec::new();

    // One-panel kernels (ib = b): GEQRT feeds UNMQR.
    let (mut v, mut t) = (tile(b, seed), vec![0.0; b * b]);
    geqrt(b, &mut v, &mut t);
    let mut c = tile(b, seed ^ 1);
    unmqr(b, &v, &t, &mut c, Trans::Trans);
    let mut c2 = tile(b, seed ^ 2);
    unmqr(b, &v, &t, &mut c2, Trans::NoTrans);
    out.push(("unmqr", [c, c2].concat()));

    // TSQRT feeds TSMQR.
    let (mut r1, mut a2, mut ts) =
        (upper(b, &tile(b, seed ^ 3)), tile(b, seed ^ 4), vec![0.0; b * b]);
    tsqrt(b, &mut r1, &mut a2, &mut ts);
    let (mut p1, mut p2) = (tile(b, seed ^ 5), tile(b, seed ^ 6));
    tsmqr(b, &a2, &ts, &mut p1, &mut p2, Trans::Trans);
    out.push(("tsmqr", [p1, p2].concat()));

    // TTQRT feeds TTMQR (second tile upper-triangular).
    let (mut q1, mut q2, mut tt) =
        (upper(b, &tile(b, seed ^ 7)), upper(b, &tile(b, seed ^ 8)), vec![0.0; b * b]);
    ttqrt(b, &mut q1, &mut q2, &mut tt);
    let (mut w1, mut w2) = (tile(b, seed ^ 9), tile(b, seed ^ 10));
    ttmqr(b, &q2, &tt, &mut w1, &mut w2, Trans::Trans);
    out.push(("ttmqr", [w1, w2].concat()));

    // Several panels (ib < b): the factor kernels run their trailing
    // block-applies through the dispatched core.
    let (mut gv, mut gt) = (tile(b, seed ^ 11), vec![0.0; b * b]);
    geqrt_ib(b, ib, &mut gv, &mut gt);
    let mut gc = tile(b, seed ^ 12);
    unmqr_ib(b, ib, &gv, &gt, &mut gc, Trans::Trans);
    out.push(("geqrt_ib", [gv.clone(), gt.clone()].concat()));
    out.push(("unmqr_ib", gc));

    let (mut sr, mut sa, mut st) =
        (upper(b, &tile(b, seed ^ 13)), tile(b, seed ^ 14), vec![0.0; b * b]);
    tsqrt_ib(b, ib, &mut sr, &mut sa, &mut st);
    let (mut s1, mut s2) = (tile(b, seed ^ 15), tile(b, seed ^ 16));
    tsmqr_ib(b, ib, &sa, &st, &mut s1, &mut s2, Trans::Trans);
    out.push(("tsqrt_ib", [sr, sa.clone(), st.clone()].concat()));
    out.push(("tsmqr_ib", [s1, s2].concat()));

    let (mut tr, mut ta, mut tt2) =
        (upper(b, &tile(b, seed ^ 17)), upper(b, &tile(b, seed ^ 18)), vec![0.0; b * b]);
    ttqrt_ib(b, ib, &mut tr, &mut ta, &mut tt2);
    let (mut u1, mut u2) = (tile(b, seed ^ 19), tile(b, seed ^ 20));
    ttmqr_ib(b, ib, &ta, &tt2, &mut u1, &mut u2, Trans::Trans);
    out.push(("ttqrt_ib", [tr, ta.clone(), tt2.clone()].concat()));
    out.push(("ttmqr_ib", [u1, u2].concat()));

    // The BLAS shim rides the same core.
    let (ga, gb) = (tile(b, seed ^ 21), tile(b, seed ^ 22));
    let mut gcm = tile(b, seed ^ 23);
    hqr_kernels::blas::gemm(b, b, b, 1.5, &ga, Trans::NoTrans, &gb, Trans::Trans, -0.5, &mut gcm);
    out.push(("gemm", gcm));

    out
}

#[test]
fn scalar_and_detected_arms_agree_to_rounding_on_all_kernels() {
    let det = simd_detected();
    for &b in SIZES {
        let scalar = run_all(SimdArm::Scalar, b, 0x9e37 + b as u64);
        let vector = run_all(det, b, 0x9e37 + b as u64);
        for ((name, xs), (name2, ys)) in scalar.iter().zip(&vector) {
            assert_eq!(name, name2);
            assert_close(b, xs, ys, name);
        }
    }
}

#[test]
fn each_arm_is_bitwise_deterministic_run_to_run() {
    for arm in [SimdArm::Scalar, simd_detected()] {
        for &b in &[5usize, 13, 32] {
            let first = run_all(arm, b, 0x51d7 + b as u64);
            let second = run_all(arm, b, 0x51d7 + b as u64);
            for ((name, xs), (_, ys)) in first.iter().zip(&second) {
                assert_bits(xs, ys, name);
            }
        }
    }
}

#[test]
fn ib_factorization_matches_flat_kernels_numerically() {
    // Same V and R up to rounding regardless of inner blocking, on both
    // arms — guards the panel/trailing split against the one-panel kernel
    // and against the independent dense Householder reference.
    let det = simd_detected();
    for &b in &[6usize, 12, 24] {
        let a0 = tile(b, 77 + b as u64);
        let (_, r_dense) = dense_householder_qr(&DenseMatrix::from_col_major(b, b, &a0));
        let r_dense = upper(b, r_dense.data());
        for arm in [SimdArm::Scalar, det] {
            let factor = |ib: usize| {
                let (mut a, mut t) = (a0.clone(), vec![0.0; b * b]);
                with_arm(arm, || geqrt_ib(b, ib, &mut a, &mut t));
                a
            };
            let flat = factor(b);
            assert_close(b, &upper(b, &flat), &r_dense, "geqrt R vs dense reference");
            for ib in [1usize, 2, b / 2] {
                let ab = factor(ib);
                assert_close(b, &flat, &ab, "geqrt_ib vs geqrt (V,R)");
                assert_close(b, &upper(b, &ab), &r_dense, "geqrt_ib R vs dense reference");
            }
        }
    }
}
