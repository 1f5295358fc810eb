//! The three factor kernels (GEQRT, TSQRT, TTQRT) at tile sizes on both
//! sides of the recursive panel's base-case width, at several inner block
//! sizes and at input scales from 1e-300 to 1e300:
//!
//! - R matches an independent dense Householder QR up to row signs;
//! - applying Qᵀ through the matching update kernel (UNMQR, TSMQR, TTMQR)
//!   to the input reproduces R, to the paper's 100·ε·b tolerance;
//! - the stacked kernels never read or write the strict lower triangle of
//!   A1, and TTQRT never that of A2 (both are NaN-poisoned here).

use hqr_kernels::reference::dense_householder_qr;
use hqr_kernels::{geqrt_ib, tsmqr_ib, tsqrt_ib, ttmqr_ib, ttqrt_ib, unmqr_ib, Trans};
use hqr_tile::DenseMatrix;

/// Widest panel the kernels factor with the level-2 column loop.
const BASE: usize = 8;

const SIZES: [usize; 6] = [1, BASE, BASE + 1, 2 * BASE + 1, 64, 128];

fn ibs(b: usize) -> Vec<usize> {
    let mut out: Vec<usize> =
        [1, 3, b / 2, b].into_iter().filter(|ib| (1..=b).contains(ib)).collect();
    out.dedup();
    out
}

fn tile(b: usize, seed: u64, scale: f64) -> Vec<f64> {
    DenseMatrix::random(b, b, seed).data().iter().map(|x| x * scale).collect()
}

fn upper(b: usize, a: &[f64]) -> Vec<f64> {
    let mut u = vec![0.0; b * b];
    for j in 0..b {
        u[j * b..j * b + j + 1].copy_from_slice(&a[j * b..j * b + j + 1]);
    }
    u
}

fn poison_strict_lower(b: usize, a: &mut [f64]) {
    for j in 0..b {
        a[j * b + j + 1..(j + 1) * b].fill(f64::NAN);
    }
}

fn strict_lower_is_nan(b: usize, a: &[f64]) -> bool {
    (0..b).all(|j| a[j * b + j + 1..(j + 1) * b].iter().all(|x| x.is_nan()))
}

/// ‖x‖₂ of the concatenated buffers, without over- or underflow.
fn norm(parts: &[&[f64]]) -> f64 {
    let m = parts.iter().flat_map(|p| p.iter()).fold(0.0f64, |m, x| m.max(x.abs()));
    if m == 0.0 {
        return 0.0;
    }
    m * parts.iter().flat_map(|p| p.iter()).map(|x| (x / m) * (x / m)).sum::<f64>().sqrt()
}

fn diff(x: &[f64], y: &[f64]) -> Vec<f64> {
    x.iter().zip(y).map(|(p, q)| p - q).collect()
}

fn tol(b: usize) -> f64 {
    100.0 * f64::EPSILON * b as f64
}

/// The upper `b × b` R of a dense QR of `top` stacked on `bottom`
/// (`bottom` may be empty).
fn dense_r(b: usize, top: &[f64], bottom: &[f64]) -> Vec<f64> {
    let rows = if bottom.is_empty() { b } else { 2 * b };
    let mut stack = DenseMatrix::zeros(rows, b);
    for j in 0..b {
        for i in 0..b {
            stack.set(i, j, top[i + j * b]);
            if !bottom.is_empty() {
                stack.set(b + i, j, bottom[i + j * b]);
            }
        }
    }
    let (_, r) = dense_householder_qr(&stack);
    let mut out = vec![0.0; b * b];
    for j in 0..b {
        for i in 0..=j {
            out[i + j * b] = r.get(i, j);
        }
    }
    out
}

/// R from the kernels equals the dense reference's R up to row signs.
fn assert_r_matches(b: usize, r: &[f64], r_ref: &[f64], scale_of_a: f64, what: &str) {
    let mut flipped = r_ref.to_vec();
    for i in 0..b {
        if r[i + i * b] * r_ref[i + i * b] < 0.0 {
            for j in i..b {
                flipped[i + j * b] = -flipped[i + j * b];
            }
        }
    }
    let gap = norm(&[&diff(&upper(b, r), &flipped)]) / scale_of_a;
    assert!(gap <= tol(b), "{what}: R differs from the dense reference by {gap:e}");
}

/// GEQRT of `a0`, then Qᵀ·A0 through UNMQR. Returns R and the residual
/// ‖QᵀA0 − R‖/‖A0‖.
fn geqrt_case(b: usize, ib: usize, a0: &[f64]) -> (Vec<f64>, f64) {
    let (mut a, mut t) = (a0.to_vec(), vec![0.0; b * b]);
    geqrt_ib(b, ib, &mut a, &mut t);
    assert!(a.iter().chain(&t).all(|x| x.is_finite()), "geqrt b={b} ib={ib}: non-finite output");
    let mut c = a0.to_vec();
    unmqr_ib(b, ib, &a, &t, &mut c, Trans::Trans);
    let r = upper(b, &a);
    let resid = norm(&[&diff(&c, &r)]) / norm(&[a0]);
    (r, resid)
}

/// TSQRT (or TTQRT with `tri`) of `[A1; A2]` with A1's strict lower
/// triangle (and A2's, for TT) NaN-poisoned, then Qᵀ·[A1; A2] through
/// TSMQR (TTMQR). Returns R and ‖Qᵀ[A1; A2] − [R; 0]‖/‖[A1; A2]‖.
fn stacked_case(b: usize, ib: usize, a1_0: &[f64], a2_0: &[f64], tri: bool) -> (Vec<f64>, f64) {
    let what = if tri { "ttqrt" } else { "tsqrt" };
    let (mut a1, mut a2, mut t) = (a1_0.to_vec(), a2_0.to_vec(), vec![0.0; b * b]);
    poison_strict_lower(b, &mut a1);
    if tri {
        poison_strict_lower(b, &mut a2);
        ttqrt_ib(b, ib, &mut a1, &mut a2, &mut t);
    } else {
        tsqrt_ib(b, ib, &mut a1, &mut a2, &mut t);
    }
    assert!(strict_lower_is_nan(b, &a1), "{what} b={b} ib={ib}: touched A1's strict lower");
    let r = upper(b, &a1);
    let v2 = if tri {
        assert!(strict_lower_is_nan(b, &a2), "{what} b={b} ib={ib}: touched A2's strict lower");
        upper(b, &a2)
    } else {
        a2.clone()
    };
    assert!(
        r.iter().chain(&v2).chain(&t).all(|x| x.is_finite()),
        "{what} b={b} ib={ib}: non-finite output"
    );
    // The update kernel reads V2 as the factor kernel left it (TTMQR
    // ignores the poisoned triangle).
    let (mut c1, mut c2) = (a1_0.to_vec(), a2_0.to_vec());
    if tri {
        ttmqr_ib(b, ib, &a2, &t, &mut c1, &mut c2, Trans::Trans);
    } else {
        tsmqr_ib(b, ib, &a2, &t, &mut c1, &mut c2, Trans::Trans);
    }
    let resid = norm(&[&diff(&c1, &r), &c2]) / norm(&[a1_0, a2_0]);
    (r, resid)
}

#[test]
fn geqrt_matches_reference_and_reproduces_r() {
    for b in SIZES {
        let a0 = tile(b, 100 + b as u64, 1.0);
        let r_ref = dense_r(b, &a0, &[]);
        for ib in ibs(b) {
            let (r, resid) = geqrt_case(b, ib, &a0);
            assert!(resid <= tol(b), "geqrt b={b} ib={ib}: ‖QᵀA−R‖/‖A‖ = {resid:e}");
            assert_r_matches(b, &r, &r_ref, norm(&[&a0]), &format!("geqrt b={b} ib={ib}"));
        }
    }
}

#[test]
fn tsqrt_matches_reference_and_reproduces_r() {
    for b in SIZES {
        let (a1, a2) = (upper(b, &tile(b, 200 + b as u64, 1.0)), tile(b, 300 + b as u64, 1.0));
        let r_ref = dense_r(b, &a1, &a2);
        for ib in ibs(b) {
            let (r, resid) = stacked_case(b, ib, &a1, &a2, false);
            assert!(resid <= tol(b), "tsqrt b={b} ib={ib}: residual {resid:e}");
            assert_r_matches(b, &r, &r_ref, norm(&[&a1, &a2]), &format!("tsqrt b={b} ib={ib}"));
        }
    }
}

#[test]
fn ttqrt_matches_reference_and_never_touches_the_dead_triangle() {
    for b in SIZES {
        let (a1, a2) =
            (upper(b, &tile(b, 400 + b as u64, 1.0)), upper(b, &tile(b, 500 + b as u64, 1.0)));
        let r_ref = dense_r(b, &a1, &a2);
        for ib in ibs(b) {
            let (r, resid) = stacked_case(b, ib, &a1, &a2, true);
            assert!(resid <= tol(b), "ttqrt b={b} ib={ib}: residual {resid:e}");
            assert_r_matches(b, &r, &r_ref, norm(&[&a1, &a2]), &format!("ttqrt b={b} ib={ib}"));
        }
    }
}

#[test]
fn factor_kernels_are_scale_invariant_from_1e_minus_300_to_1e300() {
    // The plain sum of squares in the reflector generator underflows
    // below ~1e-154 and overflows above ~1e154; the scaled path must keep
    // every kernel finite and backward stable across the whole range.
    let scales = [1e-300, 1e-200, 1e-170, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e200, 1e300];
    for b in [BASE, 2 * BASE + 1, 64] {
        for ib in [3, b] {
            for (k, &s) in scales.iter().enumerate() {
                let seed = 600 + 10 * b as u64 + k as u64;
                let (_, resid) = geqrt_case(b, ib, &tile(b, seed, s));
                assert!(resid <= tol(b), "geqrt b={b} ib={ib} scale {s:e}: residual {resid:e}");
                let (a1, a2) = (upper(b, &tile(b, seed ^ 1, s)), tile(b, seed ^ 2, s));
                let (_, resid) = stacked_case(b, ib, &a1, &a2, false);
                assert!(resid <= tol(b), "tsqrt b={b} ib={ib} scale {s:e}: residual {resid:e}");
                let a2 = upper(b, &a2);
                let (_, resid) = stacked_case(b, ib, &a1, &a2, true);
                assert!(resid <= tol(b), "ttqrt b={b} ib={ib} scale {s:e}: residual {resid:e}");
            }
        }
    }
}
