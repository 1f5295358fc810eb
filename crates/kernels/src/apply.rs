//! Update kernels: UNMQR, TSMQR, TTMQR (apply op(Q) of a factor kernel),
//! and the per-panel block-applies the factor kernels share with them.
//!
//! Every apply is a packed call into the shared gemm core
//! ([`crate::micro`]): triangular operands are pack-cleaned (the ignored
//! triangle zeroed, unit diagonals materialized) so the vector arm can
//! run dense register blocks while the structure mask preserves the
//! kernels' nominal flop counts. Control flow is input-independent —
//! there are no data-dependent early-outs — so per-call flop counts are
//! a function of `(b, ib)` alone and results are bitwise deterministic
//! run-to-run for a fixed dispatch arm.

use crate::micro::{gemm_core, simd_arm, MaskA, SimdArm};
use crate::{check_ib, check_tile, panels, Trans};

/// Multiply the `w × n` workspace `wbuf` in place by op(T_p), where the
/// panel T is stored at rows 0..w, cols s..s+w of `t` (strict lower of
/// the panel triangle ignored).
#[allow(clippy::too_many_arguments)]
fn apply_t_panel(
    arm: SimdArm,
    b: usize,
    t: &[f64],
    s: usize,
    w: usize,
    n: usize,
    wbuf: &mut [f64],
    trans: Trans,
) {
    let mut tc = vec![0.0; w * w];
    let mask = match trans {
        // W := Tᵀ·W with Tᵀ lower triangular.
        Trans::Trans => {
            for j in 0..w {
                for i in 0..=j {
                    tc[j + i * w] = t[i + (s + j) * b];
                }
            }
            MaskA::Lower(0)
        }
        // W := T·W with T upper triangular.
        Trans::NoTrans => {
            for j in 0..w {
                for i in 0..=j {
                    tc[i + j * w] = t[i + (s + j) * b];
                }
            }
            MaskA::Upper(0)
        }
    };
    let src = wbuf.to_vec();
    gemm_core(arm, w, n, w, 1.0, &tc, w, mask, &src, w, 0.0, wbuf, w);
}

/// `C := op(I − V·T_p·Vᵀ)·C` for the unit-lower reflector panel in columns
/// `s..s+w` of `v` (rows below the unit diagonal; R above it is ignored).
/// `c` starts at row `s` of an `n`-column block with leading dimension `b`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_unit_lower_panel(
    arm: SimdArm,
    b: usize,
    s: usize,
    w: usize,
    v: &[f64],
    t: &[f64],
    c: &mut [f64],
    n: usize,
    trans: Trans,
) {
    // Pack V (local rows 0..b−s, unit diagonal at row r) and Vᵀ.
    let mrows = b - s;
    let mut vp = vec![0.0; mrows * w];
    let mut vpt = vec![0.0; w * mrows];
    for r in 0..w {
        vp[r + r * mrows] = 1.0;
        vpt[r + r * w] = 1.0;
        for i in (s + r + 1)..b {
            let x = v[i + (s + r) * b];
            vp[(i - s) + r * mrows] = x;
            vpt[r + (i - s) * w] = x;
        }
    }
    // W = Vᵀ·C; W := op(T)·W; C −= V·W.
    let mut wbuf = vec![0.0; w * n];
    gemm_core(arm, w, n, mrows, 1.0, &vpt, w, MaskA::Upper(0), c, b, 0.0, &mut wbuf, w);
    apply_t_panel(arm, b, t, s, w, n, &mut wbuf, trans);
    gemm_core(arm, mrows, n, w, -1.0, &vp, mrows, MaskA::Lower(0), &wbuf, w, 1.0, c, b);
}

/// `[A1; A2] := op(I − V̂·T_p·V̂ᵀ)·[A1; A2]` for the stacked reflector panel
/// in columns `s..s+w` of `v2` (V̂ = [I; V2]), over an `n`-column block of
/// `a1` (rows `s..s+w` are touched) and `a2`, both with leading dimension
/// `b`. With `tri` (TT), column `s+r` of V2 has rows `0..=s+r` active and
/// the strict lower triangle of `v2` is never read.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_stacked_panel(
    arm: SimdArm,
    b: usize,
    s: usize,
    w: usize,
    v2: &[f64],
    t: &[f64],
    a1: &mut [f64],
    a2: &mut [f64],
    n: usize,
    trans: Trans,
    tri: bool,
) {
    // Rows of A2 the panel can touch: with triangular support the panel's
    // widest column reaches row s+w−1.
    let keff = if tri { s + w } else { b };
    let mut vp = vec![0.0; keff * w];
    let mut vpt = vec![0.0; w * keff];
    for r in 0..w {
        let sup = if tri { s + r + 1 } else { keff };
        for i in 0..sup {
            let x = v2[i + (s + r) * b];
            vp[i + r * keff] = x;
            vpt[r + i * w] = x;
        }
    }
    // TT: Vᵀ[r, i] and V[i, r] are nonzero iff i <= r + s.
    let (mask_vt, mask_v) =
        if tri { (MaskA::Lower(s), MaskA::Upper(s)) } else { (MaskA::Full, MaskA::Full) };
    // W = A1[s..s+w, :] + Vᵀ·A2[0..keff, :].
    let mut wbuf = Vec::with_capacity(w * n);
    for col in 0..n {
        wbuf.extend_from_slice(&a1[s + col * b..s + w + col * b]);
    }
    gemm_core(arm, w, n, keff, 1.0, &vpt, w, mask_vt, a2, b, 1.0, &mut wbuf, w);
    apply_t_panel(arm, b, t, s, w, n, &mut wbuf, trans);
    // A1[s..s+w, :] −= W; A2[0..keff, :] −= V·W.
    for (col, wcol) in wbuf.chunks_exact(w).enumerate() {
        for (x, wv) in a1[s + col * b..s + w + col * b].iter_mut().zip(wcol) {
            *x -= wv;
        }
    }
    gemm_core(arm, keff, n, w, -1.0, &vp, keff, mask_v, &wbuf, w, 1.0, a2, b);
}

/// Panels in application order: forward for `Trans`, reversed for
/// `NoTrans` (Q = Q_1·Q_2·…, so Q·C applies the last panel first).
fn ordered_panels(b: usize, ib: usize, trans: Trans) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> = panels(b, ib).collect();
    if trans == Trans::NoTrans {
        order.reverse();
    }
    order
}

/// Apply op(Q) of a [`crate::geqrt_ib`] factorization with the same `ib`
/// to a tile `c` (PLASMA `CORE_dormqr`, left side).
///
/// `v` is the factored tile (V in its strict lower triangle, unit diagonal
/// implicit; its upper triangle — R — is ignored), `t` the T factors.
pub fn unmqr_ib(b: usize, ib: usize, v: &[f64], t: &[f64], c: &mut [f64], trans: Trans) {
    check_tile(b, v);
    check_tile(b, t);
    check_tile(b, c);
    check_ib(b, ib);
    let arm = simd_arm();
    for (s, e) in ordered_panels(b, ib, trans) {
        apply_unit_lower_panel(arm, b, s, e - s, v, t, &mut c[s..], b, trans);
    }
}

/// Shared TSMQR/TTMQR: apply op(Q) of a stacked factorization to the tile
/// pair `[A1; A2]`; `tri` mirrors the factor kernel's structure flag.
#[allow(clippy::too_many_arguments)]
fn stacked_mqr_ib(
    b: usize,
    ib: usize,
    v2: &[f64],
    t: &[f64],
    a1: &mut [f64],
    a2: &mut [f64],
    trans: Trans,
    tri: bool,
) {
    check_tile(b, v2);
    check_tile(b, t);
    check_tile(b, a1);
    check_tile(b, a2);
    check_ib(b, ib);
    let arm = simd_arm();
    for (s, e) in ordered_panels(b, ib, trans) {
        apply_stacked_panel(arm, b, s, e - s, v2, t, a1, a2, b, trans, tri);
    }
}

/// Apply op(Q) of a [`crate::tsqrt_ib`] with the same `ib` to the stacked
/// tile pair `[A1; A2]` (PLASMA `CORE_dtsmqr`). `v2` is the square V block
/// stored by TSQRT.
pub fn tsmqr_ib(
    b: usize,
    ib: usize,
    v2: &[f64],
    t: &[f64],
    a1: &mut [f64],
    a2: &mut [f64],
    trans: Trans,
) {
    stacked_mqr_ib(b, ib, v2, t, a1, a2, trans, false);
}

/// Apply op(Q) of a [`crate::ttqrt_ib`] with the same `ib` to the stacked
/// tile pair `[A1; A2]` (PLASMA `CORE_dttmqr`). `v2` is upper triangular;
/// only its upper part is read, which is what makes TTMQR weight 6 versus
/// TSMQR's 12.
pub fn ttmqr_ib(
    b: usize,
    ib: usize,
    v2: &[f64],
    t: &[f64],
    a1: &mut [f64],
    a2: &mut [f64],
    trans: Trans,
) {
    stacked_mqr_ib(b, ib, v2, t, a1, a2, trans, true);
}

/// [`unmqr_ib`] with one panel (`ib = b`).
pub fn unmqr(b: usize, v: &[f64], t: &[f64], c: &mut [f64], trans: Trans) {
    unmqr_ib(b, b, v, t, c, trans);
}

/// [`tsmqr_ib`] with one panel (`ib = b`).
pub fn tsmqr(b: usize, v2: &[f64], t: &[f64], a1: &mut [f64], a2: &mut [f64], trans: Trans) {
    tsmqr_ib(b, b, v2, t, a1, a2, trans);
}

/// [`ttmqr_ib`] with one panel (`ib = b`).
pub fn ttmqr(b: usize, v2: &[f64], t: &[f64], a1: &mut [f64], a2: &mut [f64], trans: Trans) {
    ttmqr_ib(b, b, v2, t, a1, a2, trans);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{geqrt, tsqrt, ttqrt, ttqrt_ib};
    use hqr_tile::DenseMatrix;

    const B: usize = 6;

    fn tile_random(seed: u64) -> Vec<f64> {
        DenseMatrix::random(B, B, seed).data().to_vec()
    }

    fn upper(a: &[f64]) -> Vec<f64> {
        let mut u = vec![0.0; B * B];
        for j in 0..B {
            for i in 0..=j {
                u[i + j * B] = a[i + j * B];
            }
        }
        u
    }

    fn norm(a: &[f64]) -> f64 {
        a.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    #[test]
    fn unmqr_q_then_qt_roundtrips() {
        let mut v = tile_random(21);
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut v, &mut t);
        let c0 = tile_random(22);
        let mut c = c0.clone();
        unmqr(B, &v, &t, &mut c, Trans::Trans);
        unmqr(B, &v, &t, &mut c, Trans::NoTrans);
        let d: Vec<f64> = c.iter().zip(&c0).map(|(a, b)| a - b).collect();
        assert!(norm(&d) < 1e-12, "Q·Qᵀ·C != C, err {}", norm(&d));
    }

    #[test]
    fn unmqr_preserves_frobenius_norm() {
        let mut v = tile_random(23);
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut v, &mut t);
        let mut c = tile_random(24);
        let before = norm(&c);
        unmqr(B, &v, &t, &mut c, Trans::Trans);
        assert!((norm(&c) - before).abs() < 1e-12, "orthogonal transforms preserve norms");
    }

    #[test]
    fn unmqr_ignores_upper_triangle_of_v() {
        let mut v = tile_random(40);
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut v, &mut t);
        let mut v_poison = v.clone();
        for j in 0..B {
            for i in 0..=j {
                v_poison[i + j * B] = f64::NAN;
            }
        }
        let c0 = tile_random(41);
        let (mut c, mut cp) = (c0.clone(), c0);
        unmqr(B, &v, &t, &mut c, Trans::Trans);
        unmqr(B, &v_poison, &t, &mut cp, Trans::Trans);
        assert_eq!(c, cp);
    }

    #[test]
    fn tsmqr_roundtrip_and_isometry() {
        let mut a1 = upper(&tile_random(25));
        let mut a2 = tile_random(26);
        let mut t = vec![0.0; B * B];
        tsqrt(B, &mut a1, &mut a2, &mut t);
        let c1_0 = tile_random(27);
        let c2_0 = tile_random(28);
        let (mut c1, mut c2) = (c1_0.clone(), c2_0.clone());
        let before = (norm(&c1).powi(2) + norm(&c2).powi(2)).sqrt();
        tsmqr(B, &a2, &t, &mut c1, &mut c2, Trans::Trans);
        let after = (norm(&c1).powi(2) + norm(&c2).powi(2)).sqrt();
        assert!((before - after).abs() < 1e-12, "stacked isometry");
        tsmqr(B, &a2, &t, &mut c1, &mut c2, Trans::NoTrans);
        let d1: Vec<f64> = c1.iter().zip(&c1_0).map(|(a, b)| a - b).collect();
        let d2: Vec<f64> = c2.iter().zip(&c2_0).map(|(a, b)| a - b).collect();
        assert!(norm(&d1) < 1e-12 && norm(&d2) < 1e-12);
    }

    #[test]
    fn ttmqr_roundtrip() {
        let mut a1 = upper(&tile_random(29));
        let mut a2 = upper(&tile_random(30));
        let mut t = vec![0.0; B * B];
        ttqrt(B, &mut a1, &mut a2, &mut t);
        let c1_0 = tile_random(31);
        let c2_0 = tile_random(32);
        let (mut c1, mut c2) = (c1_0.clone(), c2_0.clone());
        ttmqr(B, &a2, &t, &mut c1, &mut c2, Trans::Trans);
        ttmqr(B, &a2, &t, &mut c1, &mut c2, Trans::NoTrans);
        let d1: Vec<f64> = c1.iter().zip(&c1_0).map(|(a, b)| a - b).collect();
        let d2: Vec<f64> = c2.iter().zip(&c2_0).map(|(a, b)| a - b).collect();
        assert!(norm(&d1) < 1e-12 && norm(&d2) < 1e-12);
    }

    #[test]
    fn ttmqr_ignores_strict_lower_of_v2() {
        let mut a1 = upper(&tile_random(33));
        let mut a2 = upper(&tile_random(34));
        let mut t = vec![0.0; B * B];
        ttqrt(B, &mut a1, &mut a2, &mut t);
        let mut c1 = tile_random(35);
        let mut c2 = tile_random(36);
        let (mut c1p, mut c2p) = (c1.clone(), c2.clone());
        // Poisoned V2 lower triangle must not change the result.
        let mut v2_poison = a2.clone();
        for j in 0..B {
            for i in (j + 1)..B {
                v2_poison[i + j * B] = f64::NAN;
            }
        }
        ttmqr(B, &a2, &t, &mut c1, &mut c2, Trans::Trans);
        ttmqr(B, &v2_poison, &t, &mut c1p, &mut c2p, Trans::Trans);
        assert_eq!(c1, c1p);
        assert_eq!(c2, c2p);
    }

    #[test]
    fn tt_kernels_never_touch_the_dead_lower_triangle_at_any_ib() {
        // Wide enough that the factor kernel's panels recurse (base 8).
        const N: usize = 20;
        let tile = |seed| DenseMatrix::random(N, N, seed).data().to_vec();
        let upper_n = |a: &[f64]| {
            let mut u = vec![0.0; N * N];
            for j in 0..N {
                u[j * N..j * N + j + 1].copy_from_slice(&a[j * N..j * N + j + 1]);
            }
            u
        };
        let poison = |a: &mut [f64]| {
            for j in 0..N {
                a[j * N + j + 1..(j + 1) * N].fill(f64::NAN);
            }
        };
        let (r1, r2) = (upper_n(&tile(50)), upper_n(&tile(51)));
        let (c1_0, c2_0) = (tile(52), tile(53));
        for ib in [1, 3, N / 2, N] {
            // The factor kernel neither reads nor writes A2's NaN triangle.
            let (mut a1, mut a2, mut t) = (r1.clone(), r2.clone(), vec![0.0; N * N]);
            poison(&mut a2);
            ttqrt_ib(N, ib, &mut a1, &mut a2, &mut t);
            for j in 0..N {
                assert!(a2[j * N + j + 1..(j + 1) * N].iter().all(|x| x.is_nan()), "ib={ib}");
                assert!(a1[j * N..j * N + j + 1].iter().all(|x| x.is_finite()), "ib={ib}");
            }
            // The update kernel gives the same bits with V2's dead
            // triangle poisoned or zeroed, and Q·Qᵀ round-trips.
            let clean = upper_n(&a2);
            let (mut c1, mut c2) = (c1_0.clone(), c2_0.clone());
            let (mut p1, mut p2) = (c1_0.clone(), c2_0.clone());
            ttmqr_ib(N, ib, &clean, &t, &mut c1, &mut c2, Trans::Trans);
            ttmqr_ib(N, ib, &a2, &t, &mut p1, &mut p2, Trans::Trans);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!((bits(&c1), bits(&c2)), (bits(&p1), bits(&p2)), "ib={ib}");
            ttmqr_ib(N, ib, &a2, &t, &mut p1, &mut p2, Trans::NoTrans);
            let d1: Vec<f64> = p1.iter().zip(&c1_0).map(|(a, b)| a - b).collect();
            let d2: Vec<f64> = p2.iter().zip(&c2_0).map(|(a, b)| a - b).collect();
            assert!(norm(&d1) < 1e-12 && norm(&d2) < 1e-12, "ib={ib}");
        }
    }

    #[test]
    fn unmqr_identity_v_is_noop_when_tau_zero() {
        // geqrt of the identity produces tau=0 reflectors -> Q = I.
        let mut v = vec![0.0; B * B];
        for d in 0..B {
            v[d + d * B] = 1.0;
        }
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut v, &mut t);
        let c0 = tile_random(37);
        let mut c = c0.clone();
        unmqr(B, &v, &t, &mut c, Trans::Trans);
        let d: Vec<f64> = c.iter().zip(&c0).map(|(a, b)| a - b).collect();
        // Q may only flip signs it introduced; for identity input tau=0 so no-op.
        assert!(norm(&d) < 1e-13);
    }
}
