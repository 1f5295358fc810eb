//! Factorization kernels: GEQRT, TSQRT, TTQRT.
//!
//! Each factors the tile in column panels of width `ib` (PLASMA's inner
//! block size) and applies each panel's block reflector to the trailing
//! columns through the shared gemm core ([`crate::apply`]). `ib = b` is
//! the one-panel case with no trailing apply.
//!
//! A panel is factored recursively, as in Elmroth–Gustavson and LAPACK
//! `dgeqrt3`: split its columns in half, factor the left half, apply its
//! reflectors to the right half, factor the right half, and merge the two
//! T factors with T₁₂ = −T₁·(V₁ᵀV₂)·T₂. The apply and the merge are
//! gemm-core calls; only panels of at most [`BASE`] columns run the
//! level-2 column loop. The recursion depends on `(b, ib)` alone, so the
//! output is bitwise deterministic on each dispatch arm, and a panel no
//! wider than [`BASE`] gives exactly the bits of the plain column loop.

use crate::apply::{apply_stacked_panel, apply_unit_lower_panel};
use crate::larfg::larfg;
use crate::micro::{gemm_core, simd_arm, MaskA, SimdArm};
use crate::{check_ib, check_tile, panels, Trans};

/// Widest panel the level-2 column loop factors; wider panels recurse.
/// Chosen from single-core kernel rates at b from 16 to 200 (DESIGN.md,
/// "Factor kernels: a recursive panel").
const BASE: usize = 8;

/// QR factorization of a square `b × b` tile (PLASMA `CORE_dgeqrt`) with
/// inner block size `ib`.
///
/// On exit, `a` holds R in its upper triangle (diagonal included) and the
/// Householder vectors V in its strict lower triangle (unit diagonal
/// implicit); `t` holds the T factors of the panels, such that
/// Q = Π (I − V_p·T_p·V_pᵀ) and A = Q·R. The T factor of the panel at
/// columns `s..s+w` is the `w × w` upper triangle at rows `0..w`, columns
/// `s..s+w` of `t`; for `ib = b` that is the whole T, τ on its diagonal.
pub fn geqrt_ib(b: usize, ib: usize, a: &mut [f64], t: &mut [f64]) {
    check_tile(b, a);
    check_tile(b, t);
    check_ib(b, ib);
    t.fill(0.0);
    let arm = simd_arm();
    for (s, e) in panels(b, ib) {
        geqrt_panel(arm, b, s, e - s, a, t);
        if e < b {
            let (v, trail) = a.split_at_mut(e * b);
            apply_unit_lower_panel(arm, b, s, e - s, v, t, &mut trail[s..], b - e, Trans::Trans);
        }
    }
}

/// Factor the panel at columns `s..s+w` of `a` (rows `s..b`) and build
/// its T factor. `t` is addressed relative to the panel: T[i, c] is
/// `t[i + (s + c)·b]`, so a sub-panel passes `&mut t[offset..]`.
fn geqrt_panel(arm: SimdArm, b: usize, s: usize, w: usize, a: &mut [f64], t: &mut [f64]) {
    if w <= BASE {
        geqrt_columns(b, s, s + w, a, t);
        return;
    }
    let (w1, w2) = (w / 2, w - w / 2);
    let c = s + w1;
    geqrt_panel(arm, b, s, w1, a, t);
    let (v, right) = a.split_at_mut(c * b);
    apply_unit_lower_panel(arm, b, s, w1, v, t, &mut right[s..], w2, Trans::Trans);
    geqrt_panel(arm, b, c, w2, a, &mut t[w1..]);
    // Z = V₁ᵀ·V₂ over rows c..b, the only rows where V₂ is nonzero.
    let m = b - c;
    let mut v1t = vec![0.0; w1 * m];
    let mut v2 = vec![0.0; m * w2];
    for r in 0..w1 {
        for i in 0..m {
            v1t[r + i * w1] = a[c + i + (s + r) * b];
        }
    }
    for col in 0..w2 {
        v2[col + col * m] = 1.0;
        let src = c + (c + col) * b;
        v2[col + 1 + col * m..(col + 1) * m].copy_from_slice(&a[src + col + 1..src + m]);
    }
    let mut z = vec![0.0; w1 * w2];
    gemm_core(arm, w1, w2, m, 1.0, &v1t, w1, MaskA::Full, &v2, m, 0.0, &mut z, w1);
    merge_t(arm, b, s, w1, w2, &z, t);
}

/// The level-2 base case: reduce columns `s..e` one reflector at a time,
/// updating the panel's later columns and T column by column.
fn geqrt_columns(b: usize, s: usize, e: usize, a: &mut [f64], t: &mut [f64]) {
    for j in s..e {
        let cj = j * b;
        // Generate the reflector annihilating a[j+1.., j].
        let (beta, tau) = {
            let alpha = a[cj + j];
            let (_, tail) = a.split_at_mut(cj + j + 1);
            larfg(alpha, &mut tail[..b - j - 1])
        };
        a[cj + j] = beta;
        // Apply H_j = I − τ v vᵀ to the panel's later columns.
        for l in (j + 1)..e {
            let cl = l * b;
            let mut wv = a[cl + j];
            for i in (j + 1)..b {
                wv += a[cj + i] * a[cl + i];
            }
            wv *= tau;
            a[cl + j] -= wv;
            for i in (j + 1)..b {
                a[cl + i] -= wv * a[cj + i];
            }
        }
        // T_p(0..jj, jj) = −τ·T_p·(Vᵀ v_j) with jj = j − s.
        let jj = j - s;
        for i in 0..jj {
            let ci = (s + i) * b;
            let mut z = a[ci + j];
            for r in (j + 1)..b {
                z += a[ci + r] * a[cj + r];
            }
            t[i + cj] = z;
        }
        // In-place upper-triangular matvec; ascending i only
        // overwrites entries later iterations never read.
        for i in 0..jj {
            let mut y = 0.0;
            for r in i..jj {
                y += t[i + (s + r) * b] * t[r + cj];
            }
            t[i + cj] = -tau * y;
        }
        t[jj + cj] = tau;
    }
}

/// Merge the T factors of two adjacent reflector blocks — T₁ for the
/// `w1` columns from `s`, T₂ for the next `w2` — given `z = V₁ᵀ·V₂`
/// (`w1 × w2`): T₁₂ := −T₁·Z·T₂. `t` is addressed as in [`geqrt_panel`];
/// the strict lower triangles of T₁ and T₂ hold zeros.
fn merge_t(arm: SimdArm, b: usize, s: usize, w1: usize, w2: usize, z: &[f64], t: &mut [f64]) {
    let (left, right) = t.split_at_mut((s + w1) * b);
    let mut zt2 = vec![0.0; w1 * w2];
    gemm_core(arm, w1, w2, w2, 1.0, z, w1, MaskA::Full, &right[w1..], b, 0.0, &mut zt2, w1);
    gemm_core(arm, w1, w2, w1, -1.0, &left[s * b..], b, MaskA::Upper(0), &zt2, w1, 0.0, right, b);
}

/// Shared TSQRT/TTQRT: QR of a triangle stacked on a second tile. `tri`
/// selects the bottom tile's structure: `false` for a full square (TS),
/// `true` for an upper triangle (TT), in which case column `j` of the
/// bottom tile only has rows `0..=j` active — the source of the 3× flop
/// saving of TT kernels.
fn stacked_qrt_ib(b: usize, ib: usize, a1: &mut [f64], a2: &mut [f64], t: &mut [f64], tri: bool) {
    check_tile(b, a1);
    check_tile(b, a2);
    check_tile(b, t);
    check_ib(b, ib);
    t.fill(0.0);
    let arm = simd_arm();
    for (s, e) in panels(b, ib) {
        stacked_panel(arm, b, s, e - s, a1, a2, t, tri);
        if e < b {
            let (v2, a2t) = a2.split_at_mut(e * b);
            let a1t = &mut a1[e * b..];
            apply_stacked_panel(arm, b, s, e - s, v2, t, a1t, a2t, b - e, Trans::Trans, tri);
        }
    }
}

/// [`geqrt_panel`] for the stacked family: factor columns `s..s+w` of
/// `[A1; A2]`, `t` addressed relative to the panel.
#[allow(clippy::too_many_arguments)]
fn stacked_panel(
    arm: SimdArm,
    b: usize,
    s: usize,
    w: usize,
    a1: &mut [f64],
    a2: &mut [f64],
    t: &mut [f64],
    tri: bool,
) {
    if w <= BASE {
        stacked_columns(b, s, s + w, a1, a2, t, tri);
        return;
    }
    let (w1, w2) = (w / 2, w - w / 2);
    let c = s + w1;
    stacked_panel(arm, b, s, w1, a1, a2, t, tri);
    let (v2, a2r) = a2.split_at_mut(c * b);
    apply_stacked_panel(arm, b, s, w1, v2, t, &mut a1[c * b..], a2r, w2, Trans::Trans, tri);
    stacked_panel(arm, b, c, w2, a1, a2, &mut t[w1..], tri);
    // The identity tops of V̂₁ and V̂₂ are disjoint, so V̂₁ᵀV̂₂ = V2₁ᵀ·V2₂.
    // With TT, column s+r of V2₁ lives in rows 0..=s+r, and all of those
    // rows are live in V2₂.
    let (k, mask) = if tri { (c, MaskA::Lower(s)) } else { (b, MaskA::Full) };
    let mut v1t = vec![0.0; w1 * k];
    for r in 0..w1 {
        let sup = if tri { s + r + 1 } else { k };
        for i in 0..sup {
            v1t[r + i * w1] = a2[i + (s + r) * b];
        }
    }
    let mut z = vec![0.0; w1 * w2];
    gemm_core(arm, w1, w2, k, 1.0, &v1t, w1, mask, &a2[c * b..], b, 0.0, &mut z, w1);
    merge_t(arm, b, s, w1, w2, &z, t);
}

/// The level-2 base case of [`stacked_panel`].
fn stacked_columns(
    b: usize,
    s: usize,
    e: usize,
    a1: &mut [f64],
    a2: &mut [f64],
    t: &mut [f64],
    tri: bool,
) {
    let support = |col: usize| if tri { col + 1 } else { b };
    for j in s..e {
        let cj = j * b;
        let blen = support(j);
        // Reflector on [a1[j,j]; a2[0..blen, j]]: the top part of v is
        // e_j because rows below j of the stacked triangle are zero.
        let (beta, tau) = larfg(a1[j + cj], &mut a2[cj..cj + blen]);
        a1[j + cj] = beta;
        for l in (j + 1)..e {
            let cl = l * b;
            let mut wv = a1[j + cl];
            for i in 0..blen {
                wv += a2[cj + i] * a2[cl + i];
            }
            wv *= tau;
            a1[j + cl] -= wv;
            for i in 0..blen {
                a2[cl + i] -= wv * a2[cj + i];
            }
        }
        // The top blocks of V̂ are disjoint unit vectors, so only the
        // bottom parts contribute: z_i = v2_iᵀ · v2_j.
        let jj = j - s;
        for i in 0..jj {
            let sup = support(s + i).min(blen);
            let ci = (s + i) * b;
            let mut z = 0.0;
            for r in 0..sup {
                z += a2[ci + r] * a2[cj + r];
            }
            t[i + cj] = z;
        }
        for i in 0..jj {
            let mut y = 0.0;
            for r in i..jj {
                y += t[i + (s + r) * b] * t[r + cj];
            }
            t[i + cj] = -tau * y;
        }
        t[jj + cj] = tau;
    }
}

/// TSQRT (PLASMA `CORE_dtsqrt`) with inner block size `ib`: QR of
/// `[A1; A2]` where `A1` is the upper triangle produced by a previous
/// GEQRT/TSQRT on the pivot row and `A2` is a full square tile of the
/// victim row.
///
/// On exit `A1` holds the updated R, `A2` holds the (full square) block of
/// Householder vectors V2, and `t` the panel T factors (laid out as in
/// [`geqrt_ib`]) for Q = I − V̂·T·V̂ᵀ with V̂ = [I; V2]. The strict lower
/// triangle of `A1` (which stores unrelated V data from GEQRT) is left
/// untouched.
pub fn tsqrt_ib(b: usize, ib: usize, a1: &mut [f64], a2: &mut [f64], t: &mut [f64]) {
    stacked_qrt_ib(b, ib, a1, a2, t, false);
}

/// TTQRT (PLASMA `CORE_dttqrt`) with inner block size `ib`: QR of
/// `[A1; A2]` where **both** tiles are upper triangular (two killers
/// meeting). `A2`'s strict lower triangle is preserved; V2 is upper
/// triangular, which is what makes this kernel cost weight 2 instead of
/// TSQRT's 6.
pub fn ttqrt_ib(b: usize, ib: usize, a1: &mut [f64], a2: &mut [f64], t: &mut [f64]) {
    stacked_qrt_ib(b, ib, a1, a2, t, true);
}

/// [`geqrt_ib`] with one panel (`ib = b`).
pub fn geqrt(b: usize, a: &mut [f64], t: &mut [f64]) {
    geqrt_ib(b, b, a, t);
}

/// [`tsqrt_ib`] with one panel (`ib = b`).
pub fn tsqrt(b: usize, a1: &mut [f64], a2: &mut [f64], t: &mut [f64]) {
    tsqrt_ib(b, b, a1, a2, t);
}

/// [`ttqrt_ib`] with one panel (`ib = b`).
pub fn ttqrt(b: usize, a1: &mut [f64], a2: &mut [f64], t: &mut [f64]) {
    ttqrt_ib(b, b, a1, a2, t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::{tsmqr, ttmqr, unmqr};
    use crate::reference::dense_householder_qr;
    use crate::Trans;
    use hqr_tile::DenseMatrix;

    const B: usize = 8;

    fn tile_random(b: usize, seed: u64) -> Vec<f64> {
        DenseMatrix::random(b, b, seed).data().to_vec()
    }

    fn tile_identity(b: usize) -> Vec<f64> {
        let mut t = vec![0.0; b * b];
        for d in 0..b {
            t[d + d * b] = 1.0;
        }
        t
    }

    fn upper_of(b: usize, a: &[f64]) -> DenseMatrix {
        let mut u = DenseMatrix::zeros(b, b);
        for j in 0..b {
            for i in 0..=j {
                u.set(i, j, a[i + j * b]);
            }
        }
        u
    }

    /// |R1| == |R2| entrywise (QR unique up to diagonal signs).
    fn assert_same_r_up_to_signs(r1: &DenseMatrix, r2: &DenseMatrix, tol: f64) {
        assert_eq!(r1.rows(), r2.rows());
        for i in 0..r1.rows().min(r1.cols()) {
            let sign = if r1.get(i, i) * r2.get(i, i) >= 0.0 { 1.0 } else { -1.0 };
            for j in i..r1.cols() {
                let d = (r1.get(i, j) - sign * r2.get(i, j)).abs();
                assert!(d < tol, "R mismatch at ({i},{j}): {} vs {}", r1.get(i, j), r2.get(i, j));
            }
        }
    }

    #[test]
    fn geqrt_r_matches_dense_reference() {
        let a0 = tile_random(B, 1);
        let mut a = a0.clone();
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut a, &mut t);
        let r_tile = upper_of(B, &a);
        let dense = DenseMatrix::from_col_major(B, B, &a0);
        let (_, r_ref) = dense_householder_qr(&dense);
        assert_same_r_up_to_signs(&r_tile, &r_ref, 1e-12);
    }

    #[test]
    fn geqrt_q_is_orthogonal_and_reproduces_a() {
        let a0 = tile_random(B, 2);
        let mut a = a0.clone();
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut a, &mut t);
        // Q = unmqr(NoTrans) applied to identity.
        let mut q = tile_identity(B);
        unmqr(B, &a, &t, &mut q, Trans::NoTrans);
        let qm = DenseMatrix::from_col_major(B, B, &q);
        assert!(qm.orthogonality_error() < 1e-13, "Q not orthogonal");
        let qr = qm.matmul(&upper_of(B, &a));
        let a0m = DenseMatrix::from_col_major(B, B, &a0);
        assert!(a0m.sub(&qr).frob_norm() < 1e-13 * a0m.frob_norm().max(1.0));
    }

    #[test]
    fn geqrt_qt_times_a_equals_r() {
        let a0 = tile_random(B, 3);
        let mut a = a0.clone();
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut a, &mut t);
        let mut c = a0.clone();
        unmqr(B, &a, &t, &mut c, Trans::Trans);
        // Qᵀ·A should equal R: strict lower ~ 0, upper == stored R.
        let cm = DenseMatrix::from_col_major(B, B, &c);
        assert!(cm.max_abs_below_diagonal() < 1e-13);
        let diff = cm.upper_triangle().sub(&upper_of(B, &a));
        assert!(diff.frob_norm() < 1e-13);
    }

    #[test]
    fn geqrt_on_identity_is_trivial() {
        let mut a = tile_identity(B);
        let mut t = vec![0.0; B * B];
        geqrt(B, &mut a, &mut t);
        // R = I (possibly with sign flips), V = 0, so T diag in {0} (tau=0).
        for j in 0..B {
            for i in (j + 1)..B {
                assert_eq!(a[i + j * B], 0.0, "V must stay zero");
            }
            assert!((a[j + j * B].abs() - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn tsqrt_stacked_r_matches_dense_reference() {
        let top0 = tile_random(B, 4);
        let bot0 = tile_random(B, 5);
        // First triangularize the top.
        let mut top = top0.clone();
        let mut t_ge = vec![0.0; B * B];
        geqrt(B, &mut top, &mut t_ge);
        let r_top = upper_of(B, &top);
        // TSQRT of [R_top; bottom].
        let mut bot = bot0.clone();
        let mut t_ts = vec![0.0; B * B];
        let mut a1 = r_top.data().to_vec();
        tsqrt(B, &mut a1, &mut bot, &mut t_ts);
        // Reference: dense QR of the 2b×b stack [R_top; bot0].
        let mut stack = DenseMatrix::zeros(2 * B, B);
        for j in 0..B {
            for i in 0..B {
                stack.set(i, j, r_top.get(i, j));
                stack.set(B + i, j, bot0[i + j * B]);
            }
        }
        let (_, r_ref) = dense_householder_qr(&stack);
        let mut r_ref_sq = DenseMatrix::zeros(B, B);
        for j in 0..B {
            for i in 0..=j {
                r_ref_sq.set(i, j, r_ref.get(i, j));
            }
        }
        assert_same_r_up_to_signs(&upper_of(B, &a1), &r_ref_sq, 1e-12);
    }

    #[test]
    fn tsqrt_with_apply_reproduces_stack() {
        // Factor [R; A2], then verify Q·[Rnew; 0] == [R; A2] by applying
        // NoTrans to the stacked R.
        let mut a1 = upper_of(B, &tile_random(B, 6)).data().to_vec();
        let a1_orig = a1.clone();
        let a2_orig = tile_random(B, 7);
        let mut a2 = a2_orig.clone();
        let mut t = vec![0.0; B * B];
        tsqrt(B, &mut a1, &mut a2, &mut t);
        let mut c1 = upper_of(B, &a1).data().to_vec();
        let mut c2 = vec![0.0; B * B];
        tsmqr(B, &a2, &t, &mut c1, &mut c2, Trans::NoTrans);
        let d1 = DenseMatrix::from_col_major(B, B, &c1)
            .sub(&DenseMatrix::from_col_major(B, B, &a1_orig));
        let d2 = DenseMatrix::from_col_major(B, B, &c2)
            .sub(&DenseMatrix::from_col_major(B, B, &a2_orig));
        assert!(d1.frob_norm() < 1e-12, "top reconstruction off by {}", d1.frob_norm());
        assert!(d2.frob_norm() < 1e-12, "bottom reconstruction off by {}", d2.frob_norm());
    }

    #[test]
    fn tsqrt_annihilates_bottom_tile() {
        let mut a1 = upper_of(B, &tile_random(B, 8)).data().to_vec();
        let mut a2 = tile_random(B, 9);
        let a2_orig = a2.clone();
        let a1_orig = a1.clone();
        let mut t = vec![0.0; B * B];
        tsqrt(B, &mut a1, &mut a2, &mut t);
        // Apply Qᵀ to the original stack: bottom should vanish.
        let mut c1 = a1_orig;
        let mut c2 = a2_orig;
        tsmqr(B, &a2, &t, &mut c1, &mut c2, Trans::Trans);
        let bot_norm = c2.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(bot_norm < 1e-12, "bottom tile should be annihilated, norm={bot_norm}");
    }

    #[test]
    fn tsqrt_preserves_pivot_v_storage() {
        // The strict lower triangle of A1 (GEQRT's V) must be untouched.
        let mut a1 = tile_random(B, 10);
        let lower_before: Vec<f64> = (0..B)
            .flat_map(|j| ((j + 1)..B).map(move |i| (i, j)))
            .map(|(i, j)| a1[i + j * B])
            .collect();
        let mut a2 = tile_random(B, 11);
        let mut t = vec![0.0; B * B];
        tsqrt(B, &mut a1, &mut a2, &mut t);
        let lower_after: Vec<f64> = (0..B)
            .flat_map(|j| ((j + 1)..B).map(move |i| (i, j)))
            .map(|(i, j)| a1[i + j * B])
            .collect();
        assert_eq!(lower_before, lower_after);
    }

    #[test]
    fn ttqrt_keeps_v2_upper_triangular() {
        let mut a1 = upper_of(B, &tile_random(B, 12)).data().to_vec();
        let mut a2 = upper_of(B, &tile_random(B, 13)).data().to_vec();
        // Poison the strict lower of a2 to verify it is never read/written.
        for j in 0..B {
            for i in (j + 1)..B {
                a2[i + j * B] = 1e9;
            }
        }
        let mut t = vec![0.0; B * B];
        ttqrt(B, &mut a1, &mut a2, &mut t);
        for j in 0..B {
            for i in (j + 1)..B {
                assert_eq!(a2[i + j * B], 1e9, "strict lower of A2 must be preserved");
            }
        }
    }

    #[test]
    fn ttqrt_stacked_r_matches_dense_reference() {
        let r1 = upper_of(B, &tile_random(B, 14));
        let r2 = upper_of(B, &tile_random(B, 15));
        let mut a1 = r1.data().to_vec();
        let mut a2 = r2.data().to_vec();
        let mut t = vec![0.0; B * B];
        ttqrt(B, &mut a1, &mut a2, &mut t);
        let mut stack = DenseMatrix::zeros(2 * B, B);
        for j in 0..B {
            for i in 0..B {
                stack.set(i, j, r1.get(i, j));
                stack.set(B + i, j, r2.get(i, j));
            }
        }
        let (_, r_ref) = dense_householder_qr(&stack);
        let mut r_ref_sq = DenseMatrix::zeros(B, B);
        for j in 0..B {
            for i in 0..=j {
                r_ref_sq.set(i, j, r_ref.get(i, j));
            }
        }
        assert_same_r_up_to_signs(&upper_of(B, &a1), &r_ref_sq, 1e-12);
    }

    #[test]
    fn ttqrt_with_apply_reproduces_stack() {
        let r1 = upper_of(B, &tile_random(B, 16)).data().to_vec();
        let r2 = upper_of(B, &tile_random(B, 17)).data().to_vec();
        let mut a1 = r1.clone();
        let mut a2 = r2.clone();
        let mut t = vec![0.0; B * B];
        ttqrt(B, &mut a1, &mut a2, &mut t);
        let mut c1 = upper_of(B, &a1).data().to_vec();
        let mut c2 = vec![0.0; B * B];
        ttmqr(B, &a2, &t, &mut c1, &mut c2, Trans::NoTrans);
        let d1 =
            DenseMatrix::from_col_major(B, B, &c1).sub(&DenseMatrix::from_col_major(B, B, &r1));
        let d2 =
            DenseMatrix::from_col_major(B, B, &c2).sub(&DenseMatrix::from_col_major(B, B, &r2));
        assert!(d1.frob_norm() < 1e-12);
        assert!(d2.frob_norm() < 1e-12);
    }

    #[test]
    fn tsqrt_zero_bottom_is_identity_transform() {
        let r = upper_of(B, &tile_random(B, 18)).data().to_vec();
        let mut a1 = r.clone();
        let mut a2 = vec![0.0; B * B];
        let mut t = vec![0.0; B * B];
        tsqrt(B, &mut a1, &mut a2, &mut t);
        assert_eq!(a1, r, "R must be unchanged when the victim is zero");
        assert!(t.iter().enumerate().all(|(idx, &v)| v == 0.0 || idx % (B + 1) == 0));
    }

    #[test]
    fn kernels_handle_b_equals_one() {
        let mut a1 = vec![3.0];
        let mut a2 = vec![4.0];
        let mut t = vec![0.0];
        tsqrt(1, &mut a1, &mut a2, &mut t);
        assert!((a1[0].abs() - 5.0).abs() < 1e-14, "hypot(3,4)=5, got {}", a1[0]);
    }
}
