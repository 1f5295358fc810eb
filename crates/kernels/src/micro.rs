//! Register-blocked gemm microkernel with one-time SIMD dispatch.
//!
//! Every level-3 operation in this crate — the update kernels
//! (UNMQR/TSMQR/TTMQR), the trailing block-applies of the inner-blocked
//! factor kernels, and [`crate::blas::gemm`] — funnels into
//! [`gemm_core`]: `C := α·A·B + β·C` on column-major buffers with
//! explicit leading dimensions, where `A` may carry a triangular
//! structure mask so triangle-shaped operands (TT kernels, T factors,
//! unit-lower V blocks) keep their flop savings.
//!
//! Two arms implement the core:
//!
//! * **Scalar** — portable Rust, axpy-ordered (`j`-outer, `l`-middle,
//!   contiguous `i`-inner) so the compiler can autovectorize with
//!   baseline features. Always available; the fallback on every target.
//! * **Avx2** — `core::arch` AVX2+FMA intrinsics, an 8×4 register block
//!   (8 accumulator vectors) streaming columns of `A` against broadcast
//!   elements of `B`. Only compiled on x86-64 and only selected when the
//!   CPU reports both `avx2` and `fma`.
//!
//! The arm is chosen **once per process** ([`simd_arm`], a `OnceLock`):
//! runtime feature detection, overridable with `HQR_SIMD=off|scalar`
//! (force the portable arm) or `HQR_SIMD=avx2` (force the vector arm,
//! falling back with a warning if the CPU lacks it). Parity tests and
//! benches pin an arm for one closure with [`with_arm`]. A fixed arm plus
//! input-independent control flow (no data-dependent early-outs
//! anywhere in the core) makes every kernel bitwise deterministic
//! run-to-run on the same machine — the property the checkpoint-resume
//! and multi-job solo-parity suites rely on. The two arms agree only up
//! to rounding (FMA contracts the multiply-add), which is why
//! cross-arm tests are tolerance-based while same-arm tests are exact.

use std::cell::Cell;
use std::sync::OnceLock;

/// A dispatch arm of the microkernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdArm {
    /// Portable Rust loops (autovectorizable, no target features).
    Scalar,
    /// AVX2 + FMA intrinsics (x86-64 only, runtime-detected).
    Avx2,
}

impl SimdArm {
    /// Short stable name, e.g. for bench metadata: `"scalar"` / `"avx2"`.
    pub fn name(self) -> &'static str {
        match self {
            SimdArm::Scalar => "scalar",
            SimdArm::Avx2 => "avx2",
        }
    }
}

/// The arm the hardware supports (ignoring `HQR_SIMD`).
pub fn simd_detected() -> SimdArm {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdArm::Avx2;
        }
    }
    SimdArm::Scalar
}

fn resolve_arm() -> (SimdArm, &'static str) {
    let detected = simd_detected();
    match std::env::var("HQR_SIMD").ok().as_deref() {
        None => (detected, "runtime-detected"),
        Some("off") | Some("scalar") | Some("0") => (SimdArm::Scalar, "forced via HQR_SIMD"),
        Some("avx2") | Some("on") | Some("1") => {
            if detected == SimdArm::Avx2 {
                (SimdArm::Avx2, "forced via HQR_SIMD")
            } else {
                eprintln!("HQR_SIMD requested avx2 but the CPU lacks avx2+fma; using scalar");
                (SimdArm::Scalar, "avx2 unavailable, fell back to scalar")
            }
        }
        Some(other) => {
            eprintln!("unknown HQR_SIMD value `{other}` (use off|scalar|avx2); auto-detecting");
            (detected, "runtime-detected")
        }
    }
}

fn dispatch() -> &'static (SimdArm, &'static str) {
    static ARM: OnceLock<(SimdArm, &'static str)> = OnceLock::new();
    ARM.get_or_init(resolve_arm)
}

thread_local! {
    static PINNED: Cell<Option<SimdArm>> = const { Cell::new(None) };
}

/// The arm every public kernel entry point uses: the one selected once at
/// startup, unless [`with_arm`] pins another on this thread.
pub fn simd_arm() -> SimdArm {
    PINNED.with(Cell::get).unwrap_or_else(|| dispatch().0)
}

/// Run `f` with every kernel call on this thread dispatched to `arm`
/// (parity tests and benches); the previous arm is restored afterwards,
/// also on unwind.
///
/// # Panics
/// If `arm` is [`SimdArm::Avx2`] and the CPU lacks avx2+fma.
pub fn with_arm<R>(arm: SimdArm, f: impl FnOnce() -> R) -> R {
    assert!(
        arm == SimdArm::Scalar || simd_detected() == arm,
        "with_arm: the CPU does not support the {} arm",
        arm.name()
    );
    struct Restore(Option<SimdArm>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(PINNED.with(|p| p.replace(Some(arm))));
    f()
}

/// Human-readable dispatch description, e.g. `"avx2 (runtime-detected)"`.
pub fn simd_description() -> String {
    let (arm, how) = dispatch();
    format!("{} ({how})", arm.name())
}

/// Structure of the `A` operand: which `(i, l)` entries may be nonzero.
/// Masked-out entries are never read by the scalar arm and are read but
/// guaranteed zero (callers pack-clean their buffers) by the block-granular
/// AVX2 arm, so both arms skip the corresponding flops. The triangular
/// masks carry a diagonal offset `o`; `0` is the plain triangle, and a TT
/// reflector panel starting at tile column `o` has Vᵀ `Lower(o)` and V
/// `Upper(o)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MaskA {
    /// Dense m×k operand.
    Full,
    /// Lower triangular shifted right by `o`: nonzero iff `l <= i + o`.
    Lower(usize),
    /// Upper triangular shifted down by `o`: nonzero iff `i <= l + o`.
    Upper(usize),
}

impl MaskA {
    /// Column range of `A` that can touch rows `[i0, i1)`, intersected
    /// with `[0, k)`.
    #[inline]
    fn k_range(self, i0: usize, i1: usize, k: usize) -> (usize, usize) {
        match self {
            MaskA::Full => (0, k),
            // Columns 0..=max_i + o.
            MaskA::Lower(o) => (0, (i1 + o).min(k)),
            // Columns min_i − o onward.
            MaskA::Upper(o) => (i0.saturating_sub(o).min(k), k),
        }
    }

    /// Rows of column `l` of an `m`-row `A` that can be nonzero.
    #[inline]
    fn i_range(self, l: usize, m: usize) -> (usize, usize) {
        match self {
            MaskA::Full => (0, m),
            MaskA::Lower(o) => (l.saturating_sub(o).min(m), m),
            MaskA::Upper(o) => (0, (l + o + 1).min(m)),
        }
    }
}

/// `C := α·A·B + β·C` where `A` is `m × k` (leading dimension `lda`,
/// structure `mask`), `B` is `k × n` (`ldb`), `C` is `m × n` (`ldc`), all
/// column-major. `β == 0` overwrites `C` without reading it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_core(
    arm: SimdArm,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    mask: MaskA,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    debug_assert!(lda >= m && ldc >= m && (k == 0 || ldb >= k));
    match arm {
        SimdArm::Scalar => gemm_scalar(m, n, k, alpha, a, lda, mask, b, ldb, beta, c, ldc),
        SimdArm::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the Avx2 arm is only ever selected when runtime
            // detection confirmed avx2+fma (see `resolve_arm` and the
            // assert in `with_arm`).
            unsafe {
                avx2::gemm(m, n, k, alpha, a, lda, mask, b, ldb, beta, c, ldc)
            }
            #[cfg(not(target_arch = "x86_64"))]
            gemm_scalar(m, n, k, alpha, a, lda, mask, b, ldb, beta, c, ldc)
        }
    }
}

/// Portable arm: axpy ordering keeps the inner loop contiguous in `i`,
/// and the mask trims each `A` column to its exact nonzero row range.
#[allow(clippy::too_many_arguments)]
fn gemm_scalar(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    mask: MaskA,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    for j in 0..n {
        let cj = j * ldc;
        let ccol = &mut c[cj..cj + m];
        if beta == 0.0 {
            ccol.fill(0.0);
        } else if beta != 1.0 {
            for v in ccol.iter_mut() {
                *v *= beta;
            }
        }
        for l in 0..k {
            let blj = alpha * b[l + j * ldb];
            let (i0, i1) = mask.i_range(l, m);
            let al = &a[l * lda..l * lda + m];
            for i in i0..i1 {
                ccol[i] += blj * al[i];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::MaskA;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    /// Microkernel: `C[0..4·MV, 0..NR] = α·(A·B) + β·C` over `kk` terms,
    /// accumulating the full block in `MV × NR` vector registers.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn mk<const MV: usize, const NR: usize>(
        kk: usize,
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        alpha: f64,
        beta: f64,
        c: *mut f64,
        ldc: usize,
    ) {
        let mut acc = [[_mm256_setzero_pd(); MV]; NR];
        for l in 0..kk {
            let ap = a.add(l * lda);
            let av: [__m256d; MV] = core::array::from_fn(|v| _mm256_loadu_pd(ap.add(4 * v)));
            for (j, accj) in acc.iter_mut().enumerate() {
                let bv = _mm256_set1_pd(*b.add(l + j * ldb));
                for (avv, accv) in av.iter().zip(accj.iter_mut()) {
                    *accv = _mm256_fmadd_pd(*avv, bv, *accv);
                }
            }
        }
        let va = _mm256_set1_pd(alpha);
        for (j, accj) in acc.iter().enumerate() {
            let cp = c.add(j * ldc);
            for (v, accv) in accj.iter().enumerate() {
                let mut r = _mm256_mul_pd(*accv, va);
                if beta == 1.0 {
                    r = _mm256_add_pd(r, _mm256_loadu_pd(cp.add(4 * v)));
                } else if beta != 0.0 {
                    r = _mm256_fmadd_pd(_mm256_loadu_pd(cp.add(4 * v)), _mm256_set1_pd(beta), r);
                }
                _mm256_storeu_pd(cp.add(4 * v), r);
            }
        }
    }

    /// Scalar cleanup for row tails narrower than one vector.
    #[allow(clippy::too_many_arguments)]
    unsafe fn tail_rows(
        rows: usize,
        nr: usize,
        kk: usize,
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        alpha: f64,
        beta: f64,
        c: *mut f64,
        ldc: usize,
    ) {
        for j in 0..nr {
            for i in 0..rows {
                let mut s = 0.0;
                for l in 0..kk {
                    s += *a.add(i + l * lda) * *b.add(l + j * ldb);
                }
                let cp = c.add(i + j * ldc);
                let prev = if beta == 0.0 { 0.0 } else { beta * *cp };
                *cp = prev + alpha * s;
            }
        }
    }

    /// Blocked driver for the AVX2 arm. The mask trims the `k` range per
    /// 8-row block; diagonal-crossing blocks rely on callers packing
    /// zeros into the masked-out triangle.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        mask: MaskA,
        b: &[f64],
        ldb: usize,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut j = 0;
        while j < n {
            let nr = (n - j).min(4);
            let mut i = 0;
            while i < m {
                let mr = (m - i).min(8);
                let (klo, khi) = mask.k_range(i, i + mr, k);
                let kk = khi - klo;
                let ab = ap.add(i + klo * lda);
                let bb = bp.add(klo + j * ldb);
                let cb = cp.add(i + j * ldc);
                match (mr >= 8, mr >= 4, nr) {
                    (true, _, 4) => mk::<2, 4>(kk, ab, lda, bb, ldb, alpha, beta, cb, ldc),
                    (true, _, 3) => {
                        mk::<2, 2>(kk, ab, lda, bb, ldb, alpha, beta, cb, ldc);
                        mk::<2, 1>(
                            kk,
                            ab,
                            lda,
                            bb.add(2 * ldb),
                            ldb,
                            alpha,
                            beta,
                            cb.add(2 * ldc),
                            ldc,
                        );
                    }
                    (true, _, 2) => mk::<2, 2>(kk, ab, lda, bb, ldb, alpha, beta, cb, ldc),
                    (true, _, _) => mk::<2, 1>(kk, ab, lda, bb, ldb, alpha, beta, cb, ldc),
                    (false, true, 4) => mk::<1, 4>(kk, ab, lda, bb, ldb, alpha, beta, cb, ldc),
                    (false, true, 3) => {
                        mk::<1, 2>(kk, ab, lda, bb, ldb, alpha, beta, cb, ldc);
                        mk::<1, 1>(
                            kk,
                            ab,
                            lda,
                            bb.add(2 * ldb),
                            ldb,
                            alpha,
                            beta,
                            cb.add(2 * ldc),
                            ldc,
                        );
                    }
                    (false, true, 2) => mk::<1, 2>(kk, ab, lda, bb, ldb, alpha, beta, cb, ldc),
                    (false, true, _) => mk::<1, 1>(kk, ab, lda, bb, ldb, alpha, beta, cb, ldc),
                    (false, false, _) => {
                        tail_rows(mr, nr, kk, ab, lda, bb, ldb, alpha, beta, cb, ldc)
                    }
                }
                // 5..=7 rows: the vector kernel covered the first 4.
                if (4..8).contains(&mr) {
                    tail_rows(mr - 4, nr, kk, ab.add(4), lda, bb, ldb, alpha, beta, cb.add(4), ldc);
                }
                i += mr;
            }
            j += nr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqr_tile::DenseMatrix;

    #[allow(clippy::too_many_arguments)]
    fn reference(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        mask: MaskA,
        b: &[f64],
        ldb: usize,
        beta: f64,
        c: &[f64],
        ldc: usize,
    ) -> Vec<f64> {
        let mut out = c.to_vec();
        for j in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                for l in 0..k {
                    if live(mask, i, l) {
                        s += a[i + l * lda] * b[l + j * ldb];
                    }
                }
                out[i + j * ldc] = beta * c[i + j * ldc] + alpha * s;
            }
        }
        out
    }

    /// Whether `A[i, l]` may be nonzero under `mask`.
    fn live(mask: MaskA, i: usize, l: usize) -> bool {
        match mask {
            MaskA::Full => true,
            MaskA::Lower(o) => l <= i + o,
            MaskA::Upper(o) => i <= l + o,
        }
    }

    fn masked_fill(m: usize, k: usize, mask: MaskA, seed: u64) -> Vec<f64> {
        let full = DenseMatrix::random(m, k, seed).data().to_vec();
        let mut out = vec![0.0; m * k];
        for l in 0..k {
            for i in 0..m {
                if live(mask, i, l) {
                    out[i + l * m] = full[i + l * m];
                }
            }
        }
        out
    }

    fn check(arm: SimdArm, m: usize, n: usize, k: usize, mask: MaskA, alpha: f64, beta: f64) {
        let a = masked_fill(m, k, mask, 1000 + m as u64 * 7 + n as u64);
        let b = DenseMatrix::random(k, n, 2000 + k as u64).data().to_vec();
        let c0 = DenseMatrix::random(m, n, 3000 + n as u64).data().to_vec();
        let expect = reference(m, n, k, alpha, &a, m, mask, &b, k, beta, &c0, m);
        let mut c = c0.clone();
        gemm_core(arm, m, n, k, alpha, &a, m, mask, &b, k, beta, &mut c, m);
        let err = c.iter().zip(&expect).fold(0.0f64, |acc, (x, y)| acc.max((x - y).abs()));
        assert!(err < 1e-11, "{arm:?} {m}x{n}x{k} {mask:?} alpha={alpha} beta={beta}: err {err}");
    }

    #[test]
    fn all_arms_match_reference_over_shapes() {
        let arms: &[SimdArm] = if simd_detected() == SimdArm::Avx2 {
            &[SimdArm::Scalar, SimdArm::Avx2]
        } else {
            &[SimdArm::Scalar]
        };
        for &arm in arms {
            for &(m, n, k) in &[
                (1, 1, 1),
                (3, 2, 5),
                (4, 4, 4),
                (7, 3, 9),
                (8, 4, 8),
                (8, 5, 13),
                (11, 7, 6),
                (16, 16, 16),
                (24, 9, 17),
                (33, 13, 33),
            ] {
                for mask in [MaskA::Full, MaskA::Lower(0), MaskA::Upper(0)]
                    .into_iter()
                    .chain([3, 9].into_iter().flat_map(|o| [MaskA::Lower(o), MaskA::Upper(o)]))
                {
                    for &(alpha, beta) in &[(1.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (2.5, -0.5)] {
                        check(arm, m, n, k, mask, alpha, beta);
                    }
                }
            }
        }
    }

    #[test]
    fn triangular_masks_never_read_dead_entries_on_scalar() {
        // Poison the masked-out triangle: the scalar arm's exact row
        // trimming must never touch it.
        let (m, k, n) = (9usize, 9usize, 4usize);
        for mask in [MaskA::Lower(0), MaskA::Upper(0), MaskA::Lower(3), MaskA::Upper(3)] {
            let mut a = masked_fill(m, k, mask, 7);
            for l in 0..k {
                for i in 0..m {
                    if !live(mask, i, l) {
                        a[i + l * m] = f64::NAN;
                    }
                }
            }
            let b = DenseMatrix::random(k, n, 8).data().to_vec();
            let mut c = vec![0.0; m * n];
            gemm_core(SimdArm::Scalar, m, n, k, 1.0, &a, m, mask, &b, k, 0.0, &mut c, m);
            assert!(c.iter().all(|x| x.is_finite()), "{mask:?} read a dead entry");
        }
    }

    #[test]
    fn same_arm_is_bitwise_deterministic() {
        let (m, n, k) = (33usize, 17usize, 29usize);
        let a = DenseMatrix::random(m, k, 11).data().to_vec();
        let b = DenseMatrix::random(k, n, 12).data().to_vec();
        for &arm in &[SimdArm::Scalar, simd_detected()] {
            let mut c1 = vec![0.5; m * n];
            let mut c2 = vec![0.5; m * n];
            gemm_core(arm, m, n, k, 1.0, &a, m, MaskA::Full, &b, k, 1.0, &mut c1, m);
            gemm_core(arm, m, n, k, 1.0, &a, m, MaskA::Full, &b, k, 1.0, &mut c2, m);
            let bits1: Vec<u64> = c1.iter().map(|x| x.to_bits()).collect();
            let bits2: Vec<u64> = c2.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits1, bits2, "{arm:?} not run-to-run deterministic");
        }
    }

    #[test]
    fn with_arm_pins_and_restores_the_thread_arm() {
        let before = simd_arm();
        let inner = with_arm(SimdArm::Scalar, || {
            let nested = with_arm(simd_detected(), simd_arm);
            (simd_arm(), nested)
        });
        assert_eq!(inner, (SimdArm::Scalar, simd_detected()));
        assert_eq!(simd_arm(), before);
        let unwound = std::panic::catch_unwind(|| with_arm(SimdArm::Scalar, || panic!("boom")));
        assert!(unwound.is_err());
        assert_eq!(simd_arm(), before, "restored on unwind");
    }

    #[test]
    fn dispatch_is_stable_within_a_process() {
        assert_eq!(simd_arm(), simd_arm());
        assert!(!simd_description().is_empty());
        assert_eq!(SimdArm::Scalar.name(), "scalar");
        assert_eq!(SimdArm::Avx2.name(), "avx2");
    }
}
