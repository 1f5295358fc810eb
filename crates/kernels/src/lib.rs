//! From-scratch sequential tile QR kernels.
//!
//! These are the six kernels of the paper's §II (Algorithm 2), implemented
//! with Householder reflections in compact WY form, exactly as PLASMA's
//! CORE_BLAS kernels do:
//!
//! | kernel | operation | weight (b³/3 flops) |
//! |---|---|---|
//! | [`geqrt_ib`]  | QR of a square tile: A → (V, R), T | 4 |
//! | [`unmqr_ib`]  | apply op(Q) of a GEQRT to a tile | 6 |
//! | [`tsqrt_ib`]  | QR of [R; A] (triangle on top of square) | 6 |
//! | [`tsmqr_ib`]  | apply op(Q) of a TSQRT to a tile pair | 12 |
//! | [`ttqrt_ib`]  | QR of [R; R] (triangle on top of triangle) | 2 |
//! | [`ttmqr_ib`]  | apply op(Q) of a TTQRT to a tile pair | 6 |
//!
//! There is one implementation of each: PLASMA's inner-blocked kernel,
//! which splits the tile into column panels of width `ib` (its inner
//! block size). The unblocked kernel is the one-panel case `ib = b`;
//! [`geqrt`], [`unmqr`], [`tsqrt`], [`tsmqr`], [`ttqrt`] and [`ttmqr`]
//! are exactly those calls. The factor kernels factor each panel
//! recursively (halve it, factor the left half, apply it to the right
//! half, factor that, merge the two T factors), so outside a narrow
//! level-2 base case their work, like all of the update kernels', runs
//! on the shared gemm core in [`micro`], dispatched once per process to a
//! scalar or an AVX2/FMA arm ([`simd_arm`]; [`with_arm`] pins one for a
//! closure).
//!
//! All tiles are square `b × b`, column-major slices of length `b²`.
//! TT kernels exploit the triangular structure of the second tile and so
//! perform roughly a third of the floating-point work of their TS
//! counterparts per call, but "the sequential performance of the TS kernels
//! is higher" per *flop* (§II) — which the criterion bench `kernels`
//! measures on this implementation.
//!
//! Conventions (LAPACK-style): `geqrt` factors A = Q·R with
//! Q = I − V·T·Vᵀ (V unit lower triangular, T upper triangular);
//! applying `Trans` computes Qᵀ·C (used during factorization, since
//! R = Qᵀ·A), `NoTrans` computes Q·C (used to rebuild Q against the
//! identity, as the paper's checks do). An update kernel must be given
//! the `ib` its factor kernel ran with.
//!
//! ```
//! use hqr_kernels::{geqrt, unmqr, Trans};
//! use hqr_tile::DenseMatrix;
//! let b = 8;
//! let a0 = DenseMatrix::random(b, b, 7).data().to_vec();
//! let (mut a, mut t) = (a0.clone(), vec![0.0; b * b]);
//! geqrt(b, &mut a, &mut t);
//! // Qᵀ·A0 reproduces R: strictly-lower part vanishes.
//! let mut c = a0.clone();
//! unmqr(b, &a, &t, &mut c, Trans::Trans);
//! for j in 0..b {
//!     for i in (j + 1)..b {
//!         assert!(c[i + j * b].abs() < 1e-12);
//!     }
//! }
//! ```

mod apply;
pub mod blas;
mod error;
mod factor;
mod larfg;
pub mod micro;
pub mod reference;
pub mod weights;

pub use apply::{tsmqr, tsmqr_ib, ttmqr, ttmqr_ib, unmqr, unmqr_ib};
pub use error::KernelError;
pub use factor::{geqrt, geqrt_ib, tsqrt, tsqrt_ib, ttqrt, ttqrt_ib};
pub use micro::{simd_arm, simd_description, simd_detected, with_arm, SimdArm};
pub use weights::{KernelClass, KernelKind};

/// Whether to apply `Q` or `Qᵀ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Apply Q (used when reconstructing Q or computing Q·R).
    NoTrans,
    /// Apply Qᵀ (used during factorization: R = Qᵀ·A).
    Trans,
}

#[inline]
pub(crate) fn check_tile(b: usize, t: &[f64]) {
    assert_eq!(t.len(), b * b, "tile must be b*b = {} elements, got {}", b * b, t.len());
}

#[inline]
pub(crate) fn check_ib(b: usize, ib: usize) {
    assert!(ib > 0 && ib <= b, "inner block size must be in 1..=b (got {ib} for b={b})");
}

/// Column panels `(start, end)` of width `ib` covering a `b`-wide tile.
pub(crate) fn panels(b: usize, ib: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..b).step_by(ib).map(move |s| (s, (s + ib).min(b)))
}
