//! Isolated kernel rates: `blas::gemm` as the host roof, and direct calls to
//! the six tile kernels, the way §V-A reports each kernel against the core
//! peak.

use crate::common::{median, Tracer, LANE_CALLS};
use hqr_kernels::{blas, geqrt, tsmqr, tsqrt, ttmqr, ttqrt, unmqr, KernelKind, Trans};
use hqr_runtime::analysis::kind_index;
use hqr_tile::DenseMatrix;
use std::hint::black_box;
use std::time::Instant;

/// Kernel kinds in `kind_index` order.
pub const KINDS: [KernelKind; 6] = [
    KernelKind::Geqrt,
    KernelKind::Unmqr,
    KernelKind::Tsqrt,
    KernelKind::Tsmqr,
    KernelKind::Ttqrt,
    KernelKind::Ttmqr,
];

/// Isolated per-call times at one tile size.
#[derive(Clone, Debug)]
pub struct KernelBench {
    pub b: usize,
    /// `blas::gemm` on b×b operands.
    pub gemm_gflops: f64,
    /// Median seconds per call, indexed by `kind_index`.
    pub secs: [f64; 6],
}

impl KernelBench {
    pub fn gflops(&self, kind: KernelKind) -> f64 {
        kind.flops(self.b) / self.secs[kind_index(kind)] / 1e9
    }

    /// Seconds the tasks of a graph would take run one by one in isolation.
    pub fn isolated_seconds(&self, tasks: &[hqr_runtime::Task]) -> f64 {
        tasks.iter().map(|t| self.secs[kind_index(t.kind)]).sum()
    }
}

fn tile(b: usize, seed: u64) -> Vec<f64> {
    DenseMatrix::random(b, b, seed).data().to_vec()
}

fn upper(b: usize, a: &[f64]) -> Vec<f64> {
    let mut u = vec![0.0; b * b];
    for j in 0..b {
        u[j * b..j * b + j + 1].copy_from_slice(&a[j * b..j * b + j + 1]);
    }
    u
}

/// Median seconds of `reps` timed calls; `prep` runs untimed before each.
fn per_call<S>(
    reps: usize,
    state: &mut S,
    mut prep: impl FnMut(&mut S),
    mut call: impl FnMut(&mut S),
) -> f64 {
    prep(state);
    call(state);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            prep(state);
            let t0 = Instant::now();
            call(state);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// `blas::gemm` GF/s on b×b operands — the host roof every kernel rate is
/// reported against.
pub fn gemm_gflops(b: usize, reps: usize, seed: u64) -> f64 {
    let (a, bm) = (tile(b, seed), tile(b, seed + 1));
    let mut c = tile(b, seed + 2);
    let s = per_call(
        reps,
        &mut c,
        |_| {},
        |c| {
            blas::gemm(b, b, b, 1.0, black_box(&a), Trans::NoTrans, &bm, Trans::NoTrans, 0.5, c);
            black_box(&c);
        },
    );
    2.0 * (b as f64).powi(3) / s / 1e9
}

/// Time every kernel kind at tile size `b`. Factor kernels restart from a
/// pristine copy before each call (outside the timed region); update
/// kernels apply orthogonal transforms, so repeating them on the same
/// tile keeps its values bounded.
pub fn measure(b: usize, reps: usize, seed: u64, tr: &mut Tracer) -> KernelBench {
    let mut secs = [0.0; 6];
    let mut span = |kind: KernelKind, f: &mut dyn FnMut() -> f64| {
        let name = format!("{} b={b} x{reps}", kind.name());
        secs[kind_index(kind)] = tr.span(LANE_CALLS, &name, "kernels", f).0;
    };
    let full = tile(b, seed + 10);
    let (r1, r2) = (upper(b, &tile(b, seed + 11)), upper(b, &tile(b, seed + 12)));
    let mut t = vec![0.0; b * b];

    // GEQRT on a full tile, and UNMQR with its reflectors.
    let mut a = full.clone();
    span(KernelKind::Geqrt, &mut || {
        per_call(
            reps,
            &mut (&mut a, &mut t),
            |(a, _)| a.copy_from_slice(&full),
            |(a, t)| geqrt(b, a, t),
        )
    });
    let (vg, tg) = (a.clone(), t.clone());
    let mut c = tile(b, seed + 13);
    span(KernelKind::Unmqr, &mut || {
        per_call(reps, &mut c, |_| {}, |c| unmqr(b, &vg, &tg, c, Trans::Trans))
    });

    // TSQRT on [R; full], and TSMQR with its reflectors.
    let (mut x1, mut x2) = (r1.clone(), full.clone());
    span(KernelKind::Tsqrt, &mut || {
        per_call(
            reps,
            &mut (&mut x1, &mut x2, &mut t),
            |(x1, x2, _)| {
                x1.copy_from_slice(&r1);
                x2.copy_from_slice(&full);
            },
            |(x1, x2, t)| tsqrt(b, x1, x2, t),
        )
    });
    let (v2, tk) = (x2.clone(), t.clone());
    let (mut c1, mut c2) = (tile(b, seed + 14), tile(b, seed + 15));
    span(KernelKind::Tsmqr, &mut || {
        per_call(
            reps,
            &mut (&mut c1, &mut c2),
            |_| {},
            |(c1, c2)| tsmqr(b, &v2, &tk, c1, c2, Trans::Trans),
        )
    });

    // TTQRT on [R; R], and TTMQR with its reflectors.
    let (mut y1, mut y2) = (r1.clone(), r2.clone());
    span(KernelKind::Ttqrt, &mut || {
        per_call(
            reps,
            &mut (&mut y1, &mut y2, &mut t),
            |(y1, y2, _)| {
                y1.copy_from_slice(&r1);
                y2.copy_from_slice(&r2);
            },
            |(y1, y2, t)| ttqrt(b, y1, y2, t),
        )
    });
    let (w2, tt) = (y2.clone(), t.clone());
    span(KernelKind::Ttmqr, &mut || {
        per_call(
            reps,
            &mut (&mut c1, &mut c2),
            |_| {},
            |(c1, c2)| ttmqr(b, &w2, &tt, c1, c2, Trans::Trans),
        )
    });

    let name = format!("blas::gemm b={b} x{reps}");
    let (gemm_gflops, _) = tr.span(LANE_CALLS, &name, "kernels", || gemm_gflops(b, reps, seed));
    KernelBench { b, gemm_gflops, secs }
}
