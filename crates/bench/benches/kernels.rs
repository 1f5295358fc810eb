//! Criterion micro-benchmarks of the sequential tile kernels (§V-A):
//! measures the TS-vs-TT rate gap on *this* machine ("the best performance
//! for running the dTSMQR operation in a single core has been measured at
//! 7.21 GFlop/s ... dTTMQR ... 6.28 GFlop/s").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hqr_kernels::{
    geqrt, tsmqr, tsmqr_ib, tsqrt, tsqrt_ib, ttmqr, ttqrt, unmqr, KernelKind, Trans,
};
use hqr_tile::DenseMatrix;

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

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("tile-kernels");
    for &b in &[64usize, 128, 200] {
        // Pre-factored inputs for the update kernels.
        let mut vts = upper(b, &tile(b, 1));
        let mut v2ts = tile(b, 2);
        let mut tts = vec![0.0; b * b];
        tsqrt(b, &mut vts, &mut v2ts, &mut tts);
        let mut vtt = upper(b, &tile(b, 3));
        let mut v2tt = upper(b, &tile(b, 4));
        let mut ttt = vec![0.0; b * b];
        ttqrt(b, &mut vtt, &mut v2tt, &mut ttt);
        let mut vge = tile(b, 5);
        let mut tge = vec![0.0; b * b];
        geqrt(b, &mut vge, &mut tge);

        g.throughput(Throughput::Elements(KernelKind::Tsmqr.flops(b) as u64));
        g.bench_with_input(BenchmarkId::new("tsmqr", b), &b, |bench, &b| {
            let mut c1 = tile(b, 6);
            let mut c2 = tile(b, 7);
            bench.iter(|| tsmqr(b, &v2ts, &tts, &mut c1, &mut c2, Trans::Trans));
        });

        g.throughput(Throughput::Elements(KernelKind::Ttmqr.flops(b) as u64));
        g.bench_with_input(BenchmarkId::new("ttmqr", b), &b, |bench, &b| {
            let mut c1 = tile(b, 8);
            let mut c2 = tile(b, 9);
            bench.iter(|| ttmqr(b, &v2tt, &ttt, &mut c1, &mut c2, Trans::Trans));
        });

        g.throughput(Throughput::Elements(KernelKind::Unmqr.flops(b) as u64));
        g.bench_with_input(BenchmarkId::new("unmqr", b), &b, |bench, &b| {
            let mut c1 = tile(b, 10);
            bench.iter(|| unmqr(b, &vge, &tge, &mut c1, Trans::Trans));
        });

        g.throughput(Throughput::Elements(KernelKind::Geqrt.flops(b) as u64));
        g.bench_with_input(BenchmarkId::new("geqrt", b), &b, |bench, &b| {
            let a0 = tile(b, 11);
            bench.iter_batched(
                || (a0.clone(), vec![0.0; b * b]),
                |(mut a, mut t)| geqrt(b, &mut a, &mut t),
                criterion::BatchSize::SmallInput,
            );
        });

        g.throughput(Throughput::Elements(KernelKind::Tsqrt.flops(b) as u64));
        g.bench_with_input(BenchmarkId::new("tsqrt", b), &b, |bench, &b| {
            let a1 = upper(b, &tile(b, 12));
            let a2 = tile(b, 13);
            bench.iter_batched(
                || (a1.clone(), a2.clone(), vec![0.0; b * b]),
                |(mut a1, mut a2, mut t)| tsqrt(b, &mut a1, &mut a2, &mut t),
                criterion::BatchSize::SmallInput,
            );
        });

        g.throughput(Throughput::Elements(KernelKind::Ttqrt.flops(b) as u64));
        g.bench_with_input(BenchmarkId::new("ttqrt", b), &b, |bench, &b| {
            let a1 = upper(b, &tile(b, 14));
            let a2 = upper(b, &tile(b, 15));
            bench.iter_batched(
                || (a1.clone(), a2.clone(), vec![0.0; b * b]),
                |(mut a1, mut a2, mut t)| ttqrt(b, &mut a1, &mut a2, &mut t),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();

    // Inner-block-size sweep: the PLASMA IB trade-off on this host.
    let mut g = c.benchmark_group("inner-blocking");
    let b = 128usize;
    for ib in [8usize, 32, 64, 128] {
        let mut a1 = upper(b, &tile(b, 21));
        let mut v2 = tile(b, 22);
        let mut t = vec![0.0; b * b];
        tsqrt_ib(b, ib, &mut a1, &mut v2, &mut t);
        g.throughput(Throughput::Elements(KernelKind::Tsmqr.flops(b) as u64));
        g.bench_with_input(BenchmarkId::new("tsmqr_ib", ib), &ib, |bench, &ib| {
            let mut c1 = tile(b, 23);
            let mut c2 = tile(b, 24);
            bench.iter(|| tsmqr_ib(b, ib, &v2, &t, &mut c1, &mut c2, Trans::Trans));
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_kernels
}
criterion_main!(benches);
