//! Emit a machine-readable perf baseline (`BENCH_<n>.json`).
//!
//! Criterion's HTML reports are good for humans; the repo's perf
//! *trajectory* needs small committed JSON snapshots that successive
//! sessions can diff. This harness measures, with plain wall-clock
//! medians:
//!
//! * the two §V-A update kernels (`tsmqr`, `ttmqr`) at three tile sizes,
//!   in GFlop/s — the TS/TT rate gap drives every tree trade-off in the
//!   paper;
//! * one end-to-end parallel factorization through the task-DAG executor;
//! * the same matrix pushed through the multi-job [`hqr_runtime::JobPool`]
//!   as eight concurrent jobs, measuring service throughput.
//!
//! Usage: `cargo run --release -p hqr-bench --bin perf_baseline -- \
//!   [--out BENCH_7.json]`
//!
//! The snapshot records which gemm-core dispatch arm ran (scalar or
//! AVX2/FMA — force with `HQR_SIMD=off`) so successive baselines are only
//! compared like-for-like, and measures the factor kernels alongside the
//! update kernels so `hqr-sim`'s `KernelRates::measured()` can be
//! recalibrated from committed numbers.

use hqr::baselines;
use hqr::prelude::*;
use hqr_kernels::{tsmqr, tsqrt, ttmqr, ttqrt, KernelKind, Trans};
use hqr_runtime::{
    try_execute_with, ExecOptions, JobPool, JobSpec, JobState, PoolConfig, TaskGraph,
};
use hqr_tile::{DenseMatrix, ProcessGrid, TiledMatrix};
use std::time::Instant;

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

/// Median wall-clock seconds of `reps` runs of `f` (after one warmup).
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

struct Entry {
    name: String,
    metric: &'static str,
    value: f64,
    detail: String,
}

fn kernel_entries(entries: &mut Vec<Entry>, reps: usize) {
    for &b in &[64usize, 128, 200] {
        // Pre-factored inputs, mirroring the criterion kernel bench.
        let mut vts = upper(b, &tile(b, 1));
        let mut v2ts = tile(b, 2);
        let mut tts = vec![0.0; b * b];
        tsqrt(b, &mut vts, &mut v2ts, &mut tts);
        let mut vtt = upper(b, &tile(b, 3));
        let mut v2tt = upper(b, &tile(b, 4));
        let mut ttt = vec![0.0; b * b];
        ttqrt(b, &mut vtt, &mut v2tt, &mut ttt);

        let mut c1 = tile(b, 6);
        let mut c2 = tile(b, 7);
        let ts = median_secs(reps, || tsmqr(b, &v2ts, &tts, &mut c1, &mut c2, Trans::Trans));
        entries.push(Entry {
            name: format!("tsmqr_b{b}"),
            metric: "gflops",
            value: KernelKind::Tsmqr.flops(b) / ts / 1e9,
            detail: format!("median of {reps}, {:.3} ms/call", ts * 1e3),
        });

        let mut d1 = tile(b, 8);
        let mut d2 = tile(b, 9);
        let tt = median_secs(reps, || ttmqr(b, &v2tt, &ttt, &mut d1, &mut d2, Trans::Trans));
        entries.push(Entry {
            name: format!("ttmqr_b{b}"),
            metric: "gflops",
            value: KernelKind::Ttmqr.flops(b) / tt / 1e9,
            detail: format!("median of {reps}, {:.3} ms/call", tt * 1e3),
        });
    }
    // Factor kernels at the largest tile size, for the simulator's
    // factor_efficiency calibration (factor rate / update rate per class).
    let b = 200usize;
    let (r1_0, a2_0, r2_0) = (upper(b, &tile(b, 10)), tile(b, 11), upper(b, &tile(b, 13)));
    let (mut r1, mut a2, mut t) = (r1_0.clone(), a2_0.clone(), vec![0.0; b * b]);
    let tsq = median_secs(reps, || {
        r1.copy_from_slice(&r1_0);
        a2.copy_from_slice(&a2_0);
        tsqrt(b, &mut r1, &mut a2, &mut t);
    });
    entries.push(Entry {
        name: format!("tsqrt_b{b}"),
        metric: "gflops",
        value: KernelKind::Tsqrt.flops(b) / tsq / 1e9,
        detail: format!("median of {reps}, {:.3} ms/call", tsq * 1e3),
    });
    let mut r2 = r2_0.clone();
    let ttq = median_secs(reps, || {
        r1.copy_from_slice(&r1_0);
        r2.copy_from_slice(&r2_0);
        ttqrt(b, &mut r1, &mut r2, &mut t);
    });
    entries.push(Entry {
        name: format!("ttqrt_b{b}"),
        metric: "gflops",
        value: KernelKind::Ttqrt.flops(b) / ttq / 1e9,
        detail: format!("median of {reps}, {:.3} ms/call", ttq * 1e3),
    });
}

/// `mt x nt` tiles of size `b`, hqr greedy/fibonacci elimination list.
fn job(mt: usize, nt: usize, grid: (usize, usize)) -> Vec<hqr_runtime::ElimOp> {
    let cfg = HqrConfig::new(grid.0, grid.1);
    baselines::hqr(mt, nt, ProcessGrid::new(grid.0, grid.1), cfg).elims.to_ops()
}

fn end_to_end_entry(entries: &mut Vec<Entry>, threads: usize, reps: usize) {
    let (mt, nt, b) = (12, 6, 64);
    let elims = job(mt, nt, (2, 1));
    let graph = TaskGraph::try_build(mt, nt, b, &elims).expect("bench graph");
    let flops: f64 = graph.tasks().iter().map(|t| t.kind.flops(b)).sum();
    let dt = median_secs(reps, || {
        let mut a = TiledMatrix::random(mt, nt, b, 42);
        try_execute_with(&graph, &mut a, &ExecOptions::with_threads(threads)).expect("bench run");
    });
    entries.push(Entry {
        name: format!("factor_{}x{}_b{b}_t{threads}", mt * b, nt * b),
        metric: "gflops",
        value: flops / dt / 1e9,
        detail: format!("task-DAG executor, median of {reps}, {:.1} ms/run", dt * 1e3),
    });
}

fn pool_throughput_entry(entries: &mut Vec<Entry>, threads: usize, reps: usize) {
    let (mt, nt, b, jobs) = (8, 4, 64, 8);
    let elims = job(mt, nt, (2, 1));
    let graph = TaskGraph::try_build(mt, nt, b, &elims).expect("bench graph");
    let flops: f64 = graph.tasks().iter().map(|t| t.kind.flops(b)).sum();
    let dt = median_secs(reps, || {
        let pool = JobPool::new(PoolConfig { nthreads: threads, ..PoolConfig::default() });
        let ids: Vec<_> = (0..jobs)
            .map(|i| {
                let spec = JobSpec::fresh(elims.clone(), TiledMatrix::random(mt, nt, b, 100 + i));
                pool.submit(spec).expect("bench submit")
            })
            .collect();
        for id in ids {
            let outcome = pool.wait(id).expect("bench outcome");
            assert_eq!(outcome.state, JobState::Completed);
        }
        pool.shutdown();
    });
    entries.push(Entry {
        name: format!("pool_{jobs}jobs_{}x{}_b{b}_t{threads}", mt * b, nt * b),
        metric: "gflops",
        value: jobs as f64 * flops / dt / 1e9,
        detail: format!(
            "shared JobPool, {jobs} concurrent jobs incl. submit+spawn, median of {reps}, {:.1} ms/batch",
            dt * 1e3
        ),
    });
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_7.json".to_string());
    let threads = std::thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(4);
    let reps = 7;

    let mut entries = Vec::new();
    kernel_entries(&mut entries, reps);
    end_to_end_entry(&mut entries, threads, reps);
    pool_throughput_entry(&mut entries, threads, reps);

    let mut body = String::new();
    body.push_str("{\n  \"schema\": \"hqr-perf-baseline/2\",\n");
    body.push_str(&format!("  \"threads\": {threads},\n"));
    body.push_str(&format!("  \"reps\": {reps},\n"));
    body.push_str(&format!("  \"simd\": \"{}\",\n", json_escape(&hqr_kernels::simd_description())));
    body.push_str(&format!("  \"simd_detected\": \"{}\",\n", hqr_kernels::simd_detected().name()));
    body.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"metric\": \"{}\", \"value\": {:.4}, \"detail\": \"{}\"}}{}\n",
            json_escape(&e.name),
            e.metric,
            e.value,
            json_escape(&e.detail),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(&out, &body).expect("write baseline");
    println!("wrote {out}");
    for e in &entries {
        println!("  {:<28} {:>9.3} {}  ({})", e.name, e.value, e.metric, e.detail);
    }
}
