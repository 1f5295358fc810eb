//! The executor workloads: `tall_skinny` (resident) and `square_ooc`
//! (paged at a quarter of the tile footprint), plus the set-up and
//! executor-layer measurements the other workloads reuse.

use crate::common::{
    fingerprint, flip_one_bit, median, percentile, qr_flops, sub_seed, timed, Report, RunArgs,
    Scale, Tracer, LANE_CALLS, LANE_SETUP, THREADS,
};
use crate::kernels::{self, KernelBench};
use hqr::baselines;
use hqr_kernels::{blas, Trans};
use hqr_runtime::{
    apply_q_parallel, realized_critical_path, try_execute_traced, try_execute_with, ElimOp,
    ExecOptions, ExecTrace, TFactors, TaskGraph,
};
use hqr_tile::{ProcessGrid, TiledMatrix};
use std::collections::HashMap;
use std::time::Instant;

/// Which HQR preset of §V-C builds the elimination list.
#[derive(Clone, Copy, Debug)]
pub enum Preset {
    /// Fig. 8: Fibonacci/Fibonacci, a = 4, domino on.
    TallSkinny,
    /// Fig. 9: Flat high tree, Fibonacci low tree, a = 4, domino off.
    Square,
}

/// A matrix shape in tiles.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub mt: usize,
    pub nt: usize,
    pub b: usize,
}

impl Shape {
    pub fn rows(&self) -> usize {
        self.mt * self.b
    }
    pub fn cols(&self) -> usize {
        self.nt * self.b
    }
    pub fn flops(&self) -> f64 {
        qr_flops(self.rows(), self.cols())
    }
}

/// A built factorization plan and what building it cost.
pub struct Plan {
    pub ops: Vec<ElimOp>,
    pub graph: TaskGraph,
    pub elim_s: f64,
    pub graph_s: f64,
}

/// Every preset runs on the virtual 2×1 cluster grid (two row clusters).
pub fn grid() -> ProcessGrid {
    ProcessGrid::new(2, 1)
}

/// Elimination list (`hqr-core`) then `TaskGraph::try_build`
/// (`hqr-runtime`), each timed.
pub fn plan(shape: Shape, preset: Preset) -> Result<Plan, String> {
    let (ops, elim_s) = timed(|| {
        let setup = match preset {
            Preset::TallSkinny => baselines::hqr_tall_skinny(shape.mt, shape.nt, grid()),
            Preset::Square => baselines::hqr_square(shape.mt, shape.nt, grid()),
        };
        setup.elims.to_ops()
    });
    let (graph, graph_s) = timed(|| TaskGraph::try_build(shape.mt, shape.nt, shape.b, &ops));
    let graph = graph.map_err(|e| e.to_string())?;
    Ok(Plan { ops, graph, elim_s, graph_s })
}

/// `setup_s` is the median of repeated set-ups: at least 15, and more
/// until their times add up to `budget` seconds (at most 2000).
pub fn more_setup(times: &[f64], budget: f64) -> bool {
    times.len() < 15 || (times.len() < 2000 && times.iter().sum::<f64>() < budget)
}

/// Build the plan repeatedly (see [`more_setup`]); return the last plan
/// and every set-up's seconds.
pub fn plan_repeated(
    shape: Shape,
    preset: Preset,
    budget: f64,
) -> Result<(Plan, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    while more_setup(&times, budget) {
        let p = plan(shape, preset)?;
        times.push(p.elim_s + p.graph_s);
        last = Some(p);
    }
    Ok((last.expect("at least one set-up rep"), times))
}

/// `core.*` and `graph.*` metrics of a plan.
pub fn graph_metrics(r: &mut Report, plans: &[&Plan]) {
    r.metric("core.elim_build_s", plans.iter().map(|p| p.elim_s).sum(), "s");
    r.metric("graph.build_s", plans.iter().map(|p| p.graph_s).sum(), "s");
    r.metric("graph.tasks", plans.iter().map(|p| p.graph.tasks().len() as f64).sum(), "count");
    r.metric("graph.edges", plans.iter().map(|p| p.graph.edge_count() as f64).sum(), "count");
}

/// Executor options for every executor run: 2 workers, unblocked kernels,
/// spill files (if any) inside the benchmark's scratch directory.
pub fn exec_opts(args: &RunArgs, resident_budget: Option<u64>) -> ExecOptions {
    ExecOptions {
        nthreads: THREADS,
        resident_budget,
        spill_dir: Some(args.scratch.clone()),
        ..Default::default()
    }
}

/// `exec.*`, `kernels.factor_share` and `kernels.insitu_ratio` from one
/// traced executor run. Returns (busy seconds per thread, idle seconds per
/// thread) for the layer accounting.
pub fn exec_metrics(
    r: &mut Report,
    graph: &TaskGraph,
    trace: &ExecTrace,
    kb: &KernelBench,
) -> (f64, f64) {
    let tasks = graph.tasks();
    let busy: f64 = trace.per_worker_busy().iter().sum();
    let threads = trace.nthreads as f64;
    let idle = (trace.wall * threads - busy).max(0.0);
    let spans: HashMap<u32, (f64, f64)> =
        trace.records.iter().map(|rec| (rec.task, (rec.start, rec.end))).collect();
    let cp = realized_critical_path(graph, |t| spans.get(&t).copied(), |_, _| 0.0).length;
    let by_kind = trace.kernel_seconds(tasks);
    let factor: f64 =
        kernels::KINDS.iter().zip(by_kind).filter(|(k, _)| k.is_factor()).map(|(_, s)| s).sum();
    r.metric("exec.utilization", trace.utilization(), "ratio");
    r.metric("exec.idle_s", idle, "s");
    r.metric("exec.gap_per_task_us", idle / tasks.len() as f64 * 1e6, "us");
    r.metric("exec.steals", trace.total_steals() as f64, "count");
    r.metric("exec.critical_path_s", cp, "s");
    r.metric("exec.cp_share", cp / trace.wall, "ratio");
    r.metric("kernels.factor_share", factor / busy, "ratio");
    r.metric("kernels.insitu_ratio", busy / kb.isolated_seconds(tasks), "ratio");
    (busy / threads, idle / threads)
}

/// Kernel rates at b = 128 (scaled down for the smoke test): `blas::gemm`
/// as the roof, then each kernel as GF/s and as a fraction of that roof.
pub fn kernel_metrics(r: &mut Report, t: &mut Tracer, args: &RunArgs) -> KernelBench {
    let (b, reps) = match args.scale {
        Scale::Full => (128, 31),
        Scale::Tiny => (16, 5),
    };
    let kb = kernels::measure(b, reps, args.seed, t);
    r.metric("kernels.gemm_peak_gflops", kb.gemm_gflops, "GF/s");
    for kind in kernels::KINDS {
        let name = kind.name().to_lowercase();
        r.metric(format!("kernels.{name}_gflops"), kb.gflops(kind), "GF/s");
        r.metric(format!("kernels.{name}_frac_peak"), kb.gflops(kind) / kb.gemm_gflops, "ratio");
    }
    kb
}

/// A thin-Q check of the paper's two criteria, at the paper's 100·ε·M
/// tolerance: Q is applied to the first N identity columns only, so the
/// check costs O(MN²) instead of the dense M×M Q of
/// `QrFactorization::check`.
pub fn thin_q_check(
    input: &TiledMatrix,
    factored: &TiledMatrix,
    f: &TFactors,
    ops: &[ElimOp],
) -> (f64, f64, bool) {
    let (m, n, b) = (input.rows(), input.cols(), input.b());
    let mut q = TiledMatrix::identity(input.mt(), input.nt(), b);
    apply_q_parallel(factored, f, ops, b, &mut q, Trans::NoTrans, THREADS);
    let q = q.to_dense();
    let mut qtq = vec![0.0; n * n];
    blas::gemm(n, n, m, 1.0, q.data(), Trans::Trans, q.data(), Trans::NoTrans, 0.0, &mut qtq);
    for d in 0..n {
        qtq[d + d * n] -= 1.0;
    }
    let orth = qtq.iter().map(|x| x * x).sum::<f64>().sqrt();
    // R: the upper triangle of the first N rows of the factored tiles.
    let mut r = vec![0.0; n * n];
    for j in 0..n {
        for i in 0..=j {
            r[i + j * n] = factored.tile(i / b, j / b)[i % b + (j % b) * b];
        }
    }
    let mut resid = input.to_dense().data().to_vec();
    let norm_a = resid.iter().map(|x| x * x).sum::<f64>().sqrt();
    blas::gemm(m, n, n, -1.0, q.data(), Trans::NoTrans, &r, Trans::NoTrans, 1.0, &mut resid);
    let res = resid.iter().map(|x| x * x).sum::<f64>().sqrt() / norm_a;
    let tol = 100.0 * f64::EPSILON * m as f64;
    (orth, res, orth < tol && res < tol)
}

/// The two executor workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecWorkload {
    TallSkinny,
    SquareOoc,
}

impl ExecWorkload {
    fn shape(self, scale: Scale) -> Shape {
        match (self, scale) {
            (ExecWorkload::TallSkinny, Scale::Full) => Shape { mt: 128, nt: 4, b: 128 },
            (ExecWorkload::TallSkinny, Scale::Tiny) => Shape { mt: 16, nt: 2, b: 16 },
            (ExecWorkload::SquareOoc, Scale::Full) => Shape { mt: 16, nt: 16, b: 128 },
            (ExecWorkload::SquareOoc, Scale::Tiny) => Shape { mt: 6, nt: 6, b: 16 },
        }
    }

    fn preset(self) -> Preset {
        match self {
            ExecWorkload::TallSkinny => Preset::TallSkinny,
            ExecWorkload::SquareOoc => Preset::Square,
        }
    }

    /// Resident-tier budget: a quarter of the tile footprint (8 MiB for the
    /// 2048×2048 matrix) for `square_ooc`; everything resident otherwise.
    fn budget(self, shape: Shape) -> Option<u64> {
        match self {
            ExecWorkload::TallSkinny => None,
            ExecWorkload::SquareOoc => {
                Some((shape.mt * shape.nt * shape.b * shape.b * 8 / 4) as u64)
            }
        }
    }
}

/// One factorization run: input copy, the timed call, the result.
struct Rep {
    wall: f64,
    a: TiledMatrix,
    out: Result<(TFactors, Option<ExecTrace>), String>,
}

fn run_rep(graph: &TaskGraph, input: &TiledMatrix, opts: &ExecOptions, traced: bool) -> Rep {
    let mut a = input.clone();
    let t0 = Instant::now();
    let out = if traced {
        try_execute_traced(graph, &mut a, opts).map(|(f, _, t)| (f, Some(t)))
    } else {
        try_execute_with(graph, &mut a, opts).map(|(f, _)| (f, None))
    };
    let wall = t0.elapsed().as_secs_f64();
    Rep { wall, a, out: out.map_err(|e| e.to_string()) }
}

/// The verified reference every timed result must equal bitwise, made
/// after the timed runs: for `tall_skinny` a resident run that passes the
/// thin-Q check, for `square_ooc` a resident run of the paged workload's
/// graph. Returns its fingerprint, or `None` (counted as a failure).
fn reference(
    r: &mut Report,
    w: ExecWorkload,
    args: &RunArgs,
    plan: &Plan,
    input: &TiledMatrix,
) -> Option<u64> {
    let rep = run_rep(&plan.graph, input, &exec_opts(args, None), false);
    let f = match rep.out {
        Ok((f, _)) => f,
        Err(e) => {
            r.error("reference factorization", e);
            return None;
        }
    };
    if w == ExecWorkload::TallSkinny {
        let (orth, res, ok) = thin_q_check(input, &rep.a, &f, &plan.ops);
        r.notes.push(format!("check: ||QtQ-I|| = {orth:.3e}, ||A-QR||/||A|| = {res:.3e}"));
        r.check(ok, "thin-Q orthogonality and residual at 100*eps*M");
        if !ok {
            return None;
        }
    }
    Some(fingerprint(&rep.a, &f))
}

/// Count one timed result against the reference fingerprint.
fn check_print(r: &mut Report, print: u64, reference: Option<u64>) {
    r.check(Some(print) == reference, "factors bitwise equal to the reference run");
}

/// Minimum timed factorizations per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Run `tall_skinny` or `square_ooc`.
pub fn run(w: ExecWorkload, args: &RunArgs) -> Report {
    let mut r = Report::default();
    let shape = w.shape(args.scale);
    let (plan, mut setup) = match plan_repeated(shape, w.preset(), 0.25) {
        Ok(p) => p,
        Err(e) => {
            r.error("task graph build", e);
            return r;
        }
    };
    let input = TiledMatrix::random(shape.mt, shape.nt, shape.b, sub_seed(args.seed, 1));
    let opts = exec_opts(args, w.budget(shape));
    if args.trace {
        traced(&mut r, w, args, shape, &plan, &input, &opts);
        return r;
    }

    // Timed factorizations until `seconds` have passed; each result is
    // reduced to its fingerprint outside the timed region. A batch of
    // set-ups precedes each one, so that `setup_s` samples the whole run
    // rather than one moment of it.
    let mut walls = Vec::new();
    let mut prints = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        if let Ok((_, times)) = plan_repeated(shape, w.preset(), 0.02) {
            setup.extend(times);
        }
        let Rep { wall, mut a, out } = run_rep(&plan.graph, &input, &opts, false);
        match out {
            Ok((f, _)) => {
                if args.corrupt && prints.is_empty() {
                    flip_one_bit(&mut a);
                }
                walls.push(wall);
                prints.push(fingerprint(&a, &f));
            }
            Err(e) => {
                r.error("factorization", e);
                break;
            }
        }
    }
    let peak = crate::common::peak_rss_mb();
    let fp = reference(&mut r, w, args, &plan, &input);
    for p in prints {
        check_print(&mut r, p, fp);
    }
    if walls.is_empty() {
        return r;
    }
    r.notes.push(format!("{} factorizations of {}x{}", walls.len(), shape.rows(), shape.cols()));
    factorization_metrics(&mut r, median(&setup), shape, &walls, peak);
    r
}

/// End-to-end metrics of a workload of whole factorizations: GF/s from the
/// median wall, and the walls' percentiles as latencies. There is one class
/// of operation, each a call its user waits on, so `interactive_p95_ms` is
/// the p95 of every call.
pub fn factorization_metrics(r: &mut Report, setup_s: f64, shape: Shape, walls: &[f64], peak: f64) {
    let med = median(walls);
    r.metric("setup_s", setup_s, "s");
    r.metric("gflops", shape.flops() / med / 1e9, "GF/s");
    r.metric("p50_ms", med * 1e3, "ms");
    r.metric("p95_ms", percentile(walls, 95.0) * 1e3, "ms");
    r.metric("interactive_p95_ms", percentile(walls, 95.0) * 1e3, "ms");
    r.metric("peak_rss_mb", peak, "MiB");
}

/// Per-layer run: kernels in isolation, untraced and traced executor runs
/// (and, for `square_ooc`, resident runs of the same graph), the Chrome
/// trace, and the layer accounting.
fn traced(
    r: &mut Report,
    w: ExecWorkload,
    args: &RunArgs,
    shape: Shape,
    plan: &Plan,
    input: &TiledMatrix,
    opts: &ExecOptions,
) {
    let mut t = Tracer::new();
    let fresh = traced_plan(&mut t, shape, w.preset());
    graph_metrics(r, &[fresh.as_ref().unwrap_or(plan)]);
    let kb = kernel_metrics(r, &mut t, args);
    let reps = 3;
    let call = |t: &mut Tracer, opts: &ExecOptions, traced: bool, name: &str| {
        let offset = t.now();
        let (rep, _) =
            t.span(LANE_CALLS, name, "exec", || run_rep(&plan.graph, input, opts, traced));
        (offset, rep)
    };

    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut engine_walls = Vec::new();
    let mut last: Option<(f64, ExecTrace, f64)> = None;
    let mut prints = Vec::new();
    for _ in 0..reps {
        let (_, rep) = call(&mut t, opts, false, "try_execute_with");
        untraced.push(rep.wall);
        let (offset, mut rep) = call(&mut t, opts, true, "try_execute_traced");
        match rep.out {
            Ok((f, Some(tr))) => {
                if args.corrupt && prints.is_empty() {
                    flip_one_bit(&mut rep.a);
                }
                prints.push(fingerprint(&rep.a, &f));
                traced_walls.push(rep.wall);
                engine_walls.push(tr.wall);
                last = Some((offset, tr, rep.wall));
            }
            Ok((_, None)) => unreachable!("traced run returns a trace"),
            Err(e) => r.error("traced factorization", e),
        }
    }
    let fp = reference(r, w, args, plan, input);
    for p in prints {
        check_print(r, p, fp);
    }
    let Some((offset, tr, outer)) = last else { return };
    t.exec_tasks(offset, &tr, plan.graph.tasks());
    let (busy, idle) = exec_metrics(r, &plan.graph, &tr, &kb);
    r.metric("trace.overhead_frac", median(&traced_walls) / median(&untraced) - 1.0, "ratio");

    match w {
        ExecWorkload::TallSkinny => {
            r.accounting(
                "tall_skinny wall (s)",
                outer,
                &[
                    ("kernels insitu_ratio x isolated / threads", busy),
                    ("exec.idle_s / threads", idle),
                ],
            );
        }
        ExecWorkload::SquareOoc => {
            let spill = tr.spill.unwrap_or_default();
            let tile_bytes = (shape.b * shape.b * 8) as f64;
            let resident = exec_opts(args, None);
            let mut res_outer = Vec::new();
            let mut res_engine = Vec::new();
            for _ in 0..reps {
                let (_, rep) = call(&mut t, &resident, true, "try_execute_traced resident");
                if let Ok((_, Some(rt))) = rep.out {
                    res_outer.push(rep.wall);
                    res_engine.push(rt.wall);
                }
            }
            if res_outer.is_empty() {
                r.error("resident traced runs", "none completed");
                return;
            }
            let overhead = median(&engine_walls) - median(&res_engine);
            r.metric("spill.evictions", spill.evictions as f64, "count");
            r.metric("spill.writebacks", spill.writebacks as f64, "count");
            r.metric("spill.demand_faults", spill.demand_faults as f64, "count");
            r.metric("spill.prefetches", spill.prefetches as f64, "count");
            r.metric(
                "spill.prefetch_hit_ratio",
                if spill.prefetches > 0 {
                    spill.prefetch_hits as f64 / spill.prefetches as f64
                } else {
                    0.0
                },
                "ratio",
            );
            r.metric(
                "spill.bytes_read",
                (spill.demand_faults + spill.prefetches) as f64 * tile_bytes,
                "B",
            );
            r.metric("spill.bytes_written", spill.writebacks as f64 * tile_bytes, "B");
            r.metric("spill.overhead_s", overhead, "s");
            r.accounting(
                "square_ooc paged wall (s)",
                median(&traced_walls),
                &[
                    ("resident wall", median(&res_outer)),
                    ("spill.overhead_s (engine walls)", overhead),
                ],
            );
        }
    }
    write_trace(r, &t, args);
}

/// One more set-up under the recorder, with a span for the elimination
/// list and one for the graph build.
pub fn traced_plan(t: &mut Tracer, shape: Shape, preset: Preset) -> Option<Plan> {
    let start = t.now();
    let p = plan(shape, preset).ok()?;
    t.record(LANE_SETUP, "elimination list", "setup", start, start + p.elim_s);
    t.record(
        LANE_SETUP,
        "TaskGraph::try_build",
        "setup",
        start + p.elim_s,
        start + p.elim_s + p.graph_s,
    );
    Some(p)
}

/// Write the Chrome trace into the scratch directory and validate it.
pub fn write_trace(r: &mut Report, t: &Tracer, args: &RunArgs) {
    let text = t.chrome_trace();
    let path = args.scratch.join("perfbench.trace.json");
    match hqr_runtime::validate_chrome_trace(&text) {
        Ok(n) => {
            r.check(true, "chrome trace");
            match std::fs::write(&path, &text) {
                Ok(()) => {
                    r.notes.push(format!("trace: {} ({n} events, validated)", path.display()))
                }
                Err(e) => r.error("write trace", e),
            }
        }
        Err(e) => r.error("validate_chrome_trace", e),
    }
}
