//! Serial and multithreaded DAG executors.
//!
//! [`execute_serial`] runs the DAG in program order on the calling thread
//! and is the in-order reference every other backend is compared against.
//! The `try_execute_*` entry points run it on the work-stealing core
//! (`engine.rs`) and report every failure — kernel panics, exhausted
//! retry budgets, scheduler stalls — as a typed [`ExecError`]. Their
//! [`ExecOptions`] enable bounded per-task retry with write-set rollback,
//! deterministic fault injection ([`crate::FaultPlan`]) and a stall
//! watchdog.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::engine::{open_store, relock, worker_loop, DagRun, Observer, Sched, Step};
use crate::error::{ExecError, StallCause};
use crate::fault::{ExecOptions, FaultStats, QuietPanics, POISON_STRIKES};
use crate::graph::TaskGraph;
use crate::sched::SchedPolicy;
use crate::store::TileStore;
use crate::task::Task;
use hqr_kernels::KernelKind;
use hqr_tile::TiledMatrix;

/// The Householder factor buffers produced by a factorization: the V copies
/// and T factors of every GEQRT, and the T factors of every kill kernel.
/// Together with the factored matrix (V/V2 blocks in place, R in the upper
/// triangle) and the elimination list, they fully determine Q.
#[derive(Clone)]
pub struct TFactors {
    pub(crate) b: usize,
    pub(crate) mt: usize,
    pub(crate) nt: usize,
    pub(crate) vg: Vec<Option<Box<[f64]>>>,
    pub(crate) tg: Vec<Option<Box<[f64]>>>,
    pub(crate) tk: Vec<Option<Box<[f64]>>>,
}

impl std::fmt::Debug for TFactors {
    /// Summarized (the buffers hold O(mt·nt·b²) floats).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let count = |v: &[Option<Box<[f64]>>]| v.iter().filter(|o| o.is_some()).count();
        f.debug_struct("TFactors")
            .field("b", &self.b)
            .field("mt", &self.mt)
            .field("nt", &self.nt)
            .field("vg_buffers", &count(&self.vg))
            .field("tg_buffers", &count(&self.tg))
            .field("tk_buffers", &count(&self.tk))
            .finish()
    }
}

impl TFactors {
    /// Allocate exactly the buffers the graph's tasks will write.
    pub fn allocate_for(graph: &TaskGraph) -> Self {
        let (mt, nt, b) = (graph.mt(), graph.nt(), graph.b());
        let mut vg: Vec<Option<Box<[f64]>>> = (0..mt * nt).map(|_| None).collect();
        let mut tg: Vec<Option<Box<[f64]>>> = (0..mt * nt).map(|_| None).collect();
        let mut tk: Vec<Option<Box<[f64]>>> = (0..mt * nt).map(|_| None).collect();
        let zero = || Some(vec![0.0; b * b].into_boxed_slice());
        for t in graph.tasks() {
            let idx = t.i as usize + (t.k as usize) * mt;
            match t.kind {
                KernelKind::Geqrt => {
                    vg[idx] = zero();
                    tg[idx] = zero();
                }
                KernelKind::Tsqrt | KernelKind::Ttqrt => {
                    tk[idx] = zero();
                }
                _ => {}
            }
        }
        TFactors { b, mt, nt, vg, tg, tk }
    }

    /// Tile size.
    pub fn b(&self) -> usize {
        self.b
    }

    fn get(v: &[Option<Box<[f64]>>], mt: usize, i: usize, k: usize) -> Option<&[f64]> {
        v[i + k * mt].as_deref()
    }

    /// V factor (full tile copy; V in the strict lower triangle) of the
    /// GEQRT applied to row `i` in panel `k`.
    pub fn vg(&self, i: usize, k: usize) -> Option<&[f64]> {
        Self::get(&self.vg, self.mt, i, k)
    }

    /// T factor of the GEQRT applied to row `i` in panel `k`.
    pub fn tg(&self, i: usize, k: usize) -> Option<&[f64]> {
        Self::get(&self.tg, self.mt, i, k)
    }

    /// T factor of the kill (TSQRT/TTQRT) whose victim was row `i`, panel `k`.
    pub fn tk(&self, i: usize, k: usize) -> Option<&[f64]> {
        Self::get(&self.tk, self.mt, i, k)
    }

    /// Mutable view of an allocated factor buffer, for callers (the
    /// distributed gather step) that fill a [`TFactors`] from bytes
    /// computed elsewhere. `None` when the graph never writes that slot.
    pub fn slot_mut(
        &mut self,
        fam: crate::task::SlotFamily,
        i: usize,
        k: usize,
    ) -> Option<&mut [f64]> {
        let idx = i + k * self.mt;
        let v = match fam {
            crate::task::SlotFamily::Vg => &mut self.vg,
            crate::task::SlotFamily::Tg => &mut self.tg,
            crate::task::SlotFamily::Tk => &mut self.tk,
            crate::task::SlotFamily::A => return None,
        };
        v.get_mut(idx).and_then(|o| o.as_deref_mut())
    }

    /// Bit-exact equality of every allocated factor buffer (comparing
    /// `f64::to_bits`, so `-0.0 != 0.0` and NaNs compare by payload) — the
    /// check behind the "resume is bitwise-identical" guarantee.
    pub fn bitwise_eq(&self, other: &TFactors) -> bool {
        fn family_eq(a: &[Option<Box<[f64]>>], b: &[Option<Box<[f64]>>]) -> bool {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| match (x, y) {
                    (None, None) => true,
                    (Some(x), Some(y)) => {
                        x.len() == y.len()
                            && x.iter().zip(y.iter()).all(|(p, q)| p.to_bits() == q.to_bits())
                    }
                    _ => false,
                })
        }
        self.b == other.b
            && self.mt == other.mt
            && self.nt == other.nt
            && family_eq(&self.vg, &other.vg)
            && family_eq(&self.tg, &other.tg)
            && family_eq(&self.tk, &other.tk)
    }
}

/// Execute the DAG on the calling thread, in program order (which
/// [`TaskGraph::build`] guarantees is topological).
pub fn execute_serial(graph: &TaskGraph, a: &mut TiledMatrix) -> TFactors {
    execute_serial_ib(graph, a, graph.b())
}

/// [`execute_serial`] with an explicit inner block size (PLASMA's IB).
pub fn execute_serial_ib(graph: &TaskGraph, a: &mut TiledMatrix, ib: usize) -> TFactors {
    let mut f = TFactors::allocate_for(graph);
    let store = TileStore::with_ib(a, &mut f, ib);
    for t in graph.tasks() {
        // SAFETY: single-threaded, topological order.
        unsafe { store.run_task(t) };
    }
    f
}

/// One executed task in an execution trace: which worker ran it and when
/// (seconds since the executor started).
#[derive(Clone, Copy, Debug)]
pub struct TaskRecord {
    /// Index into [`TaskGraph::tasks`].
    pub task: u32,
    /// Worker thread that executed it.
    pub worker: u16,
    /// Start time (s).
    pub start: f64,
    /// End time (s).
    pub end: f64,
}

/// Per-worker scheduler counters, accumulated by the work-stealing loop.
///
/// Together they attribute every task acquisition to its source — the
/// worker's own LIFO deque (data-reuse hits), the global injector (initial
/// frontier and poison re-enqueues), or a peer's deque (load-balancing
/// steals) — and count the recovery events the fault layer triggered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Tasks popped from the worker's own LIFO deque.
    pub local_pops: u64,
    /// Tasks taken from the global injector.
    pub injector_pops: u64,
    /// Tasks stolen FIFO from a peer worker's deque.
    pub steals: u64,
    /// Panics caught while running tasks (injected and genuine).
    pub panics_caught: u64,
    /// Failed attempts rolled back and retried on this worker.
    pub retries: u64,
    /// Tasks this (poisoned) worker handed back to its peers.
    pub requeues: u64,
    /// Paged runs only: tiles this worker faulted in from the spill file
    /// on demand (the prefetcher missed them).
    pub tile_faults: u64,
    /// Paged runs only: pins that found their tile already resident
    /// because the background prefetcher loaded it.
    pub prefetch_hits: u64,
    /// Paged runs only: evictions this worker's pins triggered to make
    /// room in the resident tier.
    pub tile_spills: u64,
}

impl WorkerCounters {
    /// Accumulate another worker's (or segment's) counters into these.
    pub(crate) fn merge(&mut self, other: &WorkerCounters) {
        self.local_pops += other.local_pops;
        self.injector_pops += other.injector_pops;
        self.steals += other.steals;
        self.panics_caught += other.panics_caught;
        self.retries += other.retries;
        self.requeues += other.requeues;
        self.tile_faults += other.tile_faults;
        self.prefetch_hits += other.prefetch_hits;
        self.tile_spills += other.tile_spills;
    }
}

/// What a scheduler instant event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstantKind {
    /// A task attempt panicked and the panic was caught.
    PanicCaught,
    /// A rolled-back task attempt is about to re-run on the same worker.
    Retry,
    /// A poisoned worker pushed the task back for healthy peers.
    Requeue,
    /// A consistent checkpoint was written to disk (the `task` field holds
    /// the number of completed tasks it covers).
    Checkpoint,
    /// Execution resumed from an on-disk checkpoint (the `task` field holds
    /// the number of tasks restored as already complete).
    Resume,
    /// A tile-guard verification caught silent data corruption.
    SdcDetected,
    /// A corrupted task attempt was rolled back and is about to recompute.
    SdcRecomputed,
    /// Paged runs only: a task's pin pass demand-faulted at least one
    /// tile in from the spill file.
    TileFaulted,
    /// Paged runs only: a task's pin pass evicted (spilled) at least one
    /// resident tile to make room.
    TileSpilled,
}

/// A point event on a worker's timeline (fault/retry markers).
#[derive(Clone, Copy, Debug)]
pub struct ExecInstant {
    /// What happened.
    pub kind: InstantKind,
    /// Task involved.
    pub task: u32,
    /// Worker it happened on.
    pub worker: u16,
    /// Seconds since the executor started.
    pub time: f64,
}

/// Timeline of a traced parallel execution.
#[derive(Clone, Debug)]
pub struct ExecTrace {
    /// Number of worker threads.
    pub nthreads: usize,
    /// Scheduling policy the run used for its shared ready queue.
    pub policy: SchedPolicy,
    /// Per-task records, sorted by start time.
    pub records: Vec<TaskRecord>,
    /// Fault/retry instants, sorted by time.
    pub instants: Vec<ExecInstant>,
    /// Scheduler counters, one per worker.
    pub counters: Vec<WorkerCounters>,
    /// Wall-clock duration of the whole execution (s).
    pub wall: f64,
    /// Spill-traffic totals when the run used the paged (two-tier) tile
    /// store; `None` for fully-resident runs.
    pub spill: Option<crate::spill::SpillSummary>,
}

impl ExecTrace {
    /// Total peer-deque steals across all workers.
    pub fn total_steals(&self) -> u64 {
        self.counters.iter().map(|c| c.steals).sum()
    }

    /// Total injector pops across all workers.
    pub fn total_injector_pops(&self) -> u64 {
        self.counters.iter().map(|c| c.injector_pops).sum()
    }

    /// Busy seconds per worker.
    pub fn per_worker_busy(&self) -> Vec<f64> {
        let mut busy = vec![0.0; self.nthreads];
        for r in &self.records {
            busy[r.worker as usize] += r.end - r.start;
        }
        busy
    }

    /// Average worker utilization over the wall-clock span.
    pub fn utilization(&self) -> f64 {
        if self.wall == 0.0 {
            return 0.0;
        }
        self.per_worker_busy().iter().sum::<f64>() / (self.wall * self.nthreads as f64)
    }

    /// Busy seconds per kernel kind, indexed by
    /// [`crate::analysis::kind_index`].
    pub fn kernel_seconds(&self, tasks: &[Task]) -> [f64; 6] {
        let mut out = [0.0; 6];
        for r in &self.records {
            out[crate::analysis::kind_index(tasks[r.task as usize].kind)] += r.end - r.start;
        }
        out
    }
}

/// Fault-tolerant execution with full control: worker count, inner block
/// size, per-task retry with write-set rollback, deterministic fault
/// injection and a stall watchdog. Returns the factors plus recovery
/// accounting. A kernel panic halts the sibling workers and is reported as
/// a typed [`ExecError`] instead of unwinding through the caller.
///
/// Because a failed attempt is rolled back to the task's pre-execution
/// state before re-running, and the kernels are deterministic, a recovered
/// run produces a factorization bitwise-identical to a fault-free run.
pub fn try_execute_with(
    graph: &TaskGraph,
    a: &mut TiledMatrix,
    opts: &ExecOptions,
) -> Result<(TFactors, FaultStats), ExecError> {
    let (f, stats, _) = run_engine(graph, a, opts, false)?;
    Ok((f, stats))
}

/// [`try_execute_with`] plus a full [`ExecTrace`]: per-task spans,
/// fault/retry instants, and per-worker scheduler counters — everything
/// [`crate::trace::chrome_trace_from_exec`] needs to render a Perfetto
/// timeline.
pub fn try_execute_traced(
    graph: &TaskGraph,
    a: &mut TiledMatrix,
    opts: &ExecOptions,
) -> Result<(TFactors, FaultStats, ExecTrace), ExecError> {
    let (f, stats, trace) = run_engine(graph, a, opts, true)?;
    Ok((f, stats, trace.expect("tracing requested")))
}

fn set_error(slot: &Mutex<Option<ExecError>>, e: ExecError) {
    let mut guard = relock(slot);
    if guard.is_none() {
        *guard = Some(e);
    }
}

/// One worker's private trace, handed back when the scope joins.
struct WorkerLog {
    /// Run start; `None` for an untraced run.
    epoch: Option<Instant>,
    worker: u16,
    /// Start of the task in flight (s since `epoch`).
    start: f64,
    records: Vec<TaskRecord>,
    instants: Vec<ExecInstant>,
    counters: WorkerCounters,
    stats: FaultStats,
}

impl WorkerLog {
    fn now(&self) -> Option<f64> {
        self.epoch.map(|e| e.elapsed().as_secs_f64())
    }
}

impl Observer for WorkerLog {
    fn instant(&mut self, kind: InstantKind, task: u32) {
        if let Some(time) = self.now() {
            self.instants.push(ExecInstant { kind, task, worker: self.worker, time });
        }
    }

    fn done(&mut self, task: u32) {
        if let Some(end) = self.now() {
            self.records.push(TaskRecord { task, worker: self.worker, start: self.start, end });
        }
    }
}

/// The shared executor engine behind every parallel entry point.
///
/// Workers pull tasks through the work-stealing core in [`crate::engine`];
/// each task runs inside `catch_unwind` so a panicking kernel (real or
/// injected by the [`crate::FaultPlan`]) can be retried against a
/// pre-execution snapshot of its write-set, reported as a typed error, or —
/// for poisoned workers — handed back to healthy peers. A watchdog thread
/// converts lack of progress into [`ExecError::Stalled`].
fn run_engine(
    graph: &TaskGraph,
    a: &mut TiledMatrix,
    opts: &ExecOptions,
    trace: bool,
) -> Result<(TFactors, FaultStats, Option<ExecTrace>), ExecError> {
    let mut f = TFactors::allocate_for(graph);
    let limit = graph.tasks().len();
    let (stats, exec_trace) = run_engine_segment(graph, a, &mut f, opts, trace, None, limit)?;
    Ok((f, stats, exec_trace))
}

/// The engine behind [`run_engine`] and the checkpoint/resume drivers in
/// [`crate::checkpoint`]: run the sub-DAG of tasks with index `< limit`
/// that are not already marked in `completed`, writing into a
/// caller-provided [`TFactors`]. See [`DagRun::new`] for why a prefix at a
/// panel boundary quiesces into a consistent, resumable state.
pub(crate) fn run_engine_segment(
    graph: &TaskGraph,
    a: &mut TiledMatrix,
    f: &mut TFactors,
    opts: &ExecOptions,
    trace: bool,
    completed: Option<&[bool]>,
    limit: usize,
) -> Result<(FaultStats, Option<ExecTrace>), ExecError> {
    let nthreads = opts.nthreads.max(1);
    let b = graph.b();
    let ib = opts.ib.unwrap_or(b);
    if a.mt() != graph.mt() || a.nt() != graph.nt() || a.b() != b {
        return Err(ExecError::Config {
            message: format!(
                "matrix is {}x{} tiles of size {} but the graph was built for {}x{} of size {b}",
                a.mt(),
                a.nt(),
                a.b(),
                graph.mt(),
                graph.nt()
            ),
        });
    }
    if ib == 0 || ib > b {
        return Err(ExecError::Config {
            message: format!("inner block size {ib} must be in 1..={b}"),
        });
    }
    let n = graph.tasks().len();
    if limit > n {
        return Err(ExecError::Config {
            message: format!("segment limit {limit} exceeds the task count {n}"),
        });
    }
    if completed.is_some_and(|c| c.len() != n) {
        return Err(ExecError::Config {
            message: format!(
                "completed bitmap has {} entries for {n} tasks",
                completed.map_or(0, <[bool]>::len)
            ),
        });
    }
    if opts.plan.as_ref().is_some_and(|p| p.loses_any_completion()) && opts.watchdog.is_none() {
        return Err(ExecError::Config {
            message: "a fault plan that loses completions requires a watchdog".to_string(),
        });
    }
    let recovery = opts.recovery_enabled();

    let epoch = Instant::now();
    let store = open_store(graph, a, f, ib, opts.resident_budget, opts.spill_dir.as_deref())
        .map_err(|message| ExecError::SpillIo { message })?;
    let (run, frontier) = DagRun::new(graph, store, opts, completed, limit);
    let (sched, seats) = Sched::new(nthreads, opts.policy != SchedPolicy::Fifo);
    for tid in frontier {
        sched.push((tid, run.ranks[tid as usize]));
    }
    let alive = AtomicUsize::new(nthreads);
    let error: Mutex<Option<ExecError>> = Mutex::new(None);
    let mut logs: Vec<WorkerLog> = (0..nthreads)
        .map(|me| WorkerLog {
            epoch: trace.then_some(epoch),
            worker: me as u16,
            start: 0.0,
            records: Vec::new(),
            instants: Vec::new(),
            counters: WorkerCounters::default(),
            stats: FaultStats::default(),
        })
        .collect();

    std::thread::scope(|scope| {
        if let Some(window) = opts.watchdog {
            let (run, error) = (&run, &error);
            scope.spawn(move || {
                // Short poll slices, and shutdown checked *before* each
                // sleep: a worker error (`halted`) or completion must not
                // pay another full poll interval of join latency. The stall
                // window itself is still measured against `last_change`, so
                // polling more often than window/8 only sharpens detection.
                let poll = (window / 8).clamp(Duration::from_millis(1), Duration::from_millis(5));
                let mut last = run.remaining.load(Ordering::Acquire);
                let mut last_change = Instant::now();
                loop {
                    let rem = run.remaining.load(Ordering::Acquire);
                    if rem == 0 || run.halted.load(Ordering::Acquire) {
                        break;
                    }
                    if rem != last {
                        last = rem;
                        last_change = Instant::now();
                    } else if last_change.elapsed() >= window {
                        let report = run.stall_report(StallCause::WatchdogTimeout, window, rem);
                        set_error(error, ExecError::Stalled(report));
                        run.halted.store(true, Ordering::Release);
                        break;
                    }
                    std::thread::sleep(poll);
                }
            });
        }
        for (mut seat, log) in seats.into_iter().zip(logs.iter_mut()) {
            let (run, sched, alive, error) = (&run, &sched, &alive, &error);
            scope.spawn(move || {
                // Expected (caught) panics shouldn't spam stderr through
                // the panic hook while recovery is handling them — but
                // only on this worker thread; the rest of the process
                // keeps its backtraces.
                let _quiet = recovery.then(QuietPanics::engage);
                seat.poisoned = run.plan.as_ref().is_some_and(|p| p.is_poisoned(seat.me));
                let mut strikes = 0u32;
                worker_loop(sched, &mut seat, &run.halted, Some(&run.remaining), |tid, seat| {
                    if let Some(t) = log.now() {
                        log.start = t;
                    }
                    match run.step(graph, tid, sched, seat, |s, rank| (s, rank), log) {
                        Step::Done => true,
                        Step::Requeue => {
                            strikes += 1;
                            seat.stats.tasks_reexecuted += 1;
                            seat.counters.requeues += 1;
                            log.instant(InstantKind::Requeue, tid);
                            sched.push((tid, run.ranks[tid as usize]));
                            // After POISON_STRIKES the poisoned worker
                            // "dies"; its queued work stays stealable by
                            // healthy peers.
                            let dies = strikes >= POISON_STRIKES;
                            seat.stats.workers_lost += dies as u32;
                            !dies
                        }
                        // Someone else halted the run and recorded why; the
                        // task is untouched and not done.
                        Step::Aborted => false,
                        Step::Failed(e) => {
                            set_error(error, e);
                            run.halted.store(true, Ordering::Release);
                            false
                        }
                    }
                });
                log.counters = seat.counters;
                log.stats = seat.stats;
                if alive.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let rem = run.remaining.load(Ordering::Acquire);
                    if rem > 0 && !run.halted.load(Ordering::Acquire) {
                        let report =
                            run.stall_report(StallCause::AllWorkersExited, Duration::ZERO, rem);
                        set_error(error, ExecError::Stalled(report));
                        run.halted.store(true, Ordering::Release);
                    }
                }
            });
        }
    });
    // Dissolve the paged cache before anything touches `a`/`f` again —
    // on success *and* on error paths, so the matrix is never left hollow.
    // The traffic summary is snapshotted first: unpage mass-faults every
    // slot back in and would otherwise inflate the counters.
    let mut run = run;
    let spill = run.store.spill_summary();
    let unpage_err = run.store.unpage(a, f).err();
    if let Some(e) = error.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
        return Err(e);
    }
    if let Some(message) = unpage_err {
        return Err(ExecError::SpillIo { message });
    }
    let rem = run.remaining.load(Ordering::Acquire);
    if rem != 0 {
        // Unreachable by construction (every exit path above reports an
        // error first), but kept as a typed error rather than an assert.
        let report = run.stall_report(StallCause::AllWorkersExited, Duration::ZERO, rem);
        return Err(ExecError::Stalled(report));
    }
    let mut stats = FaultStats::default();
    for log in &logs {
        stats.merge(&log.stats);
    }
    let exec_trace = trace.then(|| {
        let wall = epoch.elapsed().as_secs_f64();
        let counters = logs.iter().map(|l| l.counters).collect();
        let mut records = Vec::new();
        let mut instants = Vec::new();
        for log in logs {
            records.extend(log.records);
            instants.extend(log.instants);
        }
        records.sort_by(|a, b| a.start.total_cmp(&b.start));
        instants.sort_by(|a, b| a.time.total_cmp(&b.time));
        ExecTrace { nthreads, policy: opts.policy, records, instants, counters, wall, spill }
    });
    Ok((stats, exec_trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::ElimOp;
    use hqr_tile::DenseMatrix;

    fn parallel(g: &TaskGraph, a: &mut TiledMatrix, nthreads: usize) -> TFactors {
        try_execute_with(g, a, &ExecOptions::with_threads(nthreads)).unwrap().0
    }

    fn traced(g: &TaskGraph, a: &mut TiledMatrix, nthreads: usize) -> ExecTrace {
        try_execute_traced(g, a, &ExecOptions::with_threads(nthreads)).unwrap().2
    }

    fn flat_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
        let mut v = Vec::new();
        for k in 0..mt.min(nt) {
            for i in (k + 1)..mt {
                v.push(ElimOp::new(k as u32, i as u32, k as u32, true));
            }
        }
        v
    }

    fn binary_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
        // Per-panel binary tree with TT kernels.
        let mut v = Vec::new();
        for k in 0..mt.min(nt) {
            let rows: Vec<u32> = (k as u32..mt as u32).collect();
            let mut stride = 1;
            while stride < rows.len() {
                let mut idx = 0;
                while idx + stride < rows.len() {
                    v.push(ElimOp::new(k as u32, rows[idx + stride], rows[idx], false));
                    idx += 2 * stride;
                }
                stride *= 2;
            }
        }
        v
    }

    /// R from the serial tile factorization must match the dense reference
    /// up to row signs, and the norm must be preserved.
    fn check_r_against_reference(mt: usize, nt: usize, b: usize, elims: &[ElimOp]) {
        let mut a = hqr_tile::TiledMatrix::random(mt, nt, b, 7);
        let a0 = a.to_dense();
        let g = TaskGraph::build(mt, nt, b, elims);
        let _f = execute_serial(&g, &mut a);
        let r = a.to_dense().upper_triangle();
        let (_, r_ref) = hqr_kernels::reference::dense_householder_qr(&a0);
        for d in 0..(nt * b).min(mt * b) {
            let sign = if r.get(d, d) * r_ref.get(d, d) >= 0.0 { 1.0 } else { -1.0 };
            for j in d..nt * b {
                let diff = (r.get(d, j) - sign * r_ref.get(d, j)).abs();
                assert!(diff < 1e-11, "R mismatch at ({d},{j}): {diff}");
            }
        }
    }

    #[test]
    fn serial_flat_tree_r_matches_reference() {
        check_r_against_reference(4, 3, 4, &flat_elims(4, 3));
    }

    #[test]
    fn serial_binary_tree_r_matches_reference() {
        check_r_against_reference(5, 3, 4, &binary_elims(5, 3));
    }

    #[test]
    fn serial_square_matrix() {
        check_r_against_reference(4, 4, 3, &flat_elims(4, 4));
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        // The DAG fixes the arithmetic: any execution order produces
        // bitwise-identical tiles.
        let (mt, nt, b) = (6, 4, 4);
        let g = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
        let mut a1 = hqr_tile::TiledMatrix::random(mt, nt, b, 11);
        let mut a2 = a1.clone();
        let _f1 = execute_serial(&g, &mut a1);
        let _f2 = parallel(&g, &mut a2, 4);
        assert_eq!(a1.to_dense().data(), a2.to_dense().data(), "parallel != serial");
    }

    #[test]
    fn parallel_flat_matches_serial() {
        let (mt, nt, b) = (8, 2, 3);
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let mut a1 = hqr_tile::TiledMatrix::random(mt, nt, b, 13);
        let mut a2 = a1.clone();
        let _ = execute_serial(&g, &mut a1);
        let _ = parallel(&g, &mut a2, 3);
        assert_eq!(a1.to_dense().data(), a2.to_dense().data());
    }

    #[test]
    fn factorization_preserves_column_norms_of_r() {
        // ‖R e_j‖ = ‖A e_j‖ since Q is orthogonal — true per panel head.
        let (mt, nt, b) = (4, 2, 4);
        let mut a = hqr_tile::TiledMatrix::random(mt, nt, b, 17);
        let a0 = a.to_dense();
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let _ = execute_serial(&g, &mut a);
        let r = a.to_dense().upper_triangle();
        // First column: |r00| == ‖a[:,0]‖.
        let col0: f64 = (0..mt * b).map(|i| a0.get(i, 0).powi(2)).sum::<f64>().sqrt();
        assert!((r.get(0, 0).abs() - col0).abs() < 1e-12);
    }

    #[test]
    fn tfactors_allocation_is_sparse() {
        let g = TaskGraph::build(3, 2, 2, &flat_elims(3, 2));
        let f = TFactors::allocate_for(&g);
        // GEQRT only on diagonal rows (flat tree = TS everywhere).
        assert!(f.tg(0, 0).is_some());
        assert!(f.tg(1, 1).is_some());
        assert!(f.tg(2, 0).is_none(), "TS victims have no GEQRT T");
        assert!(f.tk(1, 0).is_some());
        assert!(f.tk(0, 0).is_none(), "the diagonal row is never killed");
    }

    #[test]
    fn single_thread_engine_matches_serial() {
        let g = TaskGraph::build(3, 3, 2, &flat_elims(3, 3));
        let mut a1 = hqr_tile::TiledMatrix::random(3, 3, 2, 19);
        let mut a2 = a1.clone();
        let _ = execute_serial(&g, &mut a1);
        let _ = parallel(&g, &mut a2, 1);
        assert_eq!(a1.to_dense().data(), a2.to_dense().data());
    }

    #[test]
    fn traced_execution_matches_untraced() {
        let (mt, nt, b) = (6, 4, 4);
        let g = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
        let mut a1 = hqr_tile::TiledMatrix::random(mt, nt, b, 29);
        let mut a2 = a1.clone();
        let _ = parallel(&g, &mut a1, 3);
        let trace = traced(&g, &mut a2, 3);
        assert_eq!(a1.to_dense().data(), a2.to_dense().data());
        assert_eq!(trace.records.len(), g.tasks().len(), "every task recorded");
        assert_eq!(trace.nthreads, 3);
        let util = trace.utilization();
        assert!(util > 0.0 && util <= 1.0 + 1e-9, "utilization {util}");
        // Records are non-overlapping per worker.
        let mut last_end = [0.0f64; 3];
        for r in &trace.records {
            assert!(r.start >= last_end[r.worker as usize] - 1e-9);
            assert!(r.end >= r.start);
            last_end[r.worker as usize] = r.end;
        }
        // Kernel-time histogram covers all busy time.
        let per_kind: f64 = trace.kernel_seconds(g.tasks()).iter().sum();
        let busy: f64 = trace.per_worker_busy().iter().sum();
        assert!((per_kind - busy).abs() < 1e-9);
    }

    #[test]
    fn traced_single_thread_works() {
        let g = TaskGraph::build(3, 2, 3, &flat_elims(3, 2));
        let mut a = hqr_tile::TiledMatrix::random(3, 2, 3, 30);
        let trace = traced(&g, &mut a, 1);
        assert_eq!(trace.records.len(), g.tasks().len());
        assert_eq!(trace.nthreads, 1);
    }

    #[test]
    fn worker_counters_merge_adds_every_field() {
        let a = WorkerCounters {
            local_pops: 1,
            injector_pops: 2,
            steals: 3,
            panics_caught: 4,
            retries: 5,
            requeues: 6,
            tile_faults: 7,
            prefetch_hits: 8,
            tile_spills: 9,
        };
        let b = WorkerCounters {
            local_pops: 10,
            injector_pops: 20,
            steals: 30,
            panics_caught: 40,
            retries: 50,
            requeues: 60,
            tile_faults: 70,
            prefetch_hits: 80,
            tile_spills: 90,
        };
        let mut sum = a;
        sum.merge(&b);
        let expect = WorkerCounters {
            local_pops: 11,
            injector_pops: 22,
            steals: 33,
            panics_caught: 44,
            retries: 55,
            requeues: 66,
            tile_faults: 77,
            prefetch_hits: 88,
            tile_spills: 99,
        };
        assert_eq!(sum, expect);
    }

    #[test]
    fn all_policies_produce_identical_factorizations_and_report_themselves() {
        let (mt, nt, b) = (8, 3, 4);
        let g = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
        let a0 = hqr_tile::TiledMatrix::random(mt, nt, b, 37);
        let mut serial = a0.clone();
        let _ = execute_serial(&g, &mut serial);
        let reference = serial.to_dense();
        for policy in SchedPolicy::ALL {
            let mut a = a0.clone();
            let opts = ExecOptions { nthreads: 4, policy, ..Default::default() };
            let (_, _, tr) = try_execute_traced(&g, &mut a, &opts).unwrap();
            assert_eq!(tr.policy, policy, "trace must report the policy that ran");
            assert_eq!(reference.data(), a.to_dense().data(), "{policy:?} diverged from serial");
            // Counter accounting holds under every acquisition path.
            let acquired: u64 =
                tr.counters.iter().map(|c| c.local_pops + c.injector_pops + c.steals).sum();
            assert_eq!(acquired, g.tasks().len() as u64);
        }
    }

    #[test]
    fn zero_matrix_stays_zero() {
        let (mt, nt, b) = (3, 2, 3);
        let mut a = hqr_tile::TiledMatrix::zeros(mt, nt, b);
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let _ = execute_serial(&g, &mut a);
        assert_eq!(a.frob_norm(), 0.0);
    }

    #[test]
    fn orthogonal_transform_preserves_total_norm() {
        let (mt, nt, b) = (5, 2, 3);
        let mut a = hqr_tile::TiledMatrix::random(mt, nt, b, 23);
        let before = a.frob_norm();
        let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
        let _ = execute_serial(&g, &mut a);
        // After factorization the matrix holds R (upper) and V blocks; the
        // R part alone cannot exceed, and its columns' norms match A's.
        let r = a.to_dense().upper_triangle();
        assert!(r.frob_norm() <= before + 1e-12);
        let _ = DenseMatrix::zeros(1, 1);
    }
}
