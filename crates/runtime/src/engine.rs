//! The one work-stealing core behind every DAG runner in this crate: the
//! single-job executor ([`crate::exec`]), the multi-job
//! [`crate::pool::JobPool`], and [`crate::apply_graph::apply_q_parallel`].
//!
//! * [`Sched`] owns the per-worker LIFO deques and the one shared ready
//!   queue. [`Sched::acquire`] takes work local-first, then from the
//!   shared queue, then from peers; [`Sched::release`] hands newly-ready
//!   successors out; [`worker_loop`] adds the idle ladder.
//! * [`DagRun`] is one factorization's progress (in-degrees, done flags,
//!   remaining count, halt flag) plus its tile store and attempt settings.
//!   [`DagRun::step`] runs one ready task through the attempt ladder,
//!   releases its successors, and maps a failed task to one [`ExecError`].
//!
//! The runners differ only in the closure they hand [`worker_loop`]: the
//! executor records traces and requeues a poisoned worker's tasks; the pool
//! resolves which job a queue entry belongs to and enforces its deadline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use crossbeam_utils::Backoff;

use crate::error::{ExecError, StallCause, StallReport};
use crate::exec::{InstantKind, TFactors, WorkerCounters};
use crate::fault::{ExecOptions, FaultPlan, FaultStats, INJECTED_FAULT_PREFIX};
use crate::graph::TaskGraph;
use crate::integrity::{GuardStore, IntegrityMode};
use crate::sched;
use crate::store::{TaskSnapshot, TileStore};
use crate::task::Task;
use hqr_kernels::KernelKind;
use hqr_tile::TiledMatrix;

/// Nap length for an idle worker whose exponential backoff ladder is
/// exhausted: long enough to stop burning the core through a serial tail,
/// short enough that newly released work (and a halt) is observed almost
/// immediately.
pub(crate) const IDLE_PARK: Duration = Duration::from_micros(100);

/// Lock a mutex, tolerating poisoning: the engine's own `catch_unwind`
/// keeps kernel panics from unwinding through a held lock, but a daemon
/// hosting many jobs must never let one panicked thread wedge the whole
/// process behind a poisoned mutex.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Bytes resident for one run: matrix tiles plus the factor buffers its
/// graph allocates (guards are negligible next to either). The executor's
/// page-or-resident choice and the pool's admission both price a run by it.
pub(crate) fn working_set_bytes(graph: &TaskGraph) -> u64 {
    let bb = (graph.b() * graph.b() * std::mem::size_of::<f64>()) as u64;
    let tiles = (graph.mt() * graph.nt()) as u64;
    let mut factor_bufs = 0u64;
    for t in graph.tasks() {
        factor_bufs += match t.kind {
            KernelKind::Geqrt => 2,
            KernelKind::Tsqrt | KernelKind::Ttqrt => 1,
            _ => 0,
        };
    }
    (tiles + factor_bufs) * bb
}

/// The tile store for one run: paged against a spill file when a resident
/// `budget` is set below the run's working set, flat and resident otherwise
/// (zero per-access overhead; bitwise-identical results either way).
pub(crate) fn open_store(
    graph: &TaskGraph,
    a: &mut TiledMatrix,
    f: &mut TFactors,
    ib: usize,
    budget: Option<u64>,
    spill_dir: Option<&Path>,
) -> Result<TileStore, String> {
    match budget.filter(|&rb| rb < working_set_bytes(graph)) {
        Some(rb) => TileStore::paged_with_ib(a, f, ib, rb, spill_dir),
        None => Ok(TileStore::with_ib(a, f, ib)),
    }
}

/// The shared ready queue feeding idle workers: a FIFO injector (with
/// batch steals into the thief's deque), or a min-heap on a per-entry key
/// so releases are handed out best-key-first instead of in arrival order.
enum GlobalQueue<T, K> {
    Fifo(Injector<T>),
    Prio(Mutex<BinaryHeap<Reverse<(K, T)>>>),
}

/// One worker's place at a [`Sched`]: its index, its LIFO deque, and what
/// it has counted so far.
pub(crate) struct Seat<T> {
    pub me: usize,
    pub local: Worker<T>,
    pub counters: WorkerCounters,
    pub stats: FaultStats,
    /// The fault plan poisons this worker (executor only).
    pub poisoned: bool,
}

/// Work-stealing scheduler over queue items `T` (a task id, or a task of
/// one job) ranked by keys `K` on the shared heap.
///
/// Released successors go to the releasing worker's LIFO deque, so a core
/// preferentially runs close successors of the task it just finished —
/// the data-reuse heuristic of DAGuE (§IV-C). Idle workers take from the
/// shared queue, then steal FIFO from peers.
pub(crate) struct Sched<T, K = u64> {
    global: GlobalQueue<T, K>,
    stealers: Vec<Stealer<T>>,
}

impl<T: Copy + Ord + Send, K: Copy + Ord> Sched<T, K> {
    /// A scheduler for `nthreads` workers plus their seats. `prio` selects
    /// the keyed heap over the FIFO injector.
    pub fn new(nthreads: usize, prio: bool) -> (Self, Vec<Seat<T>>) {
        let global = if prio {
            GlobalQueue::Prio(Mutex::new(BinaryHeap::new()))
        } else {
            GlobalQueue::Fifo(Injector::new())
        };
        let seats: Vec<Seat<T>> = (0..nthreads)
            .map(|me| Seat {
                me,
                local: Worker::new_lifo(),
                counters: WorkerCounters::default(),
                stats: FaultStats::default(),
                poisoned: false,
            })
            .collect();
        let stealers = seats.iter().map(|s| s.local.stealer()).collect();
        (Sched { global, stealers }, seats)
    }

    /// Publish an item on the shared queue under its key (the FIFO
    /// injector ignores the key).
    pub fn push(&self, (item, key): (T, K)) {
        match &self.global {
            GlobalQueue::Fifo(inj) => inj.push(item),
            GlobalQueue::Prio(q) => relock(q).push(Reverse((key, item))),
        }
    }

    /// Take the next shared item: lowest key first for the heap; for the
    /// FIFO injector a batch is stolen into `dest` and its first item
    /// returned.
    fn take(&self, dest: &Worker<T>) -> Steal<T> {
        match &self.global {
            GlobalQueue::Fifo(inj) => inj.steal_batch_and_pop(dest),
            GlobalQueue::Prio(q) => match relock(q).pop() {
                Some(Reverse((_, item))) => Steal::Success(item),
                None => Steal::Empty,
            },
        }
    }

    /// Acquire one item for `seat`: its own deque, then the shared queue,
    /// then a peer's deque, attributing the source in its counters.
    /// Retries transient races ([`Steal::Retry`]) until every source gives
    /// a definite answer; `None` means all of them were empty.
    pub fn acquire(&self, seat: &mut Seat<T>) -> Option<T> {
        if let Some(item) = seat.local.pop() {
            seat.counters.local_pops += 1;
            return Some(item);
        }
        loop {
            let mut contended = false;
            match self.take(&seat.local) {
                Steal::Success(item) => {
                    seat.counters.injector_pops += 1;
                    return Some(item);
                }
                Steal::Retry => contended = true,
                Steal::Empty => {}
            }
            // Start the victim scan just past `me` and wrap, so a herd of
            // idle workers fans out across victims instead of all draining
            // the lowest-index deques first.
            let n = self.stealers.len();
            for off in 1..n {
                match self.stealers[(seat.me + off) % n].steal() {
                    Steal::Success(item) => {
                        seat.counters.steals += 1;
                        return Some(item);
                    }
                    Steal::Retry => contended = true,
                    Steal::Empty => {}
                }
            }
            if !contended {
                return None;
            }
        }
    }

    /// Count down the in-degree of each of `succs` and hand out those that
    /// became ready. `ready` maps a ready task to its item and key, or to
    /// `None` to leave it pending. Under the FIFO injector every release
    /// goes to `local`; under the heap the worker keeps only the
    /// best-keyed release and publishes the rest, so the most urgent work
    /// is never buried in one deque.
    pub fn release(
        &self,
        local: &Worker<T>,
        succs: &[u32],
        indeg: &[AtomicU32],
        mut ready: impl FnMut(u32) -> Option<(T, K)>,
    ) {
        let mut keep: Option<(T, K)> = None;
        for &s in succs {
            if indeg[s as usize].fetch_sub(1, Ordering::AcqRel) != 1 {
                continue;
            }
            let Some(e) = ready(s) else { continue };
            match (&self.global, keep) {
                (GlobalQueue::Fifo(_), _) => local.push(e.0),
                (_, None) => keep = Some(e),
                (_, Some(k)) if e.1 < k.1 => {
                    self.push(k);
                    keep = Some(e);
                }
                (_, Some(_)) => self.push(e),
            }
        }
        if let Some((item, _)) = keep {
            local.push(item);
        }
    }
}

/// The one worker loop: acquire an item and hand it to `run` until `stop`
/// is raised, `run` returns false, or — with `remaining` given — no work
/// is left. An idle worker climbs a spin/yield ladder, then parks in
/// bounded [`IDLE_PARK`] naps instead of burning its core through a long
/// serial tail; `stop` is re-checked before each nap so a halt never pays
/// another park of shutdown latency.
pub(crate) fn worker_loop<T: Copy + Ord + Send, K: Copy + Ord>(
    sched: &Sched<T, K>,
    seat: &mut Seat<T>,
    stop: &AtomicBool,
    remaining: Option<&AtomicUsize>,
    mut run: impl FnMut(T, &mut Seat<T>) -> bool,
) {
    let backoff = Backoff::new();
    // `stop` publishes no data of its own: Acquire pairs with the Release
    // or SeqCst store that raises it, and only its value is read.
    while !stop.load(Ordering::Acquire) {
        let Some(item) = sched.acquire(seat) else {
            if remaining.is_some_and(|r| r.load(Ordering::Acquire) == 0) {
                break;
            }
            if backoff.is_completed() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                std::thread::sleep(IDLE_PARK);
            } else {
                backoff.snooze();
            }
            continue;
        };
        backoff.reset();
        if !run(item, seat) {
            break;
        }
    }
}

/// Where [`DagRun::step`] reports trace events: the executor's per-worker
/// log, or `()` for the untraced pool.
pub(crate) trait Observer {
    /// A scheduler instant (fault, retry, SDC, spill) on task `tid`.
    fn instant(&mut self, kind: InstantKind, tid: u32);
    /// `tid`'s attempt ladder completed; its successors are next.
    fn done(&mut self, tid: u32);
}

impl Observer for () {
    fn instant(&mut self, _: InstantKind, _: u32) {}
    fn done(&mut self, _: u32) {}
}

/// How [`DagRun::step`] ended for one task.
pub(crate) enum Step {
    /// The task completed and its successors were released.
    Done,
    /// A poisoned worker handed the task back; the caller re-publishes it.
    Requeue,
    /// The run was halted between attempts; the task is not done.
    Aborted,
    /// The task failed for good; the caller records the error and halts.
    Failed(ExecError),
}

/// One run's DAG progress and attempt settings: what the executor keeps
/// per segment and the pool per active job.
pub(crate) struct DagRun {
    pub store: TileStore,
    /// One guard per slot when integrity checking is on.
    guards: Option<GuardStore>,
    pub plan: Option<FaultPlan>,
    /// Static priority keys under the run's policy (lower sorts first).
    pub ranks: Vec<u64>,
    indeg: Vec<AtomicU32>,
    pub done: Vec<AtomicBool>,
    pub remaining: AtomicUsize,
    pub halted: AtomicBool,
    /// Tasks at or past this index stay pending (segment boundary).
    limit: usize,
    /// Per-task retry budget after a caught panic or detected corruption.
    max_retries: u32,
    /// Snapshot/rollback enabled (retries or a fault plan are configured).
    recovery: bool,
    /// [`IntegrityMode::Full`]: verify input guards before launching.
    full_integrity: bool,
}

impl DagRun {
    /// Set up the run of tasks `< limit` not marked in `completed` (which
    /// must be closed under predecessors) under `opts`'s policy, retry,
    /// fault-plan and integrity settings. Returns the run and its ready
    /// frontier, whose slots are already queued for prefetch.
    ///
    /// Program order is panel-major and topological, so a prefix `0..limit`
    /// at a panel boundary is dependency-closed. A remaining task's
    /// effective in-degree counts only its not-yet-completed predecessors.
    pub fn new(
        graph: &TaskGraph,
        store: TileStore,
        opts: &ExecOptions,
        completed: Option<&[bool]>,
        limit: usize,
    ) -> (DagRun, Vec<u32>) {
        let n = graph.tasks().len();
        let is_done = |tid: usize| completed.is_some_and(|c| c[tid]);
        let mut indeg0: Vec<u32> = graph.in_degrees().to_vec();
        for t in (0..n).filter(|&t| is_done(t)) {
            for &s in graph.successors(t) {
                indeg0[s as usize] -= 1;
            }
        }
        let frontier: Vec<u32> =
            (0..limit).filter(|&t| indeg0[t] == 0 && !is_done(t)).map(|t| t as u32).collect();
        for &tid in &frontier {
            store.prefetch_task(&graph.tasks()[tid as usize]);
        }
        let run = DagRun {
            guards: opts.integrity.is_on().then(|| GuardStore::new(graph.mt(), graph.nt())),
            plan: opts.plan.as_ref().filter(|p| !p.is_empty()).cloned(),
            ranks: sched::priorities(graph, opts.policy),
            indeg: indeg0.iter().map(|&d| AtomicU32::new(d)).collect(),
            done: (0..n).map(|t| AtomicBool::new(is_done(t))).collect(),
            remaining: AtomicUsize::new((0..limit).filter(|&t| !is_done(t)).count()),
            halted: AtomicBool::new(false),
            limit,
            max_retries: opts.max_retries,
            recovery: opts.recovery_enabled(),
            full_integrity: opts.integrity == IntegrityMode::Full,
            store,
        };
        (run, frontier)
    }

    /// Run ready task `tid` on `seat`: the attempt ladder, then — on
    /// success — mark it done and release its successors through `sched`.
    /// `tag` maps a task id and its rank to the run's queue item and key.
    ///
    /// `tid` must be ready (every predecessor completed, `tid` itself not),
    /// which DAG order turns into exclusive access to its read/write sets.
    pub fn step<T: Copy + Ord + Send, K: Copy + Ord>(
        &self,
        graph: &TaskGraph,
        tid: u32,
        sched: &Sched<T, K>,
        seat: &mut Seat<T>,
        tag: impl Fn(u32, u64) -> (T, K),
        obs: &mut impl Observer,
    ) -> Step {
        match self.attempt(&graph.tasks()[tid as usize], tid, seat, obs) {
            Step::Done => {
                obs.done(tid);
                self.done[tid as usize].store(true, Ordering::Release);
                if self.plan.as_ref().is_some_and(|p| p.loses_completion(tid)) {
                    // Dropped completion: successors are never released
                    // and `remaining` stays high; the (mandatory) watchdog
                    // reports the stall.
                    return Step::Done;
                }
                sched.release(&seat.local, graph.successors(tid as usize), &self.indeg, |s| {
                    let s_ix = s as usize;
                    (s_ix < self.limit).then(|| {
                        // The successor just became ready: prefetch its
                        // slots so the fault-in overlaps whatever runs first.
                        self.store.prefetch_task(&graph.tasks()[s_ix]);
                        tag(s, self.ranks[s_ix])
                    })
                });
                let before = self.remaining.fetch_sub(1, Ordering::AcqRel);
                debug_assert!(before > 0, "completed more tasks than the run has");
                Step::Done
            }
            other => other,
        }
    }

    /// Run one ready task through the full attempt ladder: pin (paged
    /// runs), optional input-guard pre-check, write-set snapshot,
    /// `catch_unwind` around the kernel (with planned fault/SDC
    /// injection), output-guard verification, and rollback + bounded retry.
    /// [`Step::Done`] here means only that the task's kernel succeeded.
    fn attempt(
        &self,
        t: &Task,
        tid: u32,
        seat: &mut Seat<impl Sized>,
        obs: &mut impl Observer,
    ) -> Step {
        let fail = Step::Failed;
        let sdc = |attempts: u32, slot: String, message: String| {
            fail(ExecError::SdcDetected { task: tid, kernel: t.kind, slot, attempts, message })
        };
        // Paged runs: pin every slot the task touches (faulting misses in
        // from the spill file) before anything — guard checks, snapshot,
        // kernel — reads or writes them. The pins outlive the whole ladder,
        // so evicted buffers can't move under a snapshot's raw pointers.
        // Fallible, not panicking: this runs outside `catch_unwind`.
        let pins = match self.store.pin_task(t) {
            Ok(p) => p,
            Err(message) => return fail(ExecError::SpillIo { message }),
        };
        if let Some(p) = &pins {
            seat.counters.tile_faults += p.demand_faults;
            seat.counters.prefetch_hits += p.prefetch_hits;
            seat.counters.tile_spills += p.evictions;
            if p.demand_faults > 0 {
                obs.instant(InstantKind::TileFaulted, tid);
            }
            if p.evictions > 0 {
                obs.instant(InstantKind::TileSpilled, tid);
            }
        }
        if self.full_integrity {
            // SAFETY: `tid` is ready, so DAG order guarantees no concurrent
            // writer of its read or write set.
            if let Some(m) =
                self.guards.as_ref().and_then(|g| unsafe { g.verify_inputs(&self.store, t) })
            {
                // Corrupted *inputs* cannot be healed by re-running this task.
                seat.stats.sdc_detected += 1;
                obs.instant(InstantKind::SdcDetected, tid);
                return sdc(0, m.label(), m.mismatch.to_string());
            }
        }
        // SAFETY: exclusive access per the `step` contract — for the kernel
        // and the snapshot alike.
        let snap = self.recovery.then(|| unsafe { self.store.snapshot(t) });
        let mut attempt = 0u32;
        let mut recomputed_sdc = false;
        loop {
            // Between attempts the write set is consistent (pristine or
            // rolled back), so this is a safe point to yield to a halt
            // (cancel, deadline, drain, or a sibling's error) instead of
            // burning through the whole retry budget first.
            if self.halted.load(Ordering::Acquire) {
                return Step::Aborted;
            }
            let inject = seat.poisoned
                || self.plan.as_ref().is_some_and(|p| p.should_fail_attempt(tid, attempt));
            let run = catch_unwind(AssertUnwindSafe(|| {
                if inject {
                    panic!(
                        "{INJECTED_FAULT_PREFIX}: task {tid} attempt {attempt} on worker {}",
                        seat.me
                    );
                }
                // SAFETY: DAG order, as above.
                unsafe { self.store.run_task(t) };
            }));
            let retry_kind = match run {
                Ok(()) => {
                    // Kernel-postcondition hook: refresh the write-set
                    // guards from the fresh output while it is "hot". The
                    // window between this hook and the commit-time check
                    // below is where an SDC strike lands.
                    if let Some(g) = &self.guards {
                        // SAFETY: DAG order, as above.
                        unsafe { g.refresh_task(&self.store, t) };
                    }
                    if attempt == 0 {
                        if let Some(fault) = self.plan.as_ref().and_then(|p| p.sdc_for(tid)) {
                            // The strike happens regardless of the integrity
                            // mode — only the *verification* is optional.
                            // SAFETY: DAG order, as above.
                            unsafe { self.store.apply_sdc(t, &fault) };
                            seat.stats.sdc_injected += 1;
                        }
                    }
                    let found = self
                        .guards
                        .as_ref()
                        .and_then(|g| unsafe { g.verify_outputs(&self.store, t) });
                    let Some(m) = found else {
                        seat.stats.tasks_recovered += (attempt > 0) as u32;
                        seat.stats.sdc_recomputed += recomputed_sdc as u32;
                        return Step::Done;
                    };
                    seat.stats.sdc_detected += 1;
                    obs.instant(InstantKind::SdcDetected, tid);
                    self.rollback(&snap, seat);
                    if snap.is_none() || attempt >= self.max_retries {
                        // The mismatch persisted past the recompute budget
                        // (or there was no snapshot to recompute from).
                        return sdc(attempt, m.label(), m.mismatch.to_string());
                    }
                    recomputed_sdc = true;
                    InstantKind::SdcRecomputed
                }
                Err(payload) => {
                    seat.stats.panics_caught += 1;
                    seat.counters.panics_caught += 1;
                    obs.instant(InstantKind::PanicCaught, tid);
                    self.rollback(&snap, seat);
                    if seat.poisoned {
                        return Step::Requeue;
                    }
                    if snap.is_none() || attempt >= self.max_retries {
                        let (attempts, message) = (attempt + 1, panic_message(payload));
                        return fail(if self.recovery {
                            ExecError::TaskFailed { task: tid, kernel: t.kind, attempts, message }
                        } else {
                            ExecError::WorkerPanicked {
                                task: tid,
                                kernel: t.kind,
                                worker: seat.me,
                                message,
                            }
                        });
                    }
                    InstantKind::Retry
                }
            };
            attempt += 1;
            seat.stats.tasks_reexecuted += 1;
            seat.counters.retries += 1;
            obs.instant(retry_kind, tid);
        }
    }

    /// Restore a failed attempt's write set from its snapshot, if any.
    fn rollback<T>(&self, snap: &Option<TaskSnapshot>, seat: &mut Seat<T>) {
        if let Some(s) = snap {
            // SAFETY: exclusive access per the `step` contract.
            unsafe { self.store.rollback(s) };
            seat.stats.tiles_rolled_back += s.tiles() as u32;
        }
    }

    /// Diagnostic snapshot of the run's progress for [`ExecError::Stalled`].
    pub fn stall_report(
        &self,
        cause: StallCause,
        timeout: Duration,
        remaining: usize,
    ) -> StallReport {
        const CAP: usize = 16;
        let mut completed = 0;
        let mut stuck_frontier = Vec::new();
        let mut blocked = Vec::new();
        let mut truncated = false;
        for tid in 0..self.indeg.len() {
            if self.done[tid].load(Ordering::Acquire) {
                completed += 1;
                continue;
            }
            let d = self.indeg[tid].load(Ordering::Acquire);
            if d == 0 {
                if stuck_frontier.len() < CAP {
                    stuck_frontier.push(tid as u32);
                } else {
                    truncated = true;
                }
            } else if blocked.len() < CAP {
                blocked.push((tid as u32, d));
            } else {
                truncated = true;
            }
        }
        StallReport { cause, timeout, completed, remaining, stuck_frontier, blocked, truncated }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "non-string panic payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::ElimOp;

    #[test]
    fn steal_scan_starts_past_self() {
        // Regression: the victim scan used to start at index 0, so every
        // idle worker hammered the lowest-index deques first.
        let (sched, mut seats) = Sched::<u32>::new(4, false);
        for (i, s) in seats.iter().enumerate() {
            if i != 1 {
                s.local.push(i as u32 * 10);
            }
        }
        let got = sched.acquire(&mut seats[1]);
        assert_eq!(got, Some(20), "worker 1 must try worker 2 first, not worker 0");
        let c = seats[1].counters;
        assert_eq!((c.steals, c.injector_pops, c.local_pops), (1, 0, 0));
    }

    #[test]
    fn steal_scan_wraps_around() {
        let (sched, mut seats) = Sched::<u32>::new(4, false);
        seats[0].local.push(7); // only worker 0 has work
        assert_eq!(sched.acquire(&mut seats[2]), Some(7), "scan from worker 2 must wrap 3 -> 0");
        assert_eq!(seats[2].counters.steals, 1);
        // Nothing anywhere: a definite miss, with counters untouched.
        assert_eq!(sched.acquire(&mut seats[2]), None);
        assert_eq!(seats[2].counters.steals, 1);
    }

    #[test]
    fn priority_queue_pops_best_rank_first() {
        let (sched, mut seats) = Sched::<u32>::new(1, true);
        let ranks = [5u64, 1, 9, 3];
        for t in 0..4u32 {
            sched.push((t, ranks[t as usize]));
        }
        let order: Vec<u32> = std::iter::from_fn(|| sched.acquire(&mut seats[0])).collect();
        assert_eq!(order, vec![1, 3, 0, 2], "lowest key first");
        assert_eq!(seats[0].counters.injector_pops, 4);
    }

    #[test]
    fn release_keeps_best_key_under_the_heap_and_everything_under_fifo() {
        let succs = [0u32, 1, 2, 3];
        let keys = [4u64, 2, 7, 3];
        let ready = |s: u32| Some((s, keys[s as usize]));
        let indeg = || (0..4).map(|_| AtomicU32::new(1)).collect::<Vec<_>>();

        let (fifo, mut seats) = Sched::<u32>::new(1, false);
        fifo.release(&seats[0].local, &succs, &indeg(), ready);
        let order: Vec<u32> = std::iter::from_fn(|| fifo.acquire(&mut seats[0])).collect();
        assert_eq!(order, vec![3, 2, 1, 0], "every release stays local (LIFO)");
        assert_eq!(seats[0].counters.local_pops, 4);

        let (prio, mut seats) = Sched::<u32>::new(1, true);
        prio.release(&seats[0].local, &succs, &indeg(), ready);
        let order: Vec<u32> = std::iter::from_fn(|| prio.acquire(&mut seats[0])).collect();
        assert_eq!(order, vec![1, 3, 0, 2], "best key kept local, the rest by key");
        assert_eq!((seats[0].counters.local_pops, seats[0].counters.injector_pops), (1, 3));
    }

    #[test]
    fn release_leaves_unready_and_refused_successors_pending() {
        let (sched, mut seats) = Sched::<u32>::new(1, false);
        let indeg: Vec<AtomicU32> = [2u32, 1, 1].iter().map(|&d| AtomicU32::new(d)).collect();
        sched.release(&seats[0].local, &[0, 1, 2], &indeg, |s| (s != 2).then_some((s, 0)));
        assert_eq!(sched.acquire(&mut seats[0]), Some(1));
        assert_eq!(sched.acquire(&mut seats[0]), None, "task 0 still waits, task 2 was refused");
        assert_eq!(indeg[0].load(Ordering::Relaxed), 1);
    }

    /// Random valid elimination list mixing TS and TT kills.
    fn random_elims(mt: usize, nt: usize, seed: u64) -> Vec<ElimOp> {
        let mut state = seed;
        let mut next = |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % n as u64) as usize
        };
        let mut out = Vec::new();
        for k in 0..mt.min(nt) {
            let mut alive: Vec<u32> = (k as u32..mt as u32).collect();
            while alive.len() > 1 {
                let vpos = 1 + next(alive.len() - 1);
                let upos = next(vpos);
                out.push(ElimOp::new(k as u32, alive[vpos], alive[upos], false));
                alive.remove(vpos);
            }
        }
        out
    }

    #[test]
    fn working_set_counts_exactly_the_allocated_slots() {
        // The executor's page-or-resident choice used to count allocated
        // `TFactors` slots; pool admission counted factor-writing tasks.
        // One rule serves both only because the two always agree.
        let flat = |mt: usize, nt: usize| -> Vec<ElimOp> {
            (0..mt.min(nt))
                .flat_map(|k| {
                    ((k + 1)..mt).map(move |i| ElimOp::new(k as u32, i as u32, k as u32, true))
                })
                .collect()
        };
        for (seed, (mt, nt, b)) in
            [(1u64, (7, 4, 8)), (2, (5, 5, 3)), (3, (9, 2, 4)), (4, (6, 3, 5))]
        {
            for elims in [random_elims(mt, nt, seed), flat(mt, nt)] {
                let g = TaskGraph::build(mt, nt, b, &elims);
                let f = TFactors::allocate_for(&g);
                let slots = [&f.vg, &f.tg, &f.tk]
                    .iter()
                    .map(|fam| fam.iter().filter(|s| s.is_some()).count())
                    .sum::<usize>();
                let expect = ((mt * nt + slots) * b * b * 8) as u64;
                assert_eq!(working_set_bytes(&g), expect, "seed {seed}, {mt}x{nt} b={b}");
            }
        }
    }
}
