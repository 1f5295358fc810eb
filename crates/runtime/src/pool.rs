//! Multi-job work-stealing pool: one shared set of worker threads
//! multiplexing many concurrent factorization jobs.
//!
//! This is the structural refactor behind the `hqr serve` daemon. The
//! single-job engine in [`crate::exec`] borrows its graph and matrix from
//! the caller and dies with the call; the pool instead *owns* every
//! admitted job (graph, tile store, factor buffers) behind an `Arc`, so a
//! long-running process can interleave tasks from many tenants on one set
//! of cores — the paper's "keep every core busy" goal lifted from one DAG
//! to a population of DAGs.
//!
//! Robustness is per-tenant policy, reusing the PR 1–5 substrate through
//! the shared attempt ladder of the work-stealing core (`engine.rs`):
//!
//! * **admission control** — a job's working-set footprint is priced at
//!   submission; jobs that can never fit the memory budget are rejected,
//!   jobs that don't fit *right now* wait in a bounded queue;
//! * **backpressure + load shedding** — when the queue is full, an arriving
//!   higher-QoS job evicts the lowest-QoS queued job (marked [`JobState::Shed`]);
//!   equal-or-lower QoS arrivals are rejected with a typed error;
//! * **deadlines** — a per-job deadline halts the job's tasks and routes it
//!   into the retry/quarantine path, generalizing the engine watchdog;
//! * **job-level retry** — a failed or timed-out job is re-run from its
//!   pristine payload after a capped exponential backoff, and quarantined
//!   ([`JobState::Quarantined`]) once its retry budget is exhausted;
//! * **graceful drain** — stop admitting, let running jobs finish within a
//!   grace period, checkpoint the stragglers at a quiescent point (the
//!   PR-3 machinery), and persist the whole queue to one container file
//!   that a restarted service can resubmit from.
//!
//! Scheduling across jobs is QoS-major: the pool's workers run the same
//! work-stealing core as the single-job engine (`engine.rs`), with a
//! shared ready heap keyed by (QoS class, admission order, per-job policy
//! rank), so interactive jobs preempt batch work at task granularity while
//! each job internally honors its own [`SchedPolicy`]. Workers keep the
//! data-reuse LIFO deque: the best-ranked released successor stays local,
//! the rest are published to the shared heap.
//!
//! Fault plans are supported per job (failure and SDC strikes), with two
//! engine-only features rejected at submission: poisoned workers (worker
//! indices belong to one engine run) and lost completions (the pool's
//! progress accounting would wedge). Plans are also not serialized into
//! persisted queues — injection is in-process test machinery.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::checkpoint::{
    checkpoint_from_bytes, checkpoint_to_bytes, elims_from_words, elims_to_words,
    graph_fingerprint, read_checkpoint, write_checkpoint, Checkpoint, CheckpointError,
};
use crate::elim::ElimOp;
use crate::engine::{
    open_store, relock, worker_loop, working_set_bytes, DagRun, Sched, Seat, Step,
};
use crate::error::ExecError;
use crate::exec::TFactors;
use crate::fault::{ExecOptions, FaultPlan, FaultStats};
use crate::graph::TaskGraph;
use crate::integrity::IntegrityMode;
use crate::journal::{replay, result_to_bytes, Journal, JournalError, JournalEvent, ResultStore};
use crate::sched::SchedPolicy;
use crate::store::TileStore;
use hqr_tile::io::{bytes_of_u64s, u64s_of_bytes, BinFormatError, SectionReader, SectionWriter};
use hqr_tile::TiledMatrix;

/// Magic bytes opening a persisted service queue file.
pub const QUEUE_MAGIC: [u8; 8] = *b"HQRQUEUE";
/// Queue container version.
pub const QUEUE_VERSION: u32 = 1;

const QSEC_COUNT: u32 = 1;
/// Per-entry tags: entry `i` owns tags `QSEC_BASE + i*QSEC_STRIDE ..`.
const QSEC_BASE: u32 = 16;
const QSEC_STRIDE: u32 = 8;
const QOFF_META: u32 = 0;
const QOFF_TAG: u32 = 1;
const QOFF_ELIMS: u32 = 2;
const QOFF_TILES: u32 = 3;
const QOFF_CKPT: u32 = 4;
const QOFF_DEDUP: u32 = 5;

/// File name of the write-ahead journal inside a state directory.
pub const JOURNAL_FILE: &str = "journal.wal";
/// Subdirectory of the state directory holding suspension checkpoints.
pub const CKPT_DIR: &str = "ckpt";
/// Subdirectory of the state directory holding durable results.
pub const RESULTS_DIR: &str = "results";

/// Opaque identifier of a job accepted by a [`JobPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Quality-of-service class of a job — the tenant's priority tier.
///
/// Ordering is semantic: `Interactive > Normal > Batch`. The scheduler
/// serves higher classes first at *task* granularity, admission serves
/// them first from the queue, and load shedding evicts the lowest class
/// first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Throughput work; first to be shed under overload.
    Batch,
    /// The default tier.
    #[default]
    Normal,
    /// Latency-sensitive work; served first, never shed by arrivals.
    Interactive,
}

impl QosClass {
    /// Every class, lowest to highest priority.
    pub const ALL: [QosClass; 3] = [QosClass::Batch, QosClass::Normal, QosClass::Interactive];

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<QosClass> {
        match s {
            "batch" => Some(QosClass::Batch),
            "normal" => Some(QosClass::Normal),
            "interactive" => Some(QosClass::Interactive),
            _ => None,
        }
    }

    /// Canonical short name (the CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Batch => "batch",
            QosClass::Normal => "normal",
            QosClass::Interactive => "interactive",
        }
    }

    /// Min-heap key component: lower sorts first, so higher QoS gets 0.
    fn inverted(self) -> u64 {
        2 - self as u64
    }

    fn from_index(v: u64) -> Option<QosClass> {
        QosClass::ALL.get(v as usize).copied()
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a job starts from: a fresh matrix, or a suspended checkpoint.
#[derive(Clone, Debug)]
pub enum JobInput {
    /// Factor `a` according to `elims` from scratch.
    Fresh {
        /// The elimination list defining the factorization DAG.
        elims: Vec<ElimOp>,
        /// The matrix to factor.
        a: TiledMatrix,
    },
    /// Continue a factorization from a consistent checkpoint (produced by
    /// [`crate::checkpoint`] or by a drain suspension).
    Resume(Box<Checkpoint>),
}

/// Everything a tenant specifies about one factorization job: the input
/// plus per-job policy for every knob PRs 1–5 added to the engine.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// What to factor.
    pub input: JobInput,
    /// Inner block size; `None` selects the tile size (fresh jobs) or the
    /// checkpointed value (resumed jobs). A resumed job's `ib`, if given,
    /// must match the checkpoint.
    pub ib: Option<usize>,
    /// Priority tier for scheduling, admission, and shedding.
    pub qos: QosClass,
    /// Ready-queue ranking *within* this job's DAG.
    pub policy: SchedPolicy,
    /// Silent-data-corruption guarding for this job's tasks.
    pub integrity: IntegrityMode,
    /// Per-task retry budget after a caught panic or detected corruption.
    pub max_retries: u32,
    /// Job-level re-run budget: how many times a failed or timed-out job
    /// is re-run from its pristine payload before quarantine.
    pub job_retries: u32,
    /// Wall-clock budget per attempt; exceeding it halts the attempt and
    /// routes the job into the retry/quarantine path.
    pub deadline: Option<Duration>,
    /// Deterministic fault injection for this job only. Poisoned workers
    /// and lost completions are engine-only and rejected at submission;
    /// plans are never serialized into persisted queues.
    pub plan: Option<FaultPlan>,
    /// Free-form label shown by `hqr jobs`.
    pub tag: String,
    /// Client-supplied idempotency key. Submitting a spec whose key is
    /// already registered returns the original job's id instead of
    /// creating a duplicate — safe resubmission after a lost response.
    pub dedup_key: Option<String>,
}

impl JobSpec {
    /// A fresh job with default policy (normal QoS, FIFO, no integrity
    /// checking, no retries, no deadline).
    pub fn fresh(elims: Vec<ElimOp>, a: TiledMatrix) -> JobSpec {
        JobSpec {
            input: JobInput::Fresh { elims, a },
            ib: None,
            qos: QosClass::default(),
            policy: SchedPolicy::default(),
            integrity: IntegrityMode::default(),
            max_retries: 0,
            job_retries: 0,
            deadline: None,
            plan: None,
            tag: String::new(),
            dedup_key: None,
        }
    }

    /// A job resuming from `ckpt` with default policy.
    pub fn resume(ckpt: Checkpoint) -> JobSpec {
        JobSpec {
            input: JobInput::Resume(Box::new(ckpt)),
            ..JobSpec::fresh(Vec::new(), TiledMatrix::zeros(1, 1, 1))
        }
    }

    /// Serialize the spec (minus any fault plan) for the wire protocol and
    /// the persisted queue. The encoding is a section container:
    /// meta words, tag string, then either elims + tiles (fresh) or an
    /// embedded checkpoint container (resume).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SectionWriter::new(QUEUE_MAGIC, QUEUE_VERSION);
        spec_sections(&mut w, self, QSEC_BASE, 0);
        w.section(QSEC_COUNT, &bytes_of_u64s(&[1]));
        w.into_bytes()
    }

    /// Decode the inverse of [`JobSpec::to_bytes`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<JobSpec, QueueFormatError> {
        let r = SectionReader::from_bytes(bytes, QUEUE_MAGIC, QUEUE_VERSION)?;
        let (spec, _) = spec_from_sections(&r, QSEC_BASE)?;
        Ok(spec)
    }

    fn policy_word(&self) -> u64 {
        match self.policy {
            SchedPolicy::Fifo => 0,
            SchedPolicy::PanelFirst => 1,
            SchedPolicy::CriticalPath => 2,
        }
    }

    fn integrity_word(&self) -> u64 {
        match self.integrity {
            IntegrityMode::Off => 0,
            IntegrityMode::Spot => 1,
            IntegrityMode::Full => 2,
        }
    }
}

/// Lifecycle state of a job, as reported by [`JobPool::status`].
///
/// ```text
///            submit                    admit
/// (arrival) ───────► Queued ─────────────────────► Running
///              │        │ shed / cancel               │
///              │        ▼                             │ finish
///   reject     │     Shed / Cancelled                 ▼
///  (typed Err) │                                  Completed
///              │     Running ──fail/deadline──► Backoff ──admit──► Running
///                       │                          │ budget exhausted
///                       │ cancel                   ▼
///                       ▼                      Quarantined
///                   Cancelled      Running ──drain grace expired──► Suspended
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for admission (memory budget / active slot).
    Queued,
    /// Tasks are being executed by the shared pool.
    Running,
    /// Failed or timed out; waiting out the retry backoff before re-running.
    Backoff,
    /// Finished; the factors are available from [`JobPool::wait`].
    Completed,
    /// Cancelled by the tenant before completion.
    Cancelled,
    /// Evicted from the full queue by a higher-QoS arrival.
    Shed,
    /// Exhausted its job-level retry budget; the last error is recorded.
    Quarantined,
    /// Halted at a quiescent point by a drain and checkpointed; the
    /// persisted queue holds its resumable state.
    Suspended,
}

impl JobState {
    /// True when the job will never run again in this pool.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running | JobState::Backoff)
    }

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Backoff => "backoff",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Shed => "shed",
            JobState::Quarantined => "quarantined",
            JobState::Suspended => "suspended",
        }
    }

    /// Parse the inverse of [`JobState::name`].
    pub fn parse(s: &str) -> Option<JobState> {
        [
            JobState::Queued,
            JobState::Running,
            JobState::Backoff,
            JobState::Completed,
            JobState::Cancelled,
            JobState::Shed,
            JobState::Quarantined,
            JobState::Suspended,
        ]
        .into_iter()
        .find(|j| j.name() == s)
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone)]
pub enum SubmitError {
    /// The spec itself is unusable (bad elimination list, bad `ib`,
    /// engine-only fault-plan features, checkpoint mismatch, ...).
    Invalid {
        /// What was wrong.
        message: String,
    },
    /// The job's working set alone exceeds the pool's memory budget; it
    /// could never be admitted.
    OverBudget {
        /// Bytes the job needs resident.
        need: u64,
        /// The pool's configured budget.
        budget: u64,
    },
    /// The submission queue is full and the job's QoS does not dominate
    /// any queued job (backpressure: the caller should retry later).
    QueueFull {
        /// The configured queue capacity.
        cap: usize,
    },
    /// The pool is draining and admits no new work.
    Draining,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Invalid { message } => write!(f, "invalid job spec: {message}"),
            SubmitError::OverBudget { need, budget } => {
                write!(f, "job needs {need} bytes resident but the pool budget is {budget}")
            }
            SubmitError::QueueFull { cap } => {
                write!(f, "submission queue is full ({cap} jobs) and the job's QoS sheds nothing")
            }
            SubmitError::Draining => write!(f, "pool is draining; submissions are closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a persisted queue file could not be decoded.
#[derive(Debug)]
pub enum QueueFormatError {
    /// The container is unreadable or corrupt.
    Format(BinFormatError),
    /// A section decoded but its contents are inconsistent.
    Inconsistent {
        /// What invariant failed.
        message: String,
    },
    /// An embedded checkpoint failed to decode.
    Checkpoint(CheckpointError),
}

impl fmt::Display for QueueFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueFormatError::Format(e) => write!(f, "queue format error: {e}"),
            QueueFormatError::Inconsistent { message } => {
                write!(f, "inconsistent queue file: {message}")
            }
            QueueFormatError::Checkpoint(e) => write!(f, "embedded checkpoint: {e}"),
        }
    }
}

impl std::error::Error for QueueFormatError {}

impl From<BinFormatError> for QueueFormatError {
    fn from(e: BinFormatError) -> Self {
        QueueFormatError::Format(e)
    }
}

impl From<CheckpointError> for QueueFormatError {
    fn from(e: CheckpointError) -> Self {
        QueueFormatError::Checkpoint(e)
    }
}

/// Snapshot of one job for `hqr jobs` listings.
#[derive(Clone, Debug)]
pub struct JobView {
    /// The job's id.
    pub id: JobId,
    /// Tenant label.
    pub tag: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Priority tier.
    pub qos: QosClass,
    /// Attempts started (initial run plus job-level retries).
    pub attempts: u32,
    /// Tasks completed in the current/last attempt.
    pub tasks_done: usize,
    /// Tasks in the job's DAG.
    pub tasks_total: usize,
    /// Last recorded error, if any.
    pub error: Option<String>,
    /// Wall-clock from submission to terminal state (terminal jobs only).
    pub wall: Option<Duration>,
}

/// The factored output of a completed job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The factored matrix (R in the upper triangle, V blocks below).
    pub a: TiledMatrix,
    /// The Householder factor buffers.
    pub factors: TFactors,
}

/// Terminal report for one job, returned by [`JobPool::wait`].
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's id.
    pub id: JobId,
    /// The terminal state.
    pub state: JobState,
    /// Attempts started (initial run plus job-level retries).
    pub attempts: u32,
    /// The last error, if the job did not complete.
    pub error: Option<String>,
    /// Fault-recovery accounting accumulated across attempts.
    pub stats: FaultStats,
    /// The factorization (present iff `state == Completed` and this is the
    /// first waiter to claim it).
    pub result: Option<JobResult>,
    /// Wall-clock from submission to the terminal state.
    pub wall: Duration,
}

/// Pool sizing and robustness knobs.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Worker threads shared by every job.
    pub nthreads: usize,
    /// Memory budget (bytes) for the *active* working set: admitted jobs'
    /// tiles, factor buffers, and retained pristine payloads. `u64::MAX`
    /// disables the gate.
    pub mem_budget: u64,
    /// Bounded submission queue: jobs accepted but not yet admitted.
    pub queue_cap: usize,
    /// Maximum concurrently active jobs; `0` means unbounded.
    pub max_active: usize,
    /// Supervisor poll interval (admission, deadlines, finalization).
    pub tick: Duration,
    /// First job-level retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the job-level retry backoff.
    pub backoff_cap: Duration,
    /// Crash-safe durability: when set, the pool keeps a write-ahead
    /// journal of every lifecycle transition, persists completed results,
    /// and checkpoints running jobs, all under one state directory.
    pub durability: Option<DurabilityConfig>,
    /// Per-job resident cap (bytes). A job whose working set exceeds the
    /// cap runs out-of-core: its tiles live in a spill file and at most
    /// `resident_budget` bytes of them stay in memory, so admission
    /// charges `min(footprint, resident_budget)` instead of the full
    /// footprint. `None` keeps every admitted job fully resident.
    pub resident_budget: Option<u64>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            nthreads: 4,
            mem_budget: u64::MAX,
            queue_cap: 64,
            max_active: 0,
            tick: Duration::from_millis(1),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            durability: None,
            resident_budget: None,
        }
    }
}

/// Crash-safety knobs: where durable state lives and how eagerly running
/// jobs are checkpointed.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// State directory; the pool creates [`JOURNAL_FILE`], [`CKPT_DIR`],
    /// and [`RESULTS_DIR`] inside it.
    pub state_dir: PathBuf,
    /// Periodic-checkpoint interval for running jobs that have made
    /// progress since activation and carry no deadline (a deadline's
    /// wall budget is per activation, so periodic re-queuing would reset
    /// it). `Duration::ZERO` disables periodic checkpoints; suspensions
    /// and drains still checkpoint.
    pub ckpt_interval: Duration,
    /// Retention cap on stored results, oldest pruned first; `0` keeps
    /// everything.
    pub result_cap: usize,
    /// Journal size threshold (bytes) that triggers a compacting
    /// rotation after the next append; `0` lets the journal grow
    /// without bound.
    pub journal_rotate_bytes: u64,
    /// Byte ceiling on the stored-result directory, oldest pruned
    /// first; `0` keeps everything.
    pub result_max_bytes: u64,
    /// Age ceiling on stored results; `None` keeps results regardless
    /// of age.
    pub result_max_age: Option<Duration>,
}

impl DurabilityConfig {
    /// Defaults rooted at `state_dir`: 30 s periodic checkpoints,
    /// unbounded result retention, and no journal rotation.
    pub fn at(state_dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            state_dir: state_dir.into(),
            ckpt_interval: Duration::from_secs(30),
            result_cap: 0,
            journal_rotate_bytes: 0,
            result_max_bytes: 0,
            result_max_age: None,
        }
    }
}

/// Why a running job is being suspended at its next quiescent point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuspendKind {
    /// A graceful drain: the checkpoint goes to the persisted queue
    /// and/or the journal for a later restart.
    Drain,
    /// An explicit suspend request: the job parks in
    /// [`JobState::Suspended`] until [`JobPool::resume_job`].
    Park,
    /// A higher-QoS arrival needs the job's memory or active slot; the
    /// job re-queues from its checkpoint and re-admits when room frees.
    Preempt,
    /// A periodic durability checkpoint; the job re-queues immediately
    /// and loses no retry budget.
    Periodic,
}

impl SuspendKind {
    fn reason(self) -> &'static str {
        match self {
            SuspendKind::Drain => "drain",
            SuspendKind::Park => "suspend request",
            SuspendKind::Preempt => "preempted by a higher-QoS job",
            SuspendKind::Periodic => "periodic durability checkpoint",
        }
    }
}

/// Why an active job was halted (set once; first writer wins).
#[derive(Debug)]
enum Verdict {
    /// A task exhausted its budgets; carries the engine error.
    Fault(ExecError),
    /// The per-attempt deadline elapsed.
    Deadline(Duration),
    /// The tenant cancelled the job.
    Cancel,
    /// Checkpoint the job at the next quiescent point, for this reason.
    Suspend(SuspendKind),
}

/// One admitted job: the pool's unit of ownership. The [`TileStore`]'s raw
/// pointers target the heap buffers owned by `a` and `factors` below —
/// tiles are independently boxed slices, so moving this struct (or the
/// `Arc` around it) never invalidates the store.
struct ActiveJob {
    /// Activation id — unique per *attempt*, so stale queue entries from a
    /// previous incarnation of a retried job can never reach a new one.
    rid: u64,
    /// Public job id (stable across retries).
    id: u64,
    /// Admission order, for FCFS tie-breaking within a QoS class.
    seq: u64,
    qos_inv: u64,
    graph: TaskGraph,
    /// DAG progress, tile store and attempt settings of this activation.
    run: DagRun,
    /// Tasks remaining when this activation started — periodic
    /// checkpoints only fire once the activation has made progress.
    initial_remaining: usize,
    /// Workers currently holding (or about to run) one of this job's
    /// tasks. Finalization requires `halted-or-finished` AND `inflight == 0`.
    inflight: AtomicUsize,
    verdict: Mutex<Option<Verdict>>,
    stats: Mutex<FaultStats>,
    started: Instant,
    deadline: Option<Duration>,
    footprint: u64,
    /// Inner block size in effect (recorded into suspension checkpoints).
    ib: usize,
    /// The job's elimination list (re-serialized on suspension/retry).
    elims: Vec<ElimOp>,
    /// Policy knobs, kept for retry and suspension re-queuing.
    origin_policy: JobPolicy,
    /// Pristine payload, retained while the job may still be retried.
    origin_seed: Option<Seed>,
    /// Backing storage for `store` (kept alive for the job's lifetime).
    a: TiledMatrix,
    factors: TFactors,
}

impl ActiveJob {
    /// Record a verdict (first wins) and halt the job's tasks.
    fn halt_with(&self, v: Verdict) {
        let mut g = relock(&self.verdict);
        if g.is_none() {
            *g = Some(v);
        }
        drop(g);
        self.run.halted.store(true, Ordering::SeqCst);
    }

    /// This job's queue item and heap key for task `tid` of rank `rank`:
    /// QoS class first, then admission order, then the job's own policy.
    fn tag(&self, tid: u32, rank: u64) -> (PoolItem, (u64, u64, u64)) {
        ((self.rid, tid), (self.qos_inv, self.seq, rank))
    }
}

/// The per-job policy knobs, separated from the payload so retries and
/// persistence can carry them around cheaply.
#[derive(Clone, Debug)]
struct JobPolicy {
    ib: usize,
    qos: QosClass,
    policy: SchedPolicy,
    integrity: IntegrityMode,
    max_retries: u32,
    job_retries: u32,
    deadline: Option<Duration>,
    plan: Option<FaultPlan>,
    tag: String,
    dedup_key: Option<String>,
}

/// The pristine payload a retry re-runs from.
#[derive(Clone, Debug)]
enum Seed {
    Fresh(TiledMatrix),
    Resume(Box<Checkpoint>),
}

/// A job accepted but not currently active: waiting for admission, or
/// waiting out a retry backoff.
struct PendingJob {
    id: u64,
    seq: u64,
    policy: JobPolicy,
    elims: Vec<ElimOp>,
    seed: Seed,
    graph: TaskGraph,
    footprint: u64,
    attempts: u32,
    not_before: Option<Instant>,
    /// Whether activation counts against the record's attempt counter.
    /// Suspension re-queues (park/preempt/periodic) continue the *same*
    /// attempt and must not consume retry budget.
    count_attempt: bool,
}

/// Bookkeeping for every job the pool ever accepted.
struct JobRecord {
    state: JobState,
    qos: QosClass,
    tag: String,
    attempts: u32,
    tasks_total: usize,
    tasks_done: usize,
    error: Option<String>,
    stats: FaultStats,
    submitted: Instant,
    wall: Option<Duration>,
    outcome: Option<JobOutcome>,
}

/// A job suspended by a drain: its policy plus the resumable checkpoint.
struct SuspendedEntry {
    policy: JobPolicy,
    attempts: u32,
    ckpt: Box<Checkpoint>,
}

/// What [`JobPool::drain`] accomplished.
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Jobs that reached a terminal state during the drain window.
    pub finished: usize,
    /// Jobs halted at a quiescent point and checkpointed.
    pub suspended: Vec<JobId>,
    /// Entries written to the persisted queue (queued + suspended jobs).
    pub persisted: usize,
}

/// What [`JobPool::recover`] reconstructed from the write-ahead journal.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Jobs named by the journal.
    pub total: usize,
    /// Completed jobs re-registered (results retrievable).
    pub completed_retained: usize,
    /// Other terminal jobs re-registered (quarantined, cancelled, shed).
    pub terminal_retained: usize,
    /// Live jobs resubmitted from their last durable checkpoint.
    pub resumed_from_checkpoint: usize,
    /// Live jobs resubmitted from their original spec (no usable
    /// checkpoint).
    pub restarted_fresh: usize,
    /// Live jobs whose journaled spec was unusable; quarantined so they
    /// still reach a terminal state.
    pub unrecoverable: usize,
}

/// One entry decoded from a persisted queue file.
pub struct QueueEntry {
    /// The job spec to resubmit ([`JobInput::Resume`] for suspended jobs).
    pub spec: JobSpec,
    /// Job-level attempts already consumed before persistence.
    pub attempts: u32,
}

/// A pool queue entry: (activation id, task id).
type PoolItem = (u64, u32);

struct Shared {
    cfg: PoolConfig,
    next_id: AtomicU64,
    next_rid: AtomicU64,
    next_seq: AtomicU64,
    pending: Mutex<Vec<PendingJob>>,
    records: Mutex<HashMap<u64, JobRecord>>,
    waiters: Condvar,
    active: RwLock<HashMap<u64, Arc<ActiveJob>>>,
    /// Work-stealing core shared by every job, its heap keyed by
    /// (qos_inv, seq, rank), min-ordered.
    sched: Sched<PoolItem, (u64, u64, u64)>,
    cancel_requests: Mutex<Vec<u64>>,
    suspended: Mutex<Vec<SuspendedEntry>>,
    /// Jobs parked by an explicit suspend request, keyed by job id,
    /// awaiting [`JobPool::resume_job`].
    parked: Mutex<HashMap<u64, PendingJob>>,
    suspend_requests: Mutex<Vec<u64>>,
    /// Idempotent-submission index: dedup key -> job id.
    dedup: Mutex<HashMap<String, u64>>,
    /// Write-ahead journal of lifecycle transitions (durable pools only).
    journal: Option<Mutex<Journal>>,
    /// Durable store of completed results (durable pools only).
    results: Option<ResultStore>,
    active_footprint: AtomicU64,
    draining: AtomicBool,
    stop: AtomicBool,
}

impl Shared {
    fn notify_records<R>(&self, f: impl FnOnce(&mut HashMap<u64, JobRecord>) -> R) -> R {
        let mut recs = relock(&self.records);
        let r = f(&mut recs);
        drop(recs);
        self.waiters.notify_all();
        r
    }

    /// Append a lifecycle transition to the write-ahead journal. Journal
    /// IO failure degrades durability, never availability: the pool keeps
    /// running and the failure goes to stderr.
    fn log_event(&self, ev: JournalEvent) {
        if let Some(j) = &self.journal {
            let mut j = relock(j);
            if let Err(e) = j.append(&ev) {
                eprintln!("hqr-pool: journal append failed: {e}");
            }
            // Size-threshold rotation: compact away terminal noise once
            // the file outgrows the configured budget. Held under the
            // journal lock so appends never interleave with the rewrite.
            let rotate_at = self.cfg.durability.as_ref().map_or(0, |d| d.journal_rotate_bytes);
            if j.rotate_due(rotate_at) {
                match j.rotate() {
                    Ok(reclaimed) => {
                        eprintln!("hqr-pool: journal rotated, reclaimed {reclaimed} bytes");
                    }
                    Err(e) => eprintln!("hqr-pool: journal rotation failed: {e}"),
                }
            }
        }
    }
}

/// Remove a terminal job's suspension checkpoint, if one was written.
fn cleanup_ckpt(shared: &Shared, id: u64) {
    if let Some(d) = &shared.cfg.durability {
        let _ = std::fs::remove_file(d.state_dir.join(format!("{CKPT_DIR}/job-{id}.ckpt")));
    }
}

/// The multi-job pool: owned worker threads plus a supervisor enforcing
/// admission, deadlines, retry/quarantine, and drain.
pub struct JobPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

fn invalid(message: impl Into<String>) -> SubmitError {
    SubmitError::Invalid { message: message.into() }
}

/// Validate a spec and build its graph + footprint. Shared by `submit`
/// and the retry path (which revalidated once already, but is cheap).
fn prepare(spec: &JobSpec) -> Result<(Vec<ElimOp>, TaskGraph, usize, u64), SubmitError> {
    if let Some(p) = &spec.plan {
        if p.poisons_any_worker() {
            return Err(invalid("fault plans with poisoned workers are engine-only"));
        }
        if p.loses_any_completion() {
            return Err(invalid("fault plans that lose completions are engine-only"));
        }
    }
    let (elims, mt, nt, b) = match &spec.input {
        JobInput::Fresh { elims, a } => (elims.clone(), a.mt(), a.nt(), a.b()),
        JobInput::Resume(ck) => (ck.elims.clone(), ck.mt, ck.nt, ck.b),
    };
    let graph = TaskGraph::try_build(mt, nt, b, &elims)
        .map_err(|e| invalid(format!("elimination list rejected: {e}")))?;
    let ib = effective_ib(spec, b).map_err(|message| SubmitError::Invalid { message })?;
    if let JobInput::Resume(ck) = &spec.input {
        ck.validate_against(&graph, ib)
            .map_err(|e| invalid(format!("checkpoint rejected: {e}")))?;
    }
    let footprint = working_set_bytes(&graph);
    let retain = spec.job_retries > 0;
    let need = if retain { footprint + matrix_bytes(&graph) } else { footprint };
    Ok((elims, graph, ib, need))
}

fn matrix_bytes(graph: &TaskGraph) -> u64 {
    (graph.mt() * graph.nt() * graph.b() * graph.b() * std::mem::size_of::<f64>()) as u64
}

/// Admission charge for a job needing `need` resident bytes. With a
/// resident budget the charge is capped at that budget: the job runs
/// out-of-core and keeps at most `resident_budget` bytes of tiles in
/// memory, spilling the rest.
fn chargeable(cfg: &PoolConfig, need: u64) -> u64 {
    cfg.resident_budget.map_or(need, |rb| need.min(rb.max(1)))
}

fn effective_ib(spec: &JobSpec, b: usize) -> Result<usize, String> {
    let ib = match (&spec.input, spec.ib) {
        (JobInput::Resume(ck), None) => ck.ib,
        (JobInput::Resume(ck), Some(ib)) if ib != ck.ib => {
            return Err(format!("spec ib={ib} but the checkpoint was taken with ib={}", ck.ib));
        }
        (_, Some(ib)) => ib,
        (_, None) => b,
    };
    if ib == 0 || ib > b {
        return Err(format!("inner block size {ib} must be in 1..={b}"));
    }
    Ok(ib)
}

impl JobPool {
    /// Spawn the worker threads and supervisor for a new pool.
    ///
    /// # Panics
    ///
    /// Panics when the durability state directory (if configured) cannot
    /// be created or its journal cannot be opened — a daemon that cannot
    /// keep its durability promise must not start.
    pub fn new(cfg: PoolConfig) -> JobPool {
        let nthreads = cfg.nthreads.max(1);
        let (journal, results) = match &cfg.durability {
            Some(d) => {
                std::fs::create_dir_all(d.state_dir.join(CKPT_DIR))
                    .expect("create pool state directory");
                let j = Journal::open(&d.state_dir.join(JOURNAL_FILE)).expect("open pool journal");
                let r = ResultStore::with_retention(
                    &d.state_dir.join(RESULTS_DIR),
                    d.result_cap,
                    d.result_max_bytes,
                    d.result_max_age,
                )
                .expect("open pool result store");
                (Some(Mutex::new(j)), Some(r))
            }
            None => (None, None),
        };
        // Every policy uses the keyed heap: the QoS-major order is what
        // lets interactive jobs overtake batch work.
        let (sched, seats) = Sched::new(nthreads, true);
        let shared = Arc::new(Shared {
            cfg: PoolConfig { nthreads, ..cfg },
            next_id: AtomicU64::new(1),
            next_rid: AtomicU64::new(1),
            next_seq: AtomicU64::new(1),
            pending: Mutex::new(Vec::new()),
            records: Mutex::new(HashMap::new()),
            waiters: Condvar::new(),
            active: RwLock::new(HashMap::new()),
            sched,
            cancel_requests: Mutex::new(Vec::new()),
            suspended: Mutex::new(Vec::new()),
            parked: Mutex::new(HashMap::new()),
            suspend_requests: Mutex::new(Vec::new()),
            dedup: Mutex::new(HashMap::new()),
            journal,
            results,
            active_footprint: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(nthreads + 1);
        for mut seat in seats {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hqr-pool-{}", seat.me))
                    .spawn(move || pool_worker(&shared, &mut seat))
                    .expect("spawn pool worker"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name("hqr-pool-supervisor".into())
                    .spawn(move || supervisor_loop(&shared))
                    .expect("spawn pool supervisor"),
            );
        }
        JobPool { shared, handles: Mutex::new(handles) }
    }

    /// Submit one job. Admission-control decisions (budget, backpressure,
    /// shedding) happen here and in the supervisor; an `Ok` id means the
    /// job was *accepted* and will reach a terminal state observable via
    /// [`JobPool::wait`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.submit_dedup(spec).map(|(id, _)| id)
    }

    /// [`JobPool::submit`] with idempotency reporting: when the spec's
    /// `dedup_key` is already registered, no new job is created and the
    /// original id is returned with `true`. On durable pools the accepted
    /// job is journaled before this returns, so a response the client
    /// receives is a response that survives a crash.
    pub fn submit_dedup(&self, spec: JobSpec) -> Result<(JobId, bool), SubmitError> {
        let s = &*self.shared;
        if s.draining.load(Ordering::SeqCst) || s.stop.load(Ordering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        // The dedup guard is held through acceptance so two racing
        // submissions of the same key cannot both register.
        let mut dedup_guard = None;
        if let Some(k) = &spec.dedup_key {
            let dd = relock(&s.dedup);
            if let Some(&id) = dd.get(k) {
                return Ok((JobId(id), true));
            }
            dedup_guard = Some(dd);
        }
        let (elims, graph, ib, need) = prepare(&spec)?;
        let need = chargeable(&s.cfg, need);
        if need > s.cfg.mem_budget {
            return Err(SubmitError::OverBudget { need, budget: s.cfg.mem_budget });
        }
        // Journal payload is encoded before the spec is torn apart (and
        // only when a journal exists to receive it).
        let spec_bytes = s.journal.as_ref().map(|_| spec.to_bytes());
        let JobSpec {
            input,
            qos,
            policy,
            integrity,
            max_retries,
            job_retries,
            deadline,
            plan,
            tag,
            dedup_key,
            ..
        } = spec;
        let seed = match input {
            JobInput::Fresh { a, .. } => Seed::Fresh(a),
            JobInput::Resume(ck) => Seed::Resume(ck),
        };
        let jp = JobPolicy {
            ib,
            qos,
            policy,
            integrity,
            max_retries,
            job_retries,
            deadline,
            plan,
            tag: tag.clone(),
            dedup_key: dedup_key.clone(),
        };
        let tasks_total = graph.tasks().len();
        let mut pending = relock(&s.pending);
        if pending.len() >= s.cfg.queue_cap {
            // Load shedding: evict the lowest-QoS queued job iff the
            // arrival strictly outranks it; shed the *newest* of that
            // class so older accepted work keeps its place.
            let victim = pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.policy.qos < qos)
                .min_by_key(|(_, p)| (p.policy.qos, Reverse(p.seq)))
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let shed = pending.remove(i);
                    s.log_event(JournalEvent::Shed {
                        id: shed.id,
                        reason: "shed by a higher-QoS arrival".into(),
                    });
                    s.notify_records(|recs| {
                        if let Some(r) = recs.get_mut(&shed.id) {
                            r.state = JobState::Shed;
                            r.wall = Some(r.submitted.elapsed());
                            r.error = Some("shed by a higher-QoS arrival".into());
                            r.outcome = Some(JobOutcome {
                                id: JobId(shed.id),
                                state: JobState::Shed,
                                attempts: r.attempts,
                                error: r.error.clone(),
                                stats: r.stats,
                                result: None,
                                wall: r.wall.unwrap_or_default(),
                            });
                        }
                    });
                }
                None => return Err(SubmitError::QueueFull { cap: s.cfg.queue_cap }),
            }
        }
        let id = s.next_id.fetch_add(1, Ordering::Relaxed);
        let seq = s.next_seq.fetch_add(1, Ordering::Relaxed);
        // The record and the journaled Accepted exist before the push
        // makes the job visible to the supervisor: a job admitted and
        // finished at once concludes into its record, and its Started and
        // terminal events follow Accepted in the journal. Lock order is
        // pending → records, as on the shed path above.
        relock(&s.records).insert(
            id,
            JobRecord {
                state: JobState::Queued,
                qos,
                tag,
                attempts: 0,
                tasks_total,
                tasks_done: 0,
                error: None,
                stats: FaultStats::default(),
                submitted: Instant::now(),
                wall: None,
                outcome: None,
            },
        );
        // Accepted reaches stable storage before the caller learns the id.
        s.log_event(JournalEvent::Accepted {
            id,
            attempts: 0,
            tasks_total: tasks_total as u64,
            dedup: dedup_key.clone(),
            spec: spec_bytes,
        });
        pending.push(PendingJob {
            id,
            seq,
            policy: jp,
            elims,
            seed,
            graph,
            footprint: need,
            attempts: 0,
            not_before: None,
            count_attempt: true,
        });
        drop(pending);
        if let Some(mut dd) = dedup_guard {
            dd.insert(dedup_key.expect("guard implies key"), id);
        }
        Ok((JobId(id), false))
    }

    /// Resubmit one journal-recovered job under its original id and
    /// attempt count, bypassing backpressure (it was already accepted in
    /// a previous life). `journal` re-journals the job; like the record,
    /// it runs before the job becomes visible to the supervisor.
    fn resubmit_recovered(
        &self,
        spec: JobSpec,
        id: u64,
        attempts: u32,
        journal: impl FnOnce(),
    ) -> Result<(), SubmitError> {
        let s = &*self.shared;
        let (elims, graph, ib, need) = prepare(&spec)?;
        let need = chargeable(&s.cfg, need);
        if need > s.cfg.mem_budget {
            return Err(SubmitError::OverBudget { need, budget: s.cfg.mem_budget });
        }
        let JobSpec {
            input,
            qos,
            policy,
            integrity,
            max_retries,
            job_retries,
            deadline,
            tag,
            dedup_key,
            ..
        } = spec;
        let seed = match input {
            JobInput::Fresh { a, .. } => Seed::Fresh(a),
            JobInput::Resume(ck) => Seed::Resume(ck),
        };
        let jp = JobPolicy {
            ib,
            qos,
            policy,
            integrity,
            max_retries,
            job_retries,
            deadline,
            plan: None,
            tag: tag.clone(),
            dedup_key,
        };
        let tasks_total = graph.tasks().len();
        let mut pending = relock(&s.pending);
        relock(&s.records).insert(
            id,
            JobRecord {
                state: JobState::Queued,
                qos,
                tag,
                attempts,
                tasks_total,
                tasks_done: 0,
                error: None,
                stats: FaultStats::default(),
                submitted: Instant::now(),
                wall: None,
                outcome: None,
            },
        );
        journal();
        pending.push(PendingJob {
            id,
            seq: s.next_seq.fetch_add(1, Ordering::Relaxed),
            policy: jp,
            elims,
            seed,
            graph,
            footprint: need,
            attempts,
            not_before: None,
            count_attempt: true,
        });
        Ok(())
    }

    /// Replay the write-ahead journal after a restart (or crash): every
    /// job the old process accepted is driven back to a known state —
    /// terminal jobs re-register (completed results stay retrievable),
    /// live jobs resubmit from their last durable checkpoint when one
    /// exists, else from their original spec. The journal is compacted to
    /// terminal summaries plus the re-journaled live jobs.
    ///
    /// Call once, before accepting new submissions.
    pub fn recover(&self) -> Result<RecoveryReport, JournalError> {
        let s = &*self.shared;
        let (state_dir, jm) = match (&s.cfg.durability, &s.journal) {
            (Some(d), Some(j)) => (d.state_dir.clone(), j),
            _ => {
                return Err(JournalError::Inconsistent {
                    message: "pool has no durable state directory".into(),
                })
            }
        };
        let events = Journal::read(&state_dir.join(JOURNAL_FILE))?;
        let jobs = replay(&events);
        let mut report = RecoveryReport { total: jobs.len(), ..Default::default() };
        // Compact away everything except terminal summaries; live jobs
        // are re-journaled in full below.
        let mut keep: Vec<JournalEvent> = Vec::new();
        for (&id, j) in &jobs {
            let Some(state) = j.terminal else { continue };
            keep.push(JournalEvent::Accepted {
                id,
                attempts: j.attempts,
                tasks_total: j.tasks_total,
                dedup: j.dedup.clone(),
                spec: None,
            });
            keep.push(terminal_event(id, state, j));
        }
        relock(jm).compact(&keep)?;
        if let Some(&max_id) = jobs.keys().max() {
            s.next_id.fetch_max(max_id + 1, Ordering::SeqCst);
        }
        for (&id, j) in &jobs {
            if let Some(k) = &j.dedup {
                relock(&s.dedup).insert(k.clone(), id);
            }
            let decoded = j.spec.as_ref().and_then(|b| JobSpec::from_bytes(b.clone()).ok());
            if let Some(state) = j.terminal {
                let (qos, tag) =
                    decoded.map_or((QosClass::default(), String::new()), |sp| (sp.qos, sp.tag));
                let total = j.tasks_total as usize;
                relock(&s.records).insert(
                    id,
                    JobRecord {
                        state,
                        qos,
                        tag,
                        attempts: j.attempts,
                        tasks_total: total,
                        tasks_done: if state == JobState::Completed {
                            total
                        } else {
                            j.ckpt_tasks_done as usize
                        },
                        error: j.error.clone(),
                        stats: FaultStats::default(),
                        submitted: Instant::now(),
                        wall: Some(Duration::ZERO),
                        outcome: None,
                    },
                );
                if state == JobState::Completed {
                    report.completed_retained += 1;
                } else {
                    report.terminal_retained += 1;
                }
                continue;
            }
            // Live at the crash: prefer the last durable checkpoint so
            // completed panels are never recomputed.
            let Some(mut spec) = decoded else {
                self.quarantine_unrecoverable(j, id, "journal lost the job's spec");
                report.unrecoverable += 1;
                continue;
            };
            let mut ck_file = None;
            if let Some(f) = &j.ckpt_file {
                if let Ok(ck) = read_checkpoint(&state_dir.join(f)) {
                    spec.input = JobInput::Resume(Box::new(ck));
                    spec.ib = None; // take the checkpoint's recorded ib
                    ck_file = Some(f.clone());
                }
            }
            let journal = || {
                s.log_event(JournalEvent::Accepted {
                    id,
                    attempts: j.attempts,
                    tasks_total: j.tasks_total,
                    dedup: j.dedup.clone(),
                    spec: j.spec.clone(),
                });
                if let Some(file) = &ck_file {
                    s.log_event(JournalEvent::Checkpointed {
                        id,
                        tasks_done: j.ckpt_tasks_done,
                        file: file.clone(),
                    });
                }
            };
            match self.resubmit_recovered(spec, id, j.attempts, journal) {
                Ok(()) if ck_file.is_some() => report.resumed_from_checkpoint += 1,
                Ok(()) => report.restarted_fresh += 1,
                Err(e) => {
                    self.quarantine_unrecoverable(j, id, &e.to_string());
                    report.unrecoverable += 1;
                }
            }
        }
        Ok(report)
    }

    fn quarantine_unrecoverable(&self, j: &crate::journal::RecoveredJob, id: u64, why: &str) {
        let s = &*self.shared;
        let error = format!("unrecoverable after restart: {why}");
        s.log_event(JournalEvent::Accepted {
            id,
            attempts: j.attempts,
            tasks_total: j.tasks_total,
            dedup: j.dedup.clone(),
            spec: None,
        });
        s.log_event(JournalEvent::Quarantined { id, error: error.clone() });
        relock(&s.records).insert(
            id,
            JobRecord {
                state: JobState::Quarantined,
                qos: QosClass::default(),
                tag: String::new(),
                attempts: j.attempts,
                tasks_total: j.tasks_total as usize,
                tasks_done: j.ckpt_tasks_done as usize,
                error: Some(error),
                stats: FaultStats::default(),
                submitted: Instant::now(),
                wall: Some(Duration::ZERO),
                outcome: None,
            },
        );
    }

    /// Block until `id` reaches a terminal state and return its outcome.
    /// The factored matrix is handed to the first waiter; later waiters
    /// (and waits on already-reported jobs) get a payload-less outcome.
    /// Returns `None` for ids this pool never accepted.
    pub fn wait(&self, id: JobId) -> Option<JobOutcome> {
        let s = &*self.shared;
        let mut recs = relock(&s.records);
        loop {
            let r = recs.get_mut(&id.0)?;
            if let Some(out) = r.outcome.take() {
                return Some(out);
            }
            if r.state.is_terminal() {
                return Some(JobOutcome {
                    id,
                    state: r.state,
                    attempts: r.attempts,
                    error: r.error.clone(),
                    stats: r.stats,
                    result: None,
                    wall: r.wall.unwrap_or_default(),
                });
            }
            recs = s.waiters.wait(recs).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Current snapshot of one job.
    pub fn status(&self, id: JobId) -> Option<JobView> {
        self.jobs().into_iter().find(|v| v.id == id)
    }

    /// Current snapshot of every job the pool has accepted, newest first.
    pub fn jobs(&self) -> Vec<JobView> {
        let s = &*self.shared;
        let live: HashMap<u64, usize> = {
            let active = s.active.read().unwrap_or_else(std::sync::PoisonError::into_inner);
            active
                .values()
                .map(|j| (j.id, j.graph.tasks().len() - j.run.remaining.load(Ordering::Acquire)))
                .collect()
        };
        let recs = relock(&s.records);
        let mut out: Vec<JobView> = recs
            .iter()
            .map(|(&id, r)| JobView {
                id: JobId(id),
                tag: r.tag.clone(),
                state: r.state,
                qos: r.qos,
                attempts: r.attempts,
                tasks_done: live.get(&id).copied().unwrap_or(r.tasks_done),
                tasks_total: r.tasks_total,
                error: r.error.clone(),
                wall: r.wall,
            })
            .collect();
        out.sort_by_key(|v| Reverse(v.id));
        out
    }

    /// Request cancellation. Returns `false` for unknown or already
    /// terminal jobs; otherwise the job reaches [`JobState::Cancelled`].
    /// Parked (suspended) jobs cancel immediately.
    pub fn cancel(&self, id: JobId) -> bool {
        let s = &*self.shared;
        if relock(&s.parked).remove(&id.0).is_some() {
            s.log_event(JournalEvent::Cancelled { id: id.0 });
            cleanup_ckpt(s, id.0);
            s.notify_records(|recs| {
                if let Some(r) = recs.get_mut(&id.0) {
                    r.state = JobState::Cancelled;
                    r.wall = Some(r.submitted.elapsed());
                    r.error = Some("cancelled while suspended".into());
                }
            });
            return true;
        }
        let recs = relock(&s.records);
        let Some(r) = recs.get(&id.0) else { return false };
        if r.state.is_terminal() {
            return false;
        }
        drop(recs);
        relock(&s.cancel_requests).push(id.0);
        true
    }

    /// Request suspension of `id`: a queued job parks immediately, a
    /// running job is checkpointed at its next panel-boundary quiescent
    /// point and then parks. The job sits in [`JobState::Suspended`]
    /// until [`JobPool::resume_job`] (or [`JobPool::cancel`]). Returns
    /// `false` for unknown or terminal jobs.
    pub fn suspend(&self, id: JobId) -> bool {
        let s = &*self.shared;
        let recs = relock(&s.records);
        let Some(r) = recs.get(&id.0) else { return false };
        if r.state.is_terminal() {
            return false;
        }
        drop(recs);
        relock(&s.suspend_requests).push(id.0);
        true
    }

    /// Resume a job parked by [`JobPool::suspend`]: it re-queues from its
    /// suspension checkpoint and continues bitwise-identically from the
    /// completed-panel frontier. Returns `false` when `id` is not parked.
    pub fn resume_job(&self, id: JobId) -> bool {
        let s = &*self.shared;
        let Some(p) = relock(&s.parked).remove(&id.0) else { return false };
        relock(&s.pending).push(p);
        s.notify_records(|recs| {
            if let Some(r) = recs.get_mut(&id.0) {
                r.state = JobState::Queued;
                r.error = None;
                r.wall = None;
            }
        });
        true
    }

    /// Encoded result container for a completed job — from the durable
    /// store when present, else re-encoded from the in-memory outcome.
    /// `None` when the job is unknown, not completed, or its stored
    /// result was pruned and the outcome already claimed.
    pub fn result_bytes(&self, id: JobId) -> Option<Vec<u8>> {
        let s = &*self.shared;
        if let Some(store) = &s.results {
            if let Some(bytes) = store.get(id.0) {
                return Some(bytes);
            }
        }
        let recs = relock(&s.records);
        let result = recs.get(&id.0)?.outcome.as_ref()?.result.as_ref()?;
        Some(result_to_bytes(id.0, result))
    }

    /// True when no job is queued, active, or awaiting finalization.
    pub fn is_idle(&self) -> bool {
        let s = &*self.shared;
        relock(&s.pending).is_empty()
            && s.active.read().unwrap_or_else(std::sync::PoisonError::into_inner).is_empty()
    }

    /// Graceful drain: stop admitting, give running jobs `grace` to
    /// finish, then checkpoint the stragglers at a quiescent point and
    /// persist the whole queue (never-started + suspended jobs) to
    /// `persist`, if given. Blocks until the pool is quiet.
    pub fn drain(&self, grace: Duration, persist: Option<&Path>) -> std::io::Result<DrainReport> {
        let s = &*self.shared;
        s.draining.store(true, Ordering::SeqCst);
        let terminal_before: HashSet<u64> = {
            let recs = relock(&s.records);
            recs.iter().filter(|(_, r)| r.state.is_terminal()).map(|(&id, _)| id).collect()
        };
        let deadline = Instant::now() + grace;
        loop {
            let active_empty =
                s.active.read().unwrap_or_else(std::sync::PoisonError::into_inner).is_empty();
            if active_empty || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(s.cfg.tick);
        }
        // Suspend whatever is still running.
        {
            let active = s.active.read().unwrap_or_else(std::sync::PoisonError::into_inner);
            for job in active.values() {
                job.halt_with(Verdict::Suspend(SuspendKind::Drain));
            }
        }
        // Quiesce. An empty active map is not enough: the supervisor
        // removes a job from the map *before* concluding it (pushing its
        // suspended checkpoint, settling its record), so breaking on
        // emptiness alone can snapshot mid-conclusion and silently drop
        // the last job. A record leaves `Running` only inside that
        // conclusion, so also wait for every running record to settle.
        loop {
            let active_empty =
                s.active.read().unwrap_or_else(std::sync::PoisonError::into_inner).is_empty();
            let running_settled =
                !relock(&s.records).values().any(|r| r.state == JobState::Running);
            if active_empty && running_settled {
                break;
            }
            std::thread::sleep(s.cfg.tick);
        }
        let mut finished = 0usize;
        let suspended_ids: Vec<JobId>;
        {
            let recs = relock(&s.records);
            suspended_ids = recs
                .iter()
                .filter(|(_, r)| r.state == JobState::Suspended)
                .map(|(&id, _)| JobId(id))
                .collect();
            finished += recs
                .iter()
                .filter(|(id, r)| {
                    !terminal_before.contains(id)
                        && matches!(
                            r.state,
                            JobState::Completed | JobState::Cancelled | JobState::Quarantined
                        )
                })
                .count();
        }
        // Persist: never-started pending jobs keep their fresh payloads;
        // suspended jobs are embedded as resumable checkpoints. Parked
        // jobs ride along as pending entries (their seed already is the
        // suspension checkpoint).
        let mut pending: Vec<PendingJob> = std::mem::take(&mut *relock(&s.pending));
        pending.extend(relock(&s.parked).drain().map(|(_, p)| p));
        let suspended: Vec<SuspendedEntry> = std::mem::take(&mut *relock(&s.suspended));
        let persisted = pending.len() + suspended.len();
        if let Some(path) = persist {
            let mut w = SectionWriter::new(QUEUE_MAGIC, QUEUE_VERSION);
            let mut index = 0u32;
            for p in &pending {
                let spec = pending_to_spec(p);
                spec_sections(&mut w, &spec, QSEC_BASE + index * QSEC_STRIDE, p.attempts);
                index += 1;
            }
            for e in &suspended {
                let spec = suspended_to_spec(e);
                spec_sections(&mut w, &spec, QSEC_BASE + index * QSEC_STRIDE, e.attempts);
                index += 1;
            }
            w.section(QSEC_COUNT, &bytes_of_u64s(&[index as u64]));
            w.write_atomic(path).map_err(|e| {
                std::io::Error::other(format!("failed to persist queue to {}: {e}", path.display()))
            })?;
        }
        Ok(DrainReport { finished, suspended: suspended_ids, persisted })
    }

    /// Stop the pool: finish active jobs, mark still-queued jobs as shed,
    /// and join every thread. The pool accepts nothing afterwards.
    pub fn shutdown(&self) {
        let s = &*self.shared;
        s.draining.store(true, Ordering::SeqCst);
        loop {
            let active_empty =
                s.active.read().unwrap_or_else(std::sync::PoisonError::into_inner).is_empty();
            if active_empty {
                break;
            }
            std::thread::sleep(s.cfg.tick);
        }
        let mut pending: Vec<PendingJob> = std::mem::take(&mut *relock(&s.pending));
        pending.extend(relock(&s.parked).drain().map(|(_, p)| p));
        if !pending.is_empty() {
            for p in &pending {
                s.log_event(JournalEvent::Shed {
                    id: p.id,
                    reason: "pool shut down before admission".into(),
                });
            }
            s.notify_records(|recs| {
                for p in &pending {
                    if let Some(r) = recs.get_mut(&p.id) {
                        r.state = JobState::Shed;
                        r.wall = Some(r.submitted.elapsed());
                        r.error = Some("pool shut down before admission".into());
                    }
                }
            });
        }
        s.stop.store(true, Ordering::SeqCst);
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *relock(&self.handles));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        let s = &*self.shared;
        // Abandon outstanding work: halt active jobs so workers stop
        // touching them, then stop the threads.
        s.draining.store(true, Ordering::SeqCst);
        {
            let active = s.active.read().unwrap_or_else(std::sync::PoisonError::into_inner);
            for job in active.values() {
                job.halt_with(Verdict::Cancel);
            }
        }
        s.stop.store(true, Ordering::SeqCst);
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *relock(&self.handles));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The journal event that records a recovered job's terminal state.
fn terminal_event(id: u64, state: JobState, j: &crate::journal::RecoveredJob) -> JournalEvent {
    match state {
        JobState::Completed => JournalEvent::Completed { id, file: j.result_file.clone() },
        JobState::Quarantined => {
            JournalEvent::Quarantined { id, error: j.error.clone().unwrap_or_default() }
        }
        JobState::Cancelled => JournalEvent::Cancelled { id },
        _ => JournalEvent::Shed { id, reason: j.error.clone().unwrap_or_default() },
    }
}

/// Convert a never-started pending job back into a submittable spec.
fn pending_to_spec(p: &PendingJob) -> JobSpec {
    let input = match &p.seed {
        Seed::Fresh(a) => JobInput::Fresh { elims: p.elims.clone(), a: a.clone() },
        Seed::Resume(ck) => JobInput::Resume(ck.clone()),
    };
    policy_to_spec(input, &p.policy)
}

fn suspended_to_spec(e: &SuspendedEntry) -> JobSpec {
    policy_to_spec(JobInput::Resume(e.ckpt.clone()), &e.policy)
}

fn policy_to_spec(input: JobInput, jp: &JobPolicy) -> JobSpec {
    JobSpec {
        input,
        ib: Some(jp.ib),
        qos: jp.qos,
        policy: jp.policy,
        integrity: jp.integrity,
        max_retries: jp.max_retries,
        job_retries: jp.job_retries,
        deadline: jp.deadline,
        plan: None, // injection is in-process test machinery, never persisted
        tag: jp.tag.clone(),
        dedup_key: jp.dedup_key.clone(),
    }
}

/// Append one spec's sections to a queue container at tag `base`.
fn spec_sections(w: &mut SectionWriter, spec: &JobSpec, base: u32, attempts: u32) {
    let kind = match &spec.input {
        JobInput::Fresh { .. } => 0u64,
        JobInput::Resume(_) => 1u64,
    };
    let meta = [
        kind,
        spec.qos as u64,
        spec.policy_word(),
        spec.integrity_word(),
        spec.ib.map_or(0, |ib| ib as u64),
        spec.max_retries as u64,
        spec.job_retries as u64,
        spec.deadline.map_or(u64::MAX, |d| d.as_millis() as u64),
        attempts as u64,
    ];
    w.section(base + QOFF_META, &bytes_of_u64s(&meta));
    w.section(base + QOFF_TAG, spec.tag.as_bytes());
    if let Some(k) = &spec.dedup_key {
        w.section(base + QOFF_DEDUP, k.as_bytes());
    }
    match &spec.input {
        JobInput::Fresh { elims, a } => {
            w.section(base + QOFF_ELIMS, &bytes_of_u64s(&elims_to_words(elims)));
            w.section(base + QOFF_TILES, &hqr_tile::io::tiled_to_bytes(a));
        }
        JobInput::Resume(ck) => {
            w.section(base + QOFF_CKPT, &checkpoint_to_bytes(ck));
        }
    }
}

fn spec_from_sections(r: &SectionReader, base: u32) -> Result<(JobSpec, u32), QueueFormatError> {
    let meta = u64s_of_bytes(base + QOFF_META, r.require(base + QOFF_META)?)?;
    if meta.len() != 9 {
        return Err(QueueFormatError::Inconsistent {
            message: format!("entry meta holds {} words, expected 9", meta.len()),
        });
    }
    let qos = QosClass::from_index(meta[1]).ok_or(QueueFormatError::Inconsistent {
        message: format!("unknown QoS index {}", meta[1]),
    })?;
    let policy = match meta[2] {
        0 => SchedPolicy::Fifo,
        1 => SchedPolicy::PanelFirst,
        2 => SchedPolicy::CriticalPath,
        other => {
            return Err(QueueFormatError::Inconsistent {
                message: format!("unknown policy index {other}"),
            })
        }
    };
    let integrity = match meta[3] {
        0 => IntegrityMode::Off,
        1 => IntegrityMode::Spot,
        2 => IntegrityMode::Full,
        other => {
            return Err(QueueFormatError::Inconsistent {
                message: format!("unknown integrity index {other}"),
            })
        }
    };
    let tag = String::from_utf8(r.require(base + QOFF_TAG)?.to_vec())
        .map_err(|_| QueueFormatError::Inconsistent { message: "entry tag is not UTF-8".into() })?;
    let dedup_key = match r.section(base + QOFF_DEDUP) {
        Some(bytes) => Some(String::from_utf8(bytes.to_vec()).map_err(|_| {
            QueueFormatError::Inconsistent { message: "entry dedup key is not UTF-8".into() }
        })?),
        None => None,
    };
    let input = match meta[0] {
        0 => {
            let words = u64s_of_bytes(base + QOFF_ELIMS, r.require(base + QOFF_ELIMS)?)?;
            let elims = elims_from_words(base + QOFF_ELIMS, &words).map_err(|e| {
                QueueFormatError::Inconsistent { message: format!("entry elims: {e}") }
            })?;
            let a =
                hqr_tile::io::tiled_from_bytes(base + QOFF_TILES, r.require(base + QOFF_TILES)?)?;
            JobInput::Fresh { elims, a }
        }
        1 => {
            let ck = checkpoint_from_bytes(r.require(base + QOFF_CKPT)?.to_vec())?;
            JobInput::Resume(Box::new(ck))
        }
        other => {
            return Err(QueueFormatError::Inconsistent {
                message: format!("unknown entry kind {other}"),
            })
        }
    };
    Ok((
        JobSpec {
            input,
            ib: if meta[4] == 0 { None } else { Some(meta[4] as usize) },
            qos,
            policy,
            integrity,
            max_retries: meta[5] as u32,
            job_retries: meta[6] as u32,
            deadline: if meta[7] == u64::MAX { None } else { Some(Duration::from_millis(meta[7])) },
            plan: None,
            tag,
            dedup_key,
        },
        meta[8] as u32,
    ))
}

/// Decode a queue file written by [`JobPool::drain`]: the entries a
/// restarted service should resubmit (fresh jobs with their original
/// payloads, suspended jobs as resumable checkpoints).
pub fn load_queue(path: &Path) -> Result<Vec<QueueEntry>, QueueFormatError> {
    let r = SectionReader::read(path, QUEUE_MAGIC, QUEUE_VERSION)?;
    let count = u64s_of_bytes(QSEC_COUNT, r.require(QSEC_COUNT)?)?;
    let n = *count
        .first()
        .ok_or(QueueFormatError::Inconsistent { message: "missing entry count".into() })?
        as usize;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let (spec, attempts) = spec_from_sections(&r, QSEC_BASE + (i as u32) * QSEC_STRIDE)?;
        out.push(QueueEntry { spec, attempts });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

fn pool_worker(shared: &Shared, seat: &mut Seat<PoolItem>) {
    // Caught panics (injected faults, kernel bugs) are expected events on
    // this thread for the pool's whole lifetime — keep them off stderr.
    let _quiet = crate::fault::QuietPanics::engage();
    worker_loop(&shared.sched, seat, &shared.stop, None, |(rid, tid), seat| {
        let job = {
            let active = shared.active.read().unwrap_or_else(std::sync::PoisonError::into_inner);
            active.get(&rid).cloned()
        };
        // A missing rid means the incarnation already finalized (or was
        // retired by a retry); the queue entry is stale — skip it.
        let Some(job) = job else { return true };
        // Inflight is raised BEFORE the halt check (and the supervisor
        // halts BEFORE reading inflight, both SeqCst), so finalization can
        // never observe inflight == 0 while this worker goes on to run a
        // task: either we see `halted` and bail, or the supervisor sees
        // our increment and waits.
        job.inflight.fetch_add(1, Ordering::SeqCst);
        if !job.run.halted.load(Ordering::SeqCst)
            && !job.run.done[tid as usize].load(Ordering::Acquire)
        {
            run_job_task(shared, &job, tid, seat);
        }
        job.inflight.fetch_sub(1, Ordering::SeqCst);
        true
    });
}

fn run_job_task(shared: &Shared, job: &ActiveJob, tid: u32, seat: &mut Seat<PoolItem>) {
    // Deadlines bite when a worker picks up a task; the supervisor's
    // `enforce_deadlines` is the backstop for jobs no worker touches.
    if let Some(d) = job.deadline.filter(|&d| job.started.elapsed() > d) {
        job.halt_with(Verdict::Deadline(d));
        return;
    }
    // `tid` is ready (released by its last predecessor) and not done, so
    // within this job's DAG this worker holds exclusive access to its
    // read/write sets; distinct jobs never share buffers at all.
    let step = job.run.step(&job.graph, tid, &shared.sched, seat, |s, r| job.tag(s, r), &mut ());
    let stats = std::mem::take(&mut seat.stats);
    if stats != FaultStats::default() {
        relock(&job.stats).merge(&stats);
    }
    match step {
        // An abort means the job was halted between attempts
        // (cancel/deadline/drain); whoever halted it recorded the verdict.
        Step::Done | Step::Aborted => {}
        Step::Failed(e) => job.halt_with(Verdict::Fault(e)),
        Step::Requeue => unreachable!("pool workers are never poisoned"),
    }
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

fn supervisor_loop(shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        supervisor_tick(shared);
        std::thread::sleep(shared.cfg.tick);
    }
}

fn supervisor_tick(shared: &Shared) {
    process_cancellations(shared);
    process_suspends(shared);
    enforce_deadlines(shared);
    periodic_checkpoints(shared);
    preempt_for_qos(shared);
    finalize_jobs(shared);
    admit_jobs(shared);
}

fn process_suspends(shared: &Shared) {
    let requests: Vec<u64> = std::mem::take(&mut *relock(&shared.suspend_requests));
    for id in requests {
        // Queued? Park as-is — nothing has run, so the pending seed is
        // already the exact resumable state.
        let taken = {
            let mut pending = relock(&shared.pending);
            pending.iter().position(|p| p.id == id).map(|i| pending.remove(i))
        };
        if let Some(p) = taken {
            shared.log_event(JournalEvent::Suspended {
                id,
                reason: SuspendKind::Park.reason().into(),
            });
            relock(&shared.parked).insert(id, p);
            shared.notify_records(|recs| {
                if let Some(r) = recs.get_mut(&id) {
                    r.state = JobState::Suspended;
                    r.wall = Some(r.submitted.elapsed());
                    r.error = Some("suspended by request; resume with resume-job".into());
                }
            });
            continue;
        }
        // Active? Halt at the next quiescent point; conclusion parks it.
        let active = shared.active.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(job) = active.values().find(|j| j.id == id) {
            job.halt_with(Verdict::Suspend(SuspendKind::Park));
        }
    }
}

/// Durable pools checkpoint long-running jobs at a configured cadence so
/// a crash rolls back to the last panel boundary, not to scratch. Only
/// activations that made progress are cycled (re-queuing resets the
/// clock), and deadline-carrying jobs are exempt — their wall budget is
/// per activation.
fn periodic_checkpoints(shared: &Shared) {
    let Some(d) = &shared.cfg.durability else { return };
    if d.ckpt_interval.is_zero() {
        return;
    }
    let active = shared.active.read().unwrap_or_else(std::sync::PoisonError::into_inner);
    for job in active.values() {
        let rem = job.run.remaining.load(Ordering::Acquire);
        if !job.run.halted.load(Ordering::SeqCst)
            && job.deadline.is_none()
            && rem > 0
            && rem < job.initial_remaining
            && job.started.elapsed() >= d.ckpt_interval
        {
            job.halt_with(Verdict::Suspend(SuspendKind::Periodic));
        }
    }
}

/// When the best admissible pending job is blocked only by lower-QoS
/// active work, suspend one victim at its next quiescent point: the
/// newest job of the lowest class, and only if suspension can actually
/// free what the candidate needs (an active slot, or enough budget
/// across all lower-QoS jobs). The victim re-queues from its checkpoint
/// and loses no retry budget.
fn preempt_for_qos(shared: &Shared) {
    if shared.draining.load(Ordering::SeqCst) {
        return;
    }
    let (cand_qos_inv, cand_fp) = {
        let pending = relock(&shared.pending);
        let now = Instant::now();
        let best = pending
            .iter()
            .filter(|p| p.not_before.is_none_or(|t| now >= t))
            .min_by_key(|p| (p.policy.qos.inverted(), p.seq));
        let Some(p) = best else { return };
        (p.policy.qos.inverted(), p.footprint)
    };
    let in_use = shared.active_footprint.load(Ordering::SeqCst);
    let active = shared.active.read().unwrap_or_else(std::sync::PoisonError::into_inner);
    if active.is_empty() {
        return;
    }
    let slot_blocked = shared.cfg.max_active != 0 && active.len() >= shared.cfg.max_active;
    let budget_blocked = in_use.saturating_add(cand_fp) > shared.cfg.mem_budget;
    if !slot_blocked && !budget_blocked {
        return;
    }
    let lower: Vec<&Arc<ActiveJob>> = active
        .values()
        .filter(|j| j.qos_inv > cand_qos_inv && !j.run.halted.load(Ordering::SeqCst))
        .collect();
    if lower.is_empty() {
        return;
    }
    if budget_blocked && !slot_blocked {
        let reclaimable: u64 = lower.iter().map(|j| j.footprint).sum();
        if in_use.saturating_sub(reclaimable).saturating_add(cand_fp) > shared.cfg.mem_budget {
            return;
        }
    }
    let victim = lower.into_iter().max_by_key(|j| (j.qos_inv, j.seq)).expect("lower is non-empty");
    victim.halt_with(Verdict::Suspend(SuspendKind::Preempt));
}

fn process_cancellations(shared: &Shared) {
    let requests: Vec<u64> = std::mem::take(&mut *relock(&shared.cancel_requests));
    if requests.is_empty() {
        return;
    }
    for id in requests {
        // Queued? Remove and mark terminal.
        let removed = {
            let mut pending = relock(&shared.pending);
            match pending.iter().position(|p| p.id == id) {
                Some(i) => {
                    pending.remove(i);
                    true
                }
                None => false,
            }
        };
        if removed {
            shared.log_event(JournalEvent::Cancelled { id });
            cleanup_ckpt(shared, id);
            shared.notify_records(|recs| {
                if let Some(r) = recs.get_mut(&id) {
                    r.state = JobState::Cancelled;
                    r.wall = Some(r.submitted.elapsed());
                    r.error = Some("cancelled while queued".into());
                }
            });
            continue;
        }
        // Active? Halt; finalization turns the verdict into Cancelled.
        let active = shared.active.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(job) = active.values().find(|j| j.id == id) {
            job.halt_with(Verdict::Cancel);
        }
    }
}

fn enforce_deadlines(shared: &Shared) {
    let active = shared.active.read().unwrap_or_else(std::sync::PoisonError::into_inner);
    for job in active.values() {
        if let Some(d) = job.deadline {
            // A job that already finished its last task but has not been
            // finalized yet has met its deadline — don't fail it on a
            // supervisor scheduling artifact.
            if !job.run.halted.load(Ordering::SeqCst)
                && job.run.remaining.load(Ordering::Acquire) > 0
                && job.started.elapsed() > d
            {
                job.halt_with(Verdict::Deadline(d));
            }
        }
    }
}

/// Exponential backoff for job-level retries, delegating to the shared
/// [`crate::retry::RetryPolicy`] (decorrelated jitter in [0.5, 1.0] from
/// `(salt, attempts)`) — jobs that fail together (a shared fault, a mass
/// deadline miss) spread their retries out instead of re-colliding in
/// lockstep, and the job pool and the network RPC layer stay on one
/// implementation of the constants.
fn retry_backoff(cfg: &PoolConfig, attempts: u32, salt: u64) -> Duration {
    let policy = crate::retry::RetryPolicy {
        base: cfg.backoff_base,
        cap: cfg.backoff_cap,
        max_attempts: u32::MAX,
    };
    policy.backoff(attempts, salt)
}

fn finalize_jobs(shared: &Shared) {
    // Snapshot candidate rids only — holding an Arc clone here would keep
    // the strong count above 1 and wedge the ownership-recovery spin below.
    let candidates: Vec<u64> = {
        let active = shared.active.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        active
            .iter()
            .filter(|(_, j)| {
                let finished = j.run.remaining.load(Ordering::Acquire) == 0;
                let halted = j.run.halted.load(Ordering::SeqCst);
                (finished || halted) && j.inflight.load(Ordering::SeqCst) == 0
            })
            .map(|(&rid, _)| rid)
            .collect()
    };
    for rid in candidates {
        // A worker that raced us holds only a transient Arc clone (it sees
        // `halted` or an all-done bitmap and drops it within one step);
        // the unwrap spin below absorbs it.
        let Some(arc) =
            shared.active.write().unwrap_or_else(std::sync::PoisonError::into_inner).remove(&rid)
        else {
            continue;
        };
        shared.active_footprint.fetch_sub(arc.footprint, Ordering::SeqCst);
        let mut arc = arc;
        let job = loop {
            match Arc::try_unwrap(arc) {
                Ok(job) => break job,
                Err(back) => {
                    arc = back;
                    // A worker still holds a transient clone (it will drop
                    // it within its current scheduling step).
                    std::thread::yield_now();
                }
            }
        };
        conclude_job(shared, job);
    }
}

/// Turn one quiesced, owned job into a terminal record, a retry, or a
/// suspension.
fn conclude_job(shared: &Shared, mut job: ActiveJob) {
    // An out-of-core job is hollow at quiescence: spilled tiles live only
    // in its spill file. Fault everything back in before any verdict
    // branch clones or returns `a`/`factors`. When the fault-in itself
    // fails, a clean or suspending verdict must not survive — the state
    // it would persist is zero-filled where the read failed.
    let unpage_err = job.run.store.unpage(&mut job.a, &mut job.factors).err();
    let verdict = relock(&job.verdict).take();
    let verdict = match (verdict, unpage_err) {
        (None, Some(message)) | (Some(Verdict::Suspend(_)), Some(message)) => {
            Some(Verdict::Fault(ExecError::SpillIo { message }))
        }
        (v, _) => v,
    };
    let stats = *relock(&job.stats);
    let tasks_total = job.graph.tasks().len();
    let tasks_done = tasks_total - job.run.remaining.load(Ordering::Acquire);
    let id = job.id;
    match verdict {
        None => {
            // Clean completion.
            debug_assert_eq!(tasks_done, tasks_total);
            let ActiveJob { a, factors, .. } = job;
            let result = JobResult { a, factors };
            // Durable pools persist R/V/T *before* journaling the
            // completion, so a journaled Completed always implies a
            // retrievable result.
            if let Some(store) = &shared.results {
                let bytes = result_to_bytes(id, &result);
                match store.put(id, &bytes) {
                    Ok(file) => {
                        for pruned in store.prune_over_cap() {
                            shared.log_event(JournalEvent::ResultPruned { id: pruned });
                        }
                        shared.log_event(JournalEvent::Completed { id, file: Some(file) });
                    }
                    Err(e) => {
                        eprintln!("hqr-pool: persisting result of job-{id} failed: {e}");
                        shared.log_event(JournalEvent::Completed { id, file: None });
                    }
                }
            } else {
                shared.log_event(JournalEvent::Completed { id, file: None });
            }
            cleanup_ckpt(shared, id);
            shared.notify_records(|recs| {
                if let Some(r) = recs.get_mut(&id) {
                    r.state = JobState::Completed;
                    r.stats.merge(&stats);
                    r.tasks_done = tasks_done;
                    r.wall = Some(r.submitted.elapsed());
                    r.outcome = Some(JobOutcome {
                        id: JobId(id),
                        state: JobState::Completed,
                        attempts: r.attempts,
                        error: None,
                        stats: r.stats,
                        result: Some(result),
                        wall: r.wall.unwrap_or_default(),
                    });
                }
            });
        }
        Some(Verdict::Cancel) => {
            shared.log_event(JournalEvent::Cancelled { id });
            cleanup_ckpt(shared, id);
            shared.notify_records(|recs| {
                if let Some(r) = recs.get_mut(&id) {
                    r.state = JobState::Cancelled;
                    r.stats.merge(&stats);
                    r.tasks_done = tasks_done;
                    r.wall = Some(r.submitted.elapsed());
                    r.error = Some("cancelled while running".into());
                }
            });
        }
        Some(Verdict::Suspend(kind)) => {
            suspend_job(shared, job, stats, tasks_done, kind);
        }
        Some(v) => {
            let message = match &v {
                Verdict::Fault(e) => e.to_string(),
                Verdict::Deadline(d) => format!("deadline of {d:?} exceeded"),
                _ => unreachable!(),
            };
            retry_or_quarantine(shared, job, stats, tasks_done, message);
        }
    }
}

fn suspend_job(
    shared: &Shared,
    job: ActiveJob,
    stats: FaultStats,
    tasks_done: usize,
    kind: SuspendKind,
) {
    let id = job.id;
    // At quiescence the done set is exactly the completed tasks, and a task
    // only completes after all its predecessors did — so the set is closed
    // under predecessors, which is precisely what `validate_against`
    // requires of a resumable checkpoint.
    let completed: Vec<bool> = job.run.done.iter().map(|d| d.load(Ordering::Acquire)).collect();
    let ckpt = Checkpoint {
        mt: job.graph.mt(),
        nt: job.graph.nt(),
        b: job.graph.b(),
        ib: job.ib,
        fingerprint: graph_fingerprint(&job.graph, job.ib),
        input_seed: 0,
        elims: job.elims.clone(),
        completed,
        a: job.a.clone(),
        factors: job.factors.clone(),
    };
    let attempts = {
        let recs = relock(&shared.records);
        recs.get(&id).map_or(0, |r| r.attempts)
    };
    // Durable pools write the checkpoint file first: once Checkpointed
    // is journaled, a crash resumes from this panel frontier.
    if let Some(d) = &shared.cfg.durability {
        let file = format!("{CKPT_DIR}/job-{id}.ckpt");
        match write_checkpoint(&d.state_dir.join(&file), &ckpt) {
            Ok(()) => shared.log_event(JournalEvent::Checkpointed {
                id,
                tasks_done: tasks_done as u64,
                file,
            }),
            Err(e) => eprintln!("hqr-pool: checkpointing job-{id} failed: {e}"),
        }
    }
    shared.log_event(JournalEvent::Suspended { id, reason: kind.reason().into() });
    let ActiveJob { seq, elims, origin_policy, graph, footprint, .. } = job;
    let requeued = PendingJob {
        id,
        seq,
        policy: origin_policy,
        elims,
        seed: Seed::Resume(Box::new(ckpt)),
        graph,
        footprint,
        attempts,
        not_before: None,
        count_attempt: false,
    };
    match kind {
        SuspendKind::Drain => {
            // The legacy persisted-queue path wants policy + checkpoint.
            let Seed::Resume(ckpt) = requeued.seed else { unreachable!() };
            relock(&shared.suspended).push(SuspendedEntry {
                policy: requeued.policy,
                attempts,
                ckpt,
            });
            shared.notify_records(|recs| {
                if let Some(r) = recs.get_mut(&id) {
                    r.state = JobState::Suspended;
                    r.stats.merge(&stats);
                    r.tasks_done = tasks_done;
                    r.wall = Some(r.submitted.elapsed());
                    r.error = Some("suspended by drain; state checkpointed".into());
                }
            });
        }
        SuspendKind::Park => {
            relock(&shared.parked).insert(id, requeued);
            shared.notify_records(|recs| {
                if let Some(r) = recs.get_mut(&id) {
                    r.state = JobState::Suspended;
                    r.stats.merge(&stats);
                    r.tasks_done = tasks_done;
                    r.wall = Some(r.submitted.elapsed());
                    r.error = Some("suspended by request; resume with resume-job".into());
                }
            });
        }
        SuspendKind::Preempt | SuspendKind::Periodic => {
            // Straight back into the queue: the same attempt continues
            // from the checkpointed frontier when room frees up.
            relock(&shared.pending).push(requeued);
            shared.notify_records(|recs| {
                if let Some(r) = recs.get_mut(&id) {
                    r.state = JobState::Queued;
                    r.stats.merge(&stats);
                    r.tasks_done = tasks_done;
                    r.error = None;
                }
            });
        }
    }
}

fn retry_or_quarantine(
    shared: &Shared,
    job: ActiveJob,
    stats: FaultStats,
    tasks_done: usize,
    message: String,
) {
    let id = job.id;
    let seq = job.seq;
    let attempts = {
        let recs = relock(&shared.records);
        recs.get(&id).map_or(1, |r| r.attempts)
    };
    // `attempts` counts runs started; the budget allows `job_retries`
    // re-runs on top of the first.
    let can_retry = attempts <= job.origin_policy.job_retries && job.origin_seed.is_some();
    if can_retry {
        shared.log_event(JournalEvent::Failed { id, attempts, error: message.clone() });
        let not_before = Instant::now() + retry_backoff(&shared.cfg, attempts, id);
        let ActiveJob { origin_policy, origin_seed, elims, graph, footprint, .. } = job;
        relock(&shared.pending).push(PendingJob {
            id,
            seq,
            policy: origin_policy,
            elims,
            seed: origin_seed.expect("checked above"),
            graph,
            footprint,
            attempts,
            not_before: Some(not_before),
            count_attempt: true,
        });
        shared.notify_records(|recs| {
            if let Some(r) = recs.get_mut(&id) {
                r.state = JobState::Backoff;
                r.stats.merge(&stats);
                r.tasks_done = 0;
                r.error = Some(message);
            }
        });
    } else {
        shared.log_event(JournalEvent::Quarantined { id, error: message.clone() });
        cleanup_ckpt(shared, id);
        shared.notify_records(|recs| {
            if let Some(r) = recs.get_mut(&id) {
                r.state = JobState::Quarantined;
                r.stats.merge(&stats);
                r.tasks_done = tasks_done;
                r.wall = Some(r.submitted.elapsed());
                r.error = Some(message);
            }
        });
    }
}

fn admit_jobs(shared: &Shared) {
    if shared.draining.load(Ordering::SeqCst) {
        return;
    }
    loop {
        let admitted = {
            let mut pending = relock(&shared.pending);
            if pending.is_empty() {
                break;
            }
            let now = Instant::now();
            let budget = shared.cfg.mem_budget;
            let in_use = shared.active_footprint.load(Ordering::SeqCst);
            let active_count = {
                let active =
                    shared.active.read().unwrap_or_else(std::sync::PoisonError::into_inner);
                active.len()
            };
            if shared.cfg.max_active != 0 && active_count >= shared.cfg.max_active {
                break;
            }
            // Highest QoS first, FCFS within a class; best-fit skip-ahead
            // past jobs that don't currently fit the budget or are waiting
            // out a retry backoff.
            let mut order: Vec<usize> = (0..pending.len()).collect();
            order.sort_by_key(|&i| (pending[i].policy.qos.inverted(), pending[i].seq));
            let pick = order.into_iter().find(|&i| {
                let p = &pending[i];
                let gated = p.not_before.is_some_and(|t| now < t);
                let fits = in_use.saturating_add(p.footprint) <= budget || active_count == 0;
                !gated && fits
            });
            pick.map(|i| {
                let p = pending.remove(i);
                // The escape hatch above admits an over-budget job when
                // the pool is otherwise idle (so one huge job cannot
                // wedge the queue forever). That bypass must be visible,
                // not silent: journal it and warn.
                let over = in_use.saturating_add(p.footprint) > budget;
                (p, over)
            })
        };
        let Some((p, over_budget)) = admitted else { break };
        if over_budget {
            eprintln!(
                "hqr-pool: job {} admitted over budget (need {} bytes, budget {}): pool was idle",
                p.id, p.footprint, shared.cfg.mem_budget
            );
            shared.log_event(JournalEvent::OverBudgetAdmitted {
                id: p.id,
                need: p.footprint,
                budget: shared.cfg.mem_budget,
            });
        }
        activate_job(shared, p);
    }
}

fn activate_job(shared: &Shared, p: PendingJob) {
    let PendingJob {
        id,
        seq,
        policy: jp,
        elims,
        seed,
        graph,
        footprint,
        attempts,
        count_attempt,
        ..
    } = p;
    let n = graph.tasks().len();
    let retain = attempts < jp.job_retries;
    // Build the working state from the seed, retaining a pristine copy
    // when the job may be retried again later.
    let (mut a, mut factors, completed, seed_back): (
        TiledMatrix,
        TFactors,
        Vec<bool>,
        Option<Seed>,
    ) = match seed {
        Seed::Fresh(m) => {
            let back = retain.then(|| Seed::Fresh(m.clone()));
            (m, TFactors::allocate_for(&graph), vec![false; n], back)
        }
        Seed::Resume(ck) => {
            let back = retain.then(|| Seed::Resume(ck.clone()));
            let Checkpoint { a, factors, completed, .. } = *ck;
            (a, factors, completed, back)
        }
    };
    // A job whose working set outgrows the resident budget runs
    // out-of-core: tiles page against a spill file under the state
    // directory (or the OS temp dir on non-durable pools). Spill-store
    // setup failure degrades to fully-resident — the job was already
    // admitted, so availability beats the memory cap here.
    let spill_dir = shared.cfg.durability.as_ref().map(|d| d.state_dir.join("spill"));
    let store = open_store(
        &graph,
        &mut a,
        &mut factors,
        jp.ib,
        shared.cfg.resident_budget,
        spill_dir.as_deref(),
    )
    .unwrap_or_else(|e| {
        eprintln!("hqr-pool: job {id}: spill store unavailable ({e}); running resident");
        TileStore::with_ib(&mut a, &mut factors, jp.ib)
    });
    let opts = ExecOptions {
        ib: Some(jp.ib),
        max_retries: jp.max_retries,
        plan: jp.plan.clone(),
        policy: jp.policy,
        integrity: jp.integrity,
        ..Default::default()
    };
    let (run, frontier) = DagRun::new(&graph, store, &opts, Some(&completed), n);
    let rid = shared.next_rid.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(ActiveJob {
        rid,
        id,
        seq,
        qos_inv: jp.qos.inverted(),
        initial_remaining: run.remaining.load(Ordering::Relaxed),
        run,
        inflight: AtomicUsize::new(0),
        verdict: Mutex::new(None),
        stats: Mutex::new(FaultStats::default()),
        started: Instant::now(),
        deadline: jp.deadline,
        footprint,
        ib: jp.ib,
        elims,
        origin_policy: jp,
        origin_seed: seed_back,
        graph,
        a,
        factors,
    });
    shared.active_footprint.fetch_add(footprint, Ordering::SeqCst);
    {
        let mut active = shared.active.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        active.insert(rid, Arc::clone(&job));
    }
    let attempt = shared.notify_records(|recs| match recs.get_mut(&id) {
        Some(r) => {
            r.state = JobState::Running;
            if count_attempt {
                r.attempts += 1;
            }
            r.attempts
        }
        None => attempts,
    });
    shared.log_event(JournalEvent::Started { id, attempt });
    // Publish the initial frontier from the construction-time snapshot:
    // the job is already live, so a task released since by a running
    // predecessor must not be pushed twice.
    for tid in frontier {
        shared.sched.push(job.tag(tid, job.run.ranks[tid as usize]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_ordering_and_parsing() {
        assert!(QosClass::Interactive > QosClass::Normal);
        assert!(QosClass::Normal > QosClass::Batch);
        for q in QosClass::ALL {
            assert_eq!(QosClass::parse(q.name()), Some(q));
        }
        assert_eq!(QosClass::parse("platinum"), None);
        assert_eq!(QosClass::Interactive.inverted(), 0);
        assert_eq!(QosClass::Batch.inverted(), 2);
    }

    #[test]
    fn job_state_terminality() {
        for s in [JobState::Queued, JobState::Running, JobState::Backoff] {
            assert!(!s.is_terminal(), "{s}");
            assert_eq!(JobState::parse(s.name()), Some(s));
        }
        for s in [
            JobState::Completed,
            JobState::Cancelled,
            JobState::Shed,
            JobState::Quarantined,
            JobState::Suspended,
        ] {
            assert!(s.is_terminal(), "{s}");
            assert_eq!(JobState::parse(s.name()), Some(s));
        }
    }

    #[test]
    fn retry_backoff_doubles_caps_and_jitters() {
        let cfg = PoolConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(65),
            ..Default::default()
        };
        // Deterministic per (attempt, salt).
        assert_eq!(retry_backoff(&cfg, 1, 7), retry_backoff(&cfg, 1, 7));
        // Jitter keeps each delay inside [raw/2, raw] of the capped
        // exponential ladder.
        for (attempts, raw_ms) in [(1u32, 10u64), (2, 20), (3, 40), (4, 65), (30, 65)] {
            let raw = Duration::from_millis(raw_ms);
            for salt in 0..32u64 {
                let d = retry_backoff(&cfg, attempts, salt);
                assert!(d <= raw, "attempt {attempts} salt {salt}: {d:?} > {raw:?}");
                assert!(d >= raw / 2, "attempt {attempts} salt {salt}: {d:?} < {:?}", raw / 2);
            }
        }
        // Co-failing jobs decorrelate: salts do not all share one delay.
        let d0 = retry_backoff(&cfg, 1, 0);
        assert!((1..32).any(|s| retry_backoff(&cfg, 1, s) != d0));
    }

    fn flat_elims(mt: usize, nt: usize) -> Vec<ElimOp> {
        let mut elims = Vec::new();
        for k in 0..mt.min(nt) {
            for i in (k + 1)..mt {
                elims.push(ElimOp::new(k as u32, i as u32, k as u32, true));
            }
        }
        elims
    }

    /// Poll `id` until it is terminal; fails instead of hanging.
    fn wait_terminal(pool: &JobPool, id: JobId) -> JobView {
        let give_up = Instant::now() + Duration::from_secs(60);
        loop {
            let v = pool.status(id).expect("known job");
            if v.state.is_terminal() {
                return v;
            }
            assert!(Instant::now() < give_up, "job {} stuck in {}", id.0, v.state);
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Deadlines bite when a worker picks up a task, not only on the
    /// supervisor's tick: with a tick far longer than the job's run, a
    /// 1 ms deadline still quarantines a job of over a thousand tasks.
    #[test]
    fn deadline_is_enforced_when_a_worker_acquires_a_task() {
        let pool = JobPool::new(PoolConfig {
            nthreads: 2,
            tick: Duration::from_millis(50),
            ..Default::default()
        });
        let (nt, b) = (14, 16);
        let elims = flat_elims(nt, nt);
        assert!(TaskGraph::build(nt, nt, b, &elims).tasks().len() >= 1000);
        let mut spec = JobSpec::fresh(elims, TiledMatrix::random(nt, nt, b, 5));
        spec.deadline = Some(Duration::from_millis(1));
        let id = pool.submit(spec).expect("submit");
        let out = pool.wait(id).expect("known job");
        assert_eq!(out.state, JobState::Quarantined, "{:?}", out.error);
        let err = out.error.expect("quarantine records its reason");
        assert!(err.contains("deadline"), "reason should name the deadline: {err}");
        pool.shutdown();
    }

    /// A job admitted and finished the moment it is queued must still
    /// find its record, and on a durable pool its Accepted event must
    /// precede its Started and terminal events in the journal.
    #[test]
    fn accepted_is_recorded_and_journaled_before_the_job_can_run() {
        let dir = std::env::temp_dir().join(format!("hqr_pool_accept_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = JobPool::new(PoolConfig {
            nthreads: 2,
            queue_cap: 1024,
            tick: Duration::from_micros(50),
            durability: Some(DurabilityConfig::at(&dir)),
            ..Default::default()
        });
        let ids: Vec<JobId> = (0..64)
            .map(|seed| {
                let spec = JobSpec::fresh(flat_elims(2, 1), TiledMatrix::random(2, 1, 2, seed));
                pool.submit(spec).expect("submit")
            })
            .collect();
        for &id in &ids {
            let v = wait_terminal(&pool, id);
            assert_eq!(v.state, JobState::Completed, "{:?}", v.error);
            assert_eq!(v.tasks_done, v.tasks_total);
        }
        pool.shutdown();
        let events = Journal::read(&dir.join(JOURNAL_FILE)).expect("read journal");
        for id in ids {
            let kinds: Vec<&JournalEvent> = events.iter().filter(|e| e.job_id() == id.0).collect();
            assert!(
                matches!(kinds.first(), Some(JournalEvent::Accepted { .. })),
                "job {} journaled {kinds:?}",
                id.0
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_spec_roundtrips_dedup_key() {
        let a = TiledMatrix::zeros(2, 1, 4);
        let elims = flat_elims(2, 1);
        let mut spec = JobSpec::fresh(elims, a);
        spec.dedup_key = Some("tenant-42/run-7".into());
        let decoded = JobSpec::from_bytes(spec.to_bytes()).expect("roundtrip");
        assert_eq!(decoded.dedup_key.as_deref(), Some("tenant-42/run-7"));
        spec.dedup_key = None;
        let decoded = JobSpec::from_bytes(spec.to_bytes()).expect("roundtrip");
        assert_eq!(decoded.dedup_key, None);
    }

    /// The idle-pool escape hatch (`active_count == 0` in `admit_jobs`)
    /// exists so one oversized job cannot wedge the queue forever — but
    /// firing it must be loud: journaled as `OverBudgetAdmitted` and the
    /// job still driven to completion.
    #[test]
    fn idle_over_budget_admission_is_journaled_not_silent() {
        let dir = std::env::temp_dir().join(format!("hqr_pool_escape_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pool = JobPool::new(PoolConfig {
            nthreads: 2,
            mem_budget: 1,
            durability: Some(DurabilityConfig::at(&dir)),
            ..Default::default()
        });
        // Regular submission refuses anything over the 1-byte budget, so
        // plant the pending job directly — the shape a stale in-use
        // reading leaves behind when admission races finalization.
        let elims = flat_elims(2, 2);
        let a = TiledMatrix::random(2, 2, 4, 3);
        let graph = TaskGraph::build(2, 2, 4, &elims);
        let footprint = working_set_bytes(&graph);
        assert!(footprint > pool.shared.cfg.mem_budget);
        let id = 17u64;
        relock(&pool.shared.records).insert(
            id,
            JobRecord {
                state: JobState::Queued,
                qos: QosClass::Normal,
                tag: String::new(),
                attempts: 0,
                tasks_total: graph.tasks().len(),
                tasks_done: 0,
                error: None,
                stats: FaultStats::default(),
                submitted: Instant::now(),
                wall: None,
                outcome: None,
            },
        );
        relock(&pool.shared.pending).push(PendingJob {
            id,
            seq: 1,
            policy: JobPolicy {
                ib: 4,
                qos: QosClass::Normal,
                policy: SchedPolicy::Fifo,
                integrity: IntegrityMode::Off,
                max_retries: 0,
                job_retries: 0,
                deadline: None,
                plan: None,
                tag: String::new(),
                dedup_key: None,
            },
            elims,
            seed: Seed::Fresh(a),
            graph,
            footprint,
            attempts: 0,
            not_before: None,
            count_attempt: true,
        });
        let out = pool.wait(JobId(id)).expect("planted job reaches a terminal state");
        assert_eq!(out.state, JobState::Completed, "{:?}", out.error);
        pool.shutdown();
        let events = Journal::read(&dir.join(JOURNAL_FILE)).expect("read journal");
        let admitted = events.iter().any(|e| {
            matches!(
                e,
                JournalEvent::OverBudgetAdmitted { id: 17, need, budget: 1 }
                    if *need == footprint
            )
        });
        assert!(admitted, "escape hatch must journal OverBudgetAdmitted: {events:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
