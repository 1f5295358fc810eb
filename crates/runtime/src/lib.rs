//! Task-DAG runtime for tiled QR factorizations — the reproduction's
//! substitute for the DAGuE/PaRSEC scheduling environment (§IV-C).
//!
//! As in DAGuE, "a tiled QR algorithm is fully determined by its elimination
//! list": callers hand the runtime an ordered list of [`ElimOp`]s and the
//! runtime derives every kernel task and every dependency from the data flow
//! (which tile each task reads and writes). The same [`TaskGraph`] feeds
//! three consumers:
//!
//! * [`exec::execute_serial`] — in-order execution on one thread, the
//!   reference every other backend is compared against bit for bit;
//! * [`exec::try_execute_with`] — a work-stealing multithreaded executor
//!   with data-reuse (LIFO) scheduling, mirroring DAGuE's "each core will
//!   try to execute close successors of the last task it ran". The same
//!   work-stealing core (one worker loop, one steal/park path, one shared
//!   ready queue) also drives the multi-job [`JobPool`] and
//!   [`apply_q_parallel`];
//! * the `hqr-sim` crate — a discrete-event cluster simulator that replays
//!   the DAG on a modeled distributed machine.

//!
//! Execution is fault-tolerant on request: the `try_execute_*` entry
//! points report failures as typed [`ExecError`]s, and
//! [`exec::try_execute_with`] adds bounded per-task retry with write-set
//! rollback, a deterministic seeded [`FaultPlan`] for fault injection, and
//! a stall watchdog (see `DESIGN.md`, "Fault tolerance"). Silent data
//! corruption is covered by checksum [`hqr_tile::TileGuard`]s on every
//! tile-sized buffer: an [`IntegrityMode`] on [`ExecOptions`] verifies
//! guards around each task and routes mismatches into the same
//! rollback/recompute path (see `DESIGN.md`, "Data integrity").

pub mod analysis;
pub mod apply_graph;
pub mod checkpoint;
pub mod elim;
mod engine;
pub mod error;
pub mod exec;
pub mod fault;
pub mod graph;
pub mod integrity;
pub mod journal;
pub mod lineage;
pub mod pool;
pub mod retry;
pub mod sched;
pub mod spill;
pub mod store;
pub mod task;
pub mod trace;

pub use apply_graph::{apply_q_parallel, ApplyGraph, ApplyTask};
pub use checkpoint::{
    graph_fingerprint, read_checkpoint, resume_from_checkpoint, try_execute_checkpointed,
    write_checkpoint, Checkpoint, CheckpointError, CheckpointPolicy, CheckpointRun, CheckpointSpec,
    ResumedRun, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use elim::ElimOp;
pub use error::{ExecError, GraphError, StallCause, StallReport};
pub use exec::{
    execute_serial, execute_serial_ib, try_execute_traced, try_execute_with, ExecInstant,
    ExecTrace, InstantKind, TFactors, TaskRecord, WorkerCounters,
};
pub use fault::{ExecOptions, FaultPlan, FaultStats, SdcFault, SdcPattern, SDC_SCALE_FACTOR};
pub use graph::TaskGraph;
pub use integrity::IntegrityMode;
pub use journal::{
    replay, result_from_bytes, result_to_bytes, Journal, JournalError, JournalEvent, RecoveredJob,
    ResultStore, StoredResult, JOURNAL_MAGIC, JOURNAL_VERSION, RESULT_MAGIC, RESULT_VERSION,
};
pub use lineage::{last_writers, rebuild_closure, recompute_slots, Slot};
pub use pool::{
    load_queue, DrainReport, DurabilityConfig, JobId, JobInput, JobOutcome, JobPool, JobResult,
    JobSpec, JobState, JobView, PoolConfig, QosClass, QueueEntry, QueueFormatError, RecoveryReport,
    SubmitError, SuspendKind, CKPT_DIR, JOURNAL_FILE, QUEUE_MAGIC, QUEUE_VERSION, RESULTS_DIR,
};
pub use retry::RetryPolicy;
pub use sched::SchedPolicy;
pub use spill::{SpillSummary, SPILL_MAGIC, SPILL_VERSION};
pub use task::{run_kernel, Task};
pub use trace::{
    chrome_trace_from_exec, realized_critical_path, validate_chrome_trace, validate_sdc_instants,
    ChromeTraceBuilder, PathStep, RealizedPath,
};
