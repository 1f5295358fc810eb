//! Durable checkpoint/restart for tiled QR factorizations.
//!
//! The elimination-list DAGs of the paper have a structural property this
//! module exploits: tasks are emitted panel-major, and every dependency of
//! a panel-`k` task lives in a panel `≤ k`.  The task prefix belonging to
//! panels `0..=p` is therefore dependency-closed, and quiescing the
//! executor at a panel boundary yields a globally consistent state with no
//! in-flight coordination — exactly the "natural quiescent points" that
//! make consistent checkpoints cheap for tiled QR.
//!
//! A checkpoint is a single binary file (section container from
//! [`hqr_tile::io`], FNV-1a checksummed, written atomically via a sibling
//! temp file + rename) holding:
//!
//! * a header (`mt`, `nt`, `b`, `ib`, task count, completed count, graph
//!   fingerprint, caller seed),
//! * the elimination list (so `resume` can rebuild the identical graph),
//! * the completed-task bitmap,
//! * the tile store, and
//! * the three `TFactors` buffer families (presence bitmap + packed
//!   payloads).
//!
//! The [`graph_fingerprint`] binds a checkpoint to the exact plan that
//! produced it: resuming against a different elimination list, tile
//! layout, or inner block size is rejected with
//! [`CheckpointError::FingerprintMismatch`] instead of producing silent
//! numerical garbage.

use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

use hqr_tile::io::{
    bytes_of_f64s, bytes_of_u64s, f64s_of_bytes, fnv1a64, tiled_from_bytes, tiled_to_bytes,
    u64s_of_bytes, BinFormatError, SectionReader, SectionWriter,
};
use hqr_tile::TiledMatrix;

use crate::analysis::kind_index;
use crate::elim::ElimOp;
use crate::error::ExecError;
use crate::exec::{
    run_engine_segment, ExecInstant, ExecTrace, InstantKind, TFactors, WorkerCounters,
};
use crate::fault::{ExecOptions, FaultStats};
use crate::graph::TaskGraph;

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"HQRCKPT\0";
/// Checkpoint container version.
pub const CHECKPOINT_VERSION: u32 = 1;

const SEC_HEADER: u32 = 1;
const SEC_ELIMS: u32 = 2;
const SEC_DONE: u32 = 3;
const SEC_TILES: u32 = 4;
const SEC_VG: u32 = 5;
const SEC_TG: u32 = 6;
const SEC_TK: u32 = 7;

/// Why a checkpoint could not be written, read, or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The on-disk container is unreadable, truncated, corrupt, or
    /// malformed (see [`BinFormatError`] for the exact failure).
    Format(BinFormatError),
    /// The checkpoint was taken for a different plan (elimination list,
    /// tile layout, or inner block size changed since it was written).
    FingerprintMismatch {
        /// Fingerprint recomputed from the graph being resumed.
        expected: u64,
        /// Fingerprint stored in the checkpoint file.
        found: u64,
    },
    /// The file decoded but its contents are not a consistent runtime
    /// state (bitmap not closed under dependencies, factor buffers that
    /// don't match the graph's allocation pattern, bad policy, …).
    Inconsistent {
        /// What invariant failed.
        message: String,
    },
    /// Execution failed after the checkpoint machinery handed control to
    /// the engine.
    Exec(ExecError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Format(e) => write!(f, "checkpoint format error: {e}"),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint mismatch: graph expects {expected:#018x}, \
                 file holds {found:#018x} (elimination list, tile layout, or ib changed)"
            ),
            CheckpointError::Inconsistent { message } => {
                write!(f, "inconsistent checkpoint: {message}")
            }
            CheckpointError::Exec(e) => write!(f, "execution error during resume: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Format(e) => Some(e),
            CheckpointError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BinFormatError> for CheckpointError {
    fn from(e: BinFormatError) -> Self {
        CheckpointError::Format(e)
    }
}

impl From<ExecError> for CheckpointError {
    fn from(e: ExecError) -> Self {
        CheckpointError::Exec(e)
    }
}

fn inconsistent(message: impl Into<String>) -> CheckpointError {
    CheckpointError::Inconsistent { message: message.into() }
}

/// Structural fingerprint of a task graph plus the inner block size it
/// will be executed with.
///
/// FNV-1a over `(mt, nt, b, ib)` and every task's `(kind, k, i, piv, j)`.
/// Two graphs share a fingerprint iff they would run the same kernels on
/// the same tiles in the same program order — the condition under which a
/// checkpoint of one is a valid mid-run state of the other.
pub fn graph_fingerprint(graph: &TaskGraph, ib: usize) -> u64 {
    let mut words: Vec<u64> = Vec::with_capacity(5 + 2 * graph.tasks().len());
    words.extend([
        graph.mt() as u64,
        graph.nt() as u64,
        graph.b() as u64,
        ib as u64,
        graph.tasks().len() as u64,
    ]);
    for t in graph.tasks() {
        words.push(
            ((kind_index(t.kind) as u64) << 48)
                | ((t.k as u64) << 32)
                | ((t.i as u64) << 16)
                | t.piv as u64,
        );
        words.push(t.j as u64);
    }
    fnv1a64(&bytes_of_u64s(&words))
}

/// When the checkpoint driver writes a checkpoint.
///
/// Both knobs must hold for a write to happen: the run has crossed
/// `every_panels` more panel boundaries since the last write, AND at least
/// `min_interval` wall-clock time has elapsed.  The default (`every
/// panel`, no minimum interval) checkpoints at every quiescent point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after every `every_panels` completed panels (≥ 1).
    pub every_panels: usize,
    /// Skip a due checkpoint if the previous one was written less than
    /// this long ago (rate limiting for fast panels).
    pub min_interval: Duration,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy { every_panels: 1, min_interval: Duration::ZERO }
    }
}

impl CheckpointPolicy {
    /// Checkpoint at every `every_panels`-th panel boundary.
    pub fn every(every_panels: usize) -> Self {
        CheckpointPolicy { every_panels, ..Default::default() }
    }
}

/// A fully decoded checkpoint: everything needed to rebuild the graph and
/// continue the factorization.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Tile rows of the checkpointed matrix.
    pub mt: usize,
    /// Tile columns.
    pub nt: usize,
    /// Tile size.
    pub b: usize,
    /// Inner block size the run was using.
    pub ib: usize,
    /// Fingerprint of the graph + `ib` this state belongs to.
    pub fingerprint: u64,
    /// Caller-supplied metadata word (the CLI stores the input RNG seed).
    pub input_seed: u64,
    /// The elimination list the graph was built from.
    pub elims: Vec<ElimOp>,
    /// Per-task completion bitmap, program order.
    pub completed: Vec<bool>,
    /// The tile store at the quiescent point.
    pub a: TiledMatrix,
    /// Householder reflectors and T factors accumulated so far.
    pub factors: TFactors,
}

impl Checkpoint {
    /// Number of tasks marked complete.
    pub fn completed_tasks(&self) -> usize {
        self.completed.iter().filter(|&&d| d).count()
    }

    /// Rebuild the task graph this checkpoint was taken for.
    pub fn rebuild_graph(&self) -> Result<TaskGraph, CheckpointError> {
        let graph = TaskGraph::try_build(self.mt, self.nt, self.b, &self.elims)
            .map_err(|e| inconsistent(format!("stored elimination list is invalid: {e}")))?;
        if graph.tasks().len() != self.completed.len() {
            return Err(inconsistent(format!(
                "stored bitmap covers {} tasks but the elimination list builds {}",
                self.completed.len(),
                graph.tasks().len()
            )));
        }
        Ok(graph)
    }

    /// Check this checkpoint is a valid mid-run state of `graph` executed
    /// with inner block size `ib`.
    pub fn validate_against(&self, graph: &TaskGraph, ib: usize) -> Result<(), CheckpointError> {
        let expected = graph_fingerprint(graph, ib);
        if expected != self.fingerprint {
            return Err(CheckpointError::FingerprintMismatch { expected, found: self.fingerprint });
        }
        if graph.tasks().len() != self.completed.len() {
            return Err(inconsistent("bitmap length does not match task count"));
        }
        // Closure under dependencies: no completed task may have a
        // pending predecessor.
        for p in 0..graph.tasks().len() {
            if self.completed[p] {
                continue;
            }
            for &s in graph.successors(p) {
                if self.completed[s as usize] {
                    return Err(inconsistent(format!(
                        "completed task {s} depends on pending task {p}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Pack an elimination list as `[count, (k, victim, killer, ts)*]` words —
/// the encoding shared by checkpoint files and the service queue format.
pub(crate) fn elims_to_words(elims: &[ElimOp]) -> Vec<u64> {
    let mut words: Vec<u64> = Vec::with_capacity(1 + 4 * elims.len());
    words.push(elims.len() as u64);
    for e in elims {
        words.extend([e.k as u64, e.victim as u64, e.killer as u64, e.ts as u64]);
    }
    words
}

/// Decode the inverse of [`elims_to_words`], reporting malformed input
/// against section `tag`.
pub(crate) fn elims_from_words(tag: u32, words: &[u64]) -> Result<Vec<ElimOp>, CheckpointError> {
    let count = *words.first().ok_or_else(|| {
        CheckpointError::Format(BinFormatError::BadSection {
            tag,
            message: "missing elimination count".into(),
        })
    })? as usize;
    if words.len() != 1 + 4 * count {
        return Err(CheckpointError::Format(BinFormatError::BadSection {
            tag,
            message: format!("{} words for {count} eliminations", words.len()),
        }));
    }
    let mut elims = Vec::with_capacity(count);
    for chunk in words[1..].chunks_exact(4) {
        let narrow = |v: u64, what: &str| {
            u32::try_from(v).map_err(|_| {
                CheckpointError::Format(BinFormatError::BadSection {
                    tag,
                    message: format!("{what} {v} overflows u32"),
                })
            })
        };
        elims.push(ElimOp::new(
            narrow(chunk[0], "panel")?,
            narrow(chunk[1], "victim")?,
            narrow(chunk[2], "killer")?,
            chunk[3] != 0,
        ));
    }
    Ok(elims)
}

fn bitmap_to_words(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            words[i / 64] |= 1u64 << (i % 64);
        }
    }
    words
}

fn bitmap_from_words(tag: u32, words: &[u64], nbits: usize) -> Result<Vec<bool>, CheckpointError> {
    if words.len() != nbits.div_ceil(64) {
        return Err(CheckpointError::Format(BinFormatError::BadSection {
            tag,
            message: format!("bitmap holds {} words, expected {}", words.len(), nbits.div_ceil(64)),
        }));
    }
    let bits: Vec<bool> = (0..nbits).map(|i| words[i / 64] >> (i % 64) & 1 == 1).collect();
    // Padding bits past `nbits` must be zero, or the file was tampered with.
    for (w, &word) in words.iter().enumerate() {
        let live = if (w + 1) * 64 <= nbits { 64 } else { nbits.saturating_sub(w * 64) };
        if live < 64 && word >> live != 0 {
            return Err(CheckpointError::Format(BinFormatError::BadSection {
                tag,
                message: "nonzero padding bits in bitmap".into(),
            }));
        }
    }
    Ok(bits)
}

/// Serialize one `TFactors` family: presence bitmap words, then the
/// packed `b*b` payloads of present slots in index order — shared with the
/// service's durable result containers (`journal::result_to_bytes`).
pub(crate) fn family_to_bytes(family: &[Option<Box<[f64]>>]) -> Vec<u8> {
    let present: Vec<bool> = family.iter().map(|o| o.is_some()).collect();
    let mut out = bytes_of_u64s(&bitmap_to_words(&present));
    let payload: Vec<f64> =
        family.iter().filter_map(|o| o.as_deref()).flat_map(|s| s.iter().copied()).collect();
    out.extend_from_slice(&bytes_of_f64s(&payload));
    out
}

pub(crate) fn family_from_bytes(
    tag: u32,
    bytes: &[u8],
    slots: usize,
    b: usize,
) -> Result<Vec<Option<Box<[f64]>>>, CheckpointError> {
    let words = slots.div_ceil(64);
    if bytes.len() < words * 8 {
        return Err(CheckpointError::Format(BinFormatError::BadSection {
            tag,
            message: format!("family section too short for {slots}-slot bitmap"),
        }));
    }
    let (bitmap_bytes, payload_bytes) = bytes.split_at(words * 8);
    let present = bitmap_from_words(tag, &u64s_of_bytes(tag, bitmap_bytes)?, slots)?;
    let payload = f64s_of_bytes(tag, payload_bytes)?;
    let count = present.iter().filter(|&&p| p).count();
    if payload.len() != count * b * b {
        return Err(CheckpointError::Format(BinFormatError::BadSection {
            tag,
            message: format!(
                "family payload holds {} floats, expected {} ({} buffers of {}²)",
                payload.len(),
                count * b * b,
                count,
                b
            ),
        }));
    }
    let mut family: Vec<Option<Box<[f64]>>> = Vec::with_capacity(slots);
    let mut off = 0;
    for &p in &present {
        if p {
            family.push(Some(payload[off..off + b * b].to_vec().into_boxed_slice()));
            off += b * b;
        } else {
            family.push(None);
        }
    }
    Ok(family)
}

/// Stage a checkpoint into a section container, ready for
/// [`SectionWriter::into_bytes`] or [`SectionWriter::write_atomic`].
fn checkpoint_writer(ckpt: &Checkpoint) -> SectionWriter {
    let header = [
        ckpt.mt as u64,
        ckpt.nt as u64,
        ckpt.b as u64,
        ckpt.ib as u64,
        ckpt.completed.len() as u64,
        ckpt.completed_tasks() as u64,
        ckpt.fingerprint,
        ckpt.input_seed,
    ];
    let elims = elims_to_words(&ckpt.elims);
    let mut w = SectionWriter::new(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
    w.section(SEC_HEADER, &bytes_of_u64s(&header))
        .section(SEC_ELIMS, &bytes_of_u64s(&elims))
        .section(SEC_DONE, &bytes_of_u64s(&bitmap_to_words(&ckpt.completed)))
        .section(SEC_TILES, &tiled_to_bytes(&ckpt.a))
        .section(SEC_VG, &family_to_bytes(&ckpt.factors.vg))
        .section(SEC_TG, &family_to_bytes(&ckpt.factors.tg))
        .section(SEC_TK, &family_to_bytes(&ckpt.factors.tk));
    w
}

/// Write `ckpt` to `path` atomically (sibling temp file + rename).
pub fn write_checkpoint(path: &Path, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
    checkpoint_writer(ckpt).write_atomic(path)?;
    Ok(())
}

/// Serialize a checkpoint into the same checksummed container bytes
/// [`write_checkpoint`] puts on disk — used to embed suspended jobs inside
/// the service's persisted queue file.
pub fn checkpoint_to_bytes(ckpt: &Checkpoint) -> Vec<u8> {
    checkpoint_writer(ckpt).into_bytes()
}

/// Decode checkpoint container bytes (the inverse of
/// [`checkpoint_to_bytes`]), verifying the container checksum and every
/// section's internal consistency.
pub fn checkpoint_from_bytes(bytes: Vec<u8>) -> Result<Checkpoint, CheckpointError> {
    decode_checkpoint(SectionReader::from_bytes(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?)
}

/// Read and fully decode a checkpoint file, verifying the container
/// checksum and every section's internal consistency.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, CheckpointError> {
    decode_checkpoint(SectionReader::read(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?)
}

fn decode_checkpoint(r: SectionReader) -> Result<Checkpoint, CheckpointError> {
    let header = u64s_of_bytes(SEC_HEADER, r.require(SEC_HEADER)?)?;
    if header.len() != 8 {
        return Err(CheckpointError::Format(BinFormatError::BadSection {
            tag: SEC_HEADER,
            message: format!("header holds {} words, expected 8", header.len()),
        }));
    }
    let [mt, nt, b, ib, ntasks, ncompleted, fingerprint, input_seed] =
        [header[0], header[1], header[2], header[3], header[4], header[5], header[6], header[7]];
    let (mt, nt, b, ib, ntasks) =
        (mt as usize, nt as usize, b as usize, ib as usize, ntasks as usize);
    if mt == 0 || nt == 0 || b == 0 || ib == 0 || ib > b {
        return Err(inconsistent(format!("degenerate shape mt={mt} nt={nt} b={b} ib={ib}")));
    }

    let elim_words = u64s_of_bytes(SEC_ELIMS, r.require(SEC_ELIMS)?)?;
    let elims = elims_from_words(SEC_ELIMS, &elim_words)?;

    let completed =
        bitmap_from_words(SEC_DONE, &u64s_of_bytes(SEC_DONE, r.require(SEC_DONE)?)?, ntasks)?;
    let found_done = completed.iter().filter(|&&d| d).count();
    if found_done as u64 != ncompleted {
        return Err(inconsistent(format!(
            "header claims {ncompleted} completed tasks, bitmap holds {found_done}"
        )));
    }

    let a = tiled_from_bytes(SEC_TILES, r.require(SEC_TILES)?)?;
    if a.mt() != mt || a.nt() != nt || a.b() != b {
        return Err(inconsistent(format!(
            "tile store is {}x{} tiles of {} but header says {mt}x{nt} of {b}",
            a.mt(),
            a.nt(),
            a.b()
        )));
    }

    let slots = mt * nt;
    let factors = TFactors {
        b,
        mt,
        nt,
        vg: family_from_bytes(SEC_VG, r.require(SEC_VG)?, slots, b)?,
        tg: family_from_bytes(SEC_TG, r.require(SEC_TG)?, slots, b)?,
        tk: family_from_bytes(SEC_TK, r.require(SEC_TK)?, slots, b)?,
    };

    Ok(Checkpoint { mt, nt, b, ib, fingerprint, input_seed, elims, completed, a, factors })
}

/// What [`try_execute_checkpointed`] returns.
#[derive(Debug)]
pub struct CheckpointRun {
    /// Factors accumulated so far (complete iff `!interrupted`).
    pub factors: TFactors,
    /// Fault-recovery accounting across all executed segments.
    pub stats: FaultStats,
    /// Stitched execution trace (if tracing was requested), covering every
    /// segment plus `Checkpoint` instants at each write.
    pub trace: Option<ExecTrace>,
    /// Checkpoints written to disk.
    pub checkpoints_written: usize,
    /// Tasks completed before returning.
    pub completed_tasks: usize,
    /// True when the run stopped early at `stop_after_panel` (simulated
    /// kill) with work remaining.
    pub interrupted: bool,
}

/// Checkpoint placement and (for tests/CLI) a simulated mid-run kill.
#[derive(Clone, Debug)]
pub struct CheckpointSpec<'a> {
    /// Where to write checkpoints (overwritten in place, atomically).
    pub path: &'a Path,
    /// The elimination list `graph` was built from (stored in the file so
    /// `resume` can rebuild the graph without the caller).
    pub elims: &'a [ElimOp],
    /// When to checkpoint.
    pub policy: CheckpointPolicy,
    /// Caller metadata stored verbatim (the CLI stores the input seed).
    pub input_seed: u64,
    /// Stop after this panel completes — quiesce, force a final
    /// checkpoint, and return with `interrupted = true`.  Simulates a
    /// kill at a quiescent point.
    pub stop_after_panel: Option<usize>,
}

/// Index after the last task of each panel, in panel order.
fn panel_boundaries(graph: &TaskGraph) -> Vec<usize> {
    let tasks = graph.tasks();
    let mut out = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        if i + 1 == tasks.len() || tasks[i + 1].k != t.k {
            out.push(i + 1);
        }
    }
    out
}

/// Run the factorization with periodic durable checkpoints.
///
/// Execution proceeds in segments between quiescent panel boundaries
/// chosen by the policy; at each chosen boundary the engine quiesces
/// (worker threads join) and the full runtime state is written to
/// `spec.path`.  With `stop_after_panel` set the driver abandons the run
/// after that panel's checkpoint, simulating a killed process whose last
/// checkpoint survived — [`resume_from_checkpoint`] then finishes the
/// factorization to bitwise-identical factors.
pub fn try_execute_checkpointed(
    graph: &TaskGraph,
    a: &mut TiledMatrix,
    opts: &ExecOptions,
    spec: &CheckpointSpec<'_>,
    trace: bool,
) -> Result<CheckpointRun, CheckpointError> {
    if spec.policy.every_panels == 0 {
        return Err(inconsistent("CheckpointPolicy.every_panels must be >= 1"));
    }
    let check = TaskGraph::try_build(graph.mt(), graph.nt(), graph.b(), spec.elims)
        .map_err(|e| inconsistent(format!("spec.elims does not build a graph: {e}")))?;
    if check.tasks() != graph.tasks() {
        return Err(inconsistent("spec.elims does not generate the supplied graph"));
    }
    let n = graph.tasks().len();
    let boundaries = panel_boundaries(graph);
    if let Some(p) = spec.stop_after_panel {
        if p >= boundaries.len() {
            return Err(inconsistent(format!(
                "stop_after_panel {p} out of range: graph has {} panels",
                boundaries.len()
            )));
        }
    }
    let ib = opts.ib.unwrap_or(graph.b());
    let fingerprint = graph_fingerprint(graph, ib);

    let nthreads = opts.nthreads.max(1);
    let mut completed = vec![false; n];
    let mut factors = TFactors::allocate_for(graph);
    let mut stats = FaultStats::default();
    let mut stitched = trace.then(|| ExecTrace {
        nthreads,
        policy: opts.policy,
        records: Vec::new(),
        instants: Vec::new(),
        counters: vec![WorkerCounters::default(); nthreads],
        wall: 0.0,
        spill: None,
    });
    let epoch = Instant::now();
    let mut written = 0usize;
    let mut last_write: Option<Instant> = None;
    let mut cursor = 0usize;

    for (panel, &end) in boundaries.iter().enumerate() {
        let stop_here = spec.stop_after_panel == Some(panel);
        let last = panel + 1 == boundaries.len();
        let ckpt_here = (panel + 1) % spec.policy.every_panels == 0;
        if !(stop_here || last || ckpt_here) {
            continue; // keep the engine running through this boundary
        }
        if end > cursor {
            let offset = epoch.elapsed().as_secs_f64();
            let (seg_stats, seg_trace) =
                run_engine_segment(graph, a, &mut factors, opts, trace, Some(&completed), end)?;
            stats.merge(&seg_stats);
            for slot in completed[cursor..end].iter_mut() {
                *slot = true;
            }
            cursor = end;
            if let (Some(acc), Some(seg)) = (stitched.as_mut(), seg_trace) {
                for mut r in seg.records {
                    r.start += offset;
                    r.end += offset;
                    acc.records.push(r);
                }
                for mut i in seg.instants {
                    i.time += offset;
                    acc.instants.push(i);
                }
                for (total, c) in acc.counters.iter_mut().zip(&seg.counters) {
                    total.merge(c);
                }
                // Each segment pages and unpages independently; the
                // stitched trace accumulates their spill traffic.
                if let Some(seg_spill) = seg.spill {
                    acc.spill.get_or_insert_with(Default::default).merge(&seg_spill);
                }
            }
        }
        // A due policy checkpoint, or the forced pre-kill checkpoint.  A
        // run that completes naturally skips the final (fully-done)
        // checkpoint — there is nothing left to resume.
        let due = ckpt_here
            && !last
            && last_write.is_none_or(|t| t.elapsed() >= spec.policy.min_interval);
        if due || stop_here {
            let ckpt = Checkpoint {
                mt: graph.mt(),
                nt: graph.nt(),
                b: graph.b(),
                ib,
                fingerprint,
                input_seed: spec.input_seed,
                elims: spec.elims.to_vec(),
                completed: completed.clone(),
                a: a.clone(),
                factors: factors.clone(),
            };
            write_checkpoint(spec.path, &ckpt)?;
            written += 1;
            last_write = Some(Instant::now());
            if let Some(acc) = stitched.as_mut() {
                acc.instants.push(ExecInstant {
                    kind: InstantKind::Checkpoint,
                    task: cursor as u32,
                    worker: 0,
                    time: epoch.elapsed().as_secs_f64(),
                });
            }
        }
        if stop_here {
            break;
        }
    }

    if let Some(acc) = stitched.as_mut() {
        acc.records.sort_by(|x, y| x.start.total_cmp(&y.start));
        acc.instants.sort_by(|x, y| x.time.total_cmp(&y.time));
        acc.wall = epoch.elapsed().as_secs_f64();
    }
    Ok(CheckpointRun {
        factors,
        stats,
        trace: stitched,
        checkpoints_written: written,
        completed_tasks: cursor,
        interrupted: cursor < n,
    })
}

/// What [`resume_from_checkpoint`] returns.
#[derive(Debug)]
pub struct ResumedRun {
    /// The graph rebuilt from the stored elimination list.
    pub graph: TaskGraph,
    /// The tile store after the factorization finished.
    pub a: TiledMatrix,
    /// The completed factors.
    pub factors: TFactors,
    /// Fault-recovery accounting for the resumed segment.
    pub stats: FaultStats,
    /// Execution trace of the resumed segment (if requested), opening
    /// with a `Resume` instant.
    pub trace: Option<ExecTrace>,
    /// Tasks that were already complete in the checkpoint.
    pub resumed_from: usize,
    /// Caller metadata stored at checkpoint time.
    pub input_seed: u64,
    /// The inner block size the checkpointed factors were computed with.
    pub ib: usize,
}

/// Load a checkpoint and run the remaining tasks to completion.
///
/// The graph is rebuilt from the stored elimination list, revalidated
/// against the stored fingerprint, and the bitmap is checked for closure
/// under dependencies before any kernel runs.  `opts.ib`, if set, must
/// match the checkpointed inner block size (factors computed with one `ib`
/// cannot be extended with another).
pub fn resume_from_checkpoint(
    path: &Path,
    opts: &ExecOptions,
    trace: bool,
) -> Result<ResumedRun, CheckpointError> {
    let ckpt = read_checkpoint(path)?;
    let graph = ckpt.rebuild_graph()?;
    ckpt.validate_against(&graph, ckpt.ib)?;
    if let Some(ib) = opts.ib {
        if ib != ckpt.ib {
            return Err(inconsistent(format!(
                "resume requested ib={ib} but the checkpoint was taken with ib={}",
                ckpt.ib
            )));
        }
    }
    // The stored factor allocation must match what this graph allocates —
    // a slot mismatch means the file pairs a bitmap with foreign buffers.
    let fresh = TFactors::allocate_for(&graph);
    let same_slots = |x: &[Option<Box<[f64]>>], y: &[Option<Box<[f64]>>]| {
        x.iter().zip(y).all(|(a, b)| a.is_some() == b.is_some())
    };
    if !(same_slots(&fresh.vg, &ckpt.factors.vg)
        && same_slots(&fresh.tg, &ckpt.factors.tg)
        && same_slots(&fresh.tk, &ckpt.factors.tk))
    {
        return Err(inconsistent("factor buffers do not match the graph's allocation pattern"));
    }

    let mut opts = opts.clone();
    opts.ib = Some(ckpt.ib);
    let n = graph.tasks().len();
    let resumed_from = ckpt.completed_tasks();
    let Checkpoint { mut a, mut factors, completed, input_seed, ib, .. } = ckpt;
    let (stats, mut exec_trace) =
        run_engine_segment(&graph, &mut a, &mut factors, &opts, trace, Some(&completed), n)?;
    if let Some(tr) = exec_trace.as_mut() {
        tr.instants.insert(
            0,
            ExecInstant {
                kind: InstantKind::Resume,
                task: resumed_from as u32,
                worker: 0,
                time: 0.0,
            },
        );
    }
    Ok(ResumedRun { graph, a, factors, stats, trace: exec_trace, resumed_from, input_seed, ib })
}
