//! The disk tier of the two-tier tile store: an LRU-resident working set
//! of pinned/unpinned tile slots backed by one checksummed spill file.
//!
//! Production-scale matrices do not fit in RAM; tile algorithms were
//! designed for exactly this regime (block data layout gives out-of-core
//! execution its contiguous, fine-grained transfer unit). This module
//! turns the flat pointer table of [`crate::store::TileStore`] into a
//! cache: every `b × b` buffer of the matrix and the factor families
//! becomes a [`Slot`] that is either *resident* (heap `Box<[f64]>`) or
//! *spilled* (a fixed-offset record in the per-run spill file). The
//! executor pins a task's read/write slots before the attempt ladder runs
//! and unpins them after, so eviction can never pull a buffer out from
//! under a running kernel; a background prefetch thread faults in the
//! read-sets of tasks entering the ready frontier so disk reads overlap
//! compute.
//!
//! ## On-disk format
//!
//! The spill file is an array of fixed-length records, one per slot,
//! at offset `slot_index * record_len`. Each record is a complete
//! sectioned container from [`hqr_tile::io`] (magic `HQRSPILL`, one
//! payload section, FNV-1a trailer), so every fault-in re-verifies the
//! checksum: the container trailer doubles as the at-rest
//! silent-data-corruption guard. A mismatch surfaces as a typed error
//! ([`crate::ExecError::SpillIo`]), never as silent numerical garbage.
//!
//! ## Locking and liveness
//!
//! Each slot has its own mutex. A pin blocks on exactly one slot lock at
//! a time; eviction scans candidates with `try_lock` only, so no thread
//! ever blocks on a second slot lock while holding a first — the
//! classic two-lock deadlock is structurally impossible. The resident
//! budget is *soft*: pinned bytes may exceed it (correctness first), and
//! the evictor brings residency back under budget as pins release.

use std::collections::VecDeque;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use hqr_tile::io::{bytes_of_f64s, f64s_of_bytes, SectionReader, SectionWriter};
use hqr_tile::TiledMatrix;

use crate::exec::TFactors;
use crate::task::{SlotFamily, Task, SLOT_FAMILIES};

/// Magic bytes opening every spill record.
pub const SPILL_MAGIC: [u8; 8] = *b"HQRSPILL";
/// Spill record version.
pub const SPILL_VERSION: u32 = 1;

const S_TILE: u32 = 1;

/// Container overhead around one tile payload: magic (8) + version (4)
/// + section tag (4) + section length (8) + checksum trailer (8).
const RECORD_OVERHEAD: usize = 32;

/// Per-run totals of the paged store's tier traffic, snapshotted into
/// [`crate::exec::ExecTrace::spill`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillSummary {
    /// Resident-budget bytes the run was configured with.
    pub budget: u64,
    /// Unpinned slots evicted from the resident tier (buffer dropped).
    pub evictions: u64,
    /// Evictions that had to write the buffer back to disk (dirty).
    pub writebacks: u64,
    /// Slots faulted in on demand by a pinning worker (cache misses).
    pub demand_faults: u64,
    /// Slots faulted in ahead of use by the prefetch thread.
    pub prefetches: u64,
    /// Pins that found their slot resident *because* prefetch loaded it.
    pub prefetch_hits: u64,
}

impl SpillSummary {
    pub(crate) fn merge(&mut self, other: &SpillSummary) {
        self.budget = self.budget.max(other.budget);
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.demand_faults += other.demand_faults;
        self.prefetches += other.prefetches;
        self.prefetch_hits += other.prefetch_hits;
    }
}

/// One slot of the paged store.
struct Slot {
    /// Resident buffer, if any.
    buf: Option<Box<[f64]>>,
    /// True once a valid record for this slot exists in the spill file.
    on_disk: bool,
    /// Resident copy differs from (or predates) the disk copy.
    dirty: bool,
    /// Pin count; a pinned slot is never evicted.
    pins: u32,
    /// Loaded by the prefetch thread and not yet claimed by a pin.
    prefetched: bool,
    /// LRU clock stamp of the last pin.
    epoch: u64,
    /// The slot is backed by a real buffer (factor families only allocate
    /// the slots their graph writes).
    exists: bool,
}

/// What one [`PagedCore::pin`] observed, for per-worker counters.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PinEvents {
    pub demand_fault: bool,
    pub prefetch_hit: bool,
    pub evictions: u64,
}

/// Shared state of the paged store: slot table, spill file, budget
/// accounting, traffic counters, and the prefetch queue.
pub(crate) struct PagedCore {
    b: usize,
    mt: usize,
    slots_per_family: usize,
    tile_bytes: u64,
    record_len: u64,
    budget: u64,
    file: File,
    path: PathBuf,
    slots: Vec<Mutex<Slot>>,
    resident: AtomicU64,
    clock: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    demand_faults: AtomicU64,
    prefetches: AtomicU64,
    prefetch_hits: AtomicU64,
    queue: Mutex<VecDeque<usize>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
}

/// Owning handle: the core plus the prefetch thread's join handle. The
/// spill file is removed on drop.
pub(crate) struct PagedStore {
    pub(crate) core: Arc<PagedCore>,
    prefetcher: Option<std::thread::JoinHandle<()>>,
}

fn slot_label(b: usize, mt: usize, spf: usize, idx: usize) -> String {
    let fam = match idx / spf {
        0 => SlotFamily::A,
        1 => SlotFamily::Vg,
        2 => SlotFamily::Tg,
        _ => SlotFamily::Tk,
    };
    let local = idx % spf;
    let _ = b;
    format!("{}({},{})", fam.name(), local % mt, local / mt)
}

impl PagedCore {
    #[inline]
    pub(crate) fn slot_index(&self, fam: SlotFamily, i: usize, j: usize) -> usize {
        (fam as usize) * self.slots_per_family + i + j * self.mt
    }

    fn label(&self, idx: usize) -> String {
        slot_label(self.b, self.mt, self.slots_per_family, idx)
    }

    /// Raw pointer to a pinned slot's resident buffer. Panics if the slot
    /// is not resident — callers must hold a pin (the executor's attempt
    /// ladder pins every slot a task touches before running it).
    pub(crate) fn resident_ptr(&self, fam: SlotFamily, i: usize, j: usize) -> *mut f64 {
        let idx = self.slot_index(fam, i, j);
        let mut s = lock(&self.slots[idx]);
        debug_assert!(s.pins > 0, "unpinned access to paged slot {}", self.label(idx));
        s.buf
            .as_mut()
            .unwrap_or_else(|| panic!("paged slot {} accessed while evicted", self.label(idx)))
            .as_mut_ptr()
    }

    fn record_bytes(&self, buf: &[f64]) -> Vec<u8> {
        let mut w = SectionWriter::new(SPILL_MAGIC, SPILL_VERSION);
        w.section(S_TILE, &bytes_of_f64s(buf));
        w.into_bytes()
    }

    fn write_record(&self, idx: usize, buf: &[f64]) -> Result<(), String> {
        let bytes = self.record_bytes(buf);
        debug_assert_eq!(bytes.len() as u64, self.record_len);
        self.file.write_all_at(&bytes, idx as u64 * self.record_len).map_err(|e| {
            format!("spill write for {} ({}): {e}", self.label(idx), self.path.display())
        })
    }

    fn read_record(&self, idx: usize) -> Result<Box<[f64]>, String> {
        let mut bytes = vec![0u8; self.record_len as usize];
        self.file.read_exact_at(&mut bytes, idx as u64 * self.record_len).map_err(|e| {
            format!("spill read for {} ({}): {e}", self.label(idx), self.path.display())
        })?;
        let r = SectionReader::from_bytes(bytes, SPILL_MAGIC, SPILL_VERSION)
            .map_err(|e| format!("spill record for {} is corrupt: {e}", self.label(idx)))?;
        let payload = r
            .require(S_TILE)
            .map_err(|e| format!("spill record for {} is corrupt: {e}", self.label(idx)))?;
        let floats = f64s_of_bytes(S_TILE, payload)
            .map_err(|e| format!("spill record for {} is corrupt: {e}", self.label(idx)))?;
        if floats.len() != self.b * self.b {
            return Err(format!(
                "spill record for {} holds {} floats, expected {}",
                self.label(idx),
                floats.len(),
                self.b * self.b
            ));
        }
        Ok(floats.into_boxed_slice())
    }

    /// Evict unpinned resident slots (LRU first) until residency plus
    /// `incoming` fits the budget or no evictable slot remains. Returns
    /// the number of slots evicted. Never blocks on a slot lock.
    fn make_room(&self, incoming: u64) -> Result<u64, String> {
        let mut evicted = 0u64;
        while self.resident.load(Ordering::Acquire).saturating_add(incoming) > self.budget {
            // Pick the least-recently-pinned unpinned resident slot among
            // those we can inspect without blocking.
            let mut best: Option<(u64, usize)> = None;
            for idx in 0..self.slots.len() {
                let Ok(s) = self.slots[idx].try_lock() else { continue };
                if s.exists && s.pins == 0 && s.buf.is_some() {
                    let stamp = s.epoch;
                    if best.is_none_or(|(e, _)| stamp < e) {
                        best = Some((stamp, idx));
                    }
                }
            }
            let Some((stamp, idx)) = best else { return Ok(evicted) };
            let Ok(mut s) = self.slots[idx].try_lock() else { continue };
            // Re-check under the lock: a pin or another evictor may have
            // raced us since the scan.
            if !(s.exists && s.pins == 0 && s.buf.is_some() && s.epoch == stamp) {
                continue;
            }
            if s.dirty {
                let buf = s.buf.as_ref().unwrap();
                self.write_record(idx, buf)?;
                s.on_disk = true;
                s.dirty = false;
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            debug_assert!(s.on_disk, "evicting a clean slot with no disk copy");
            s.buf = None;
            s.prefetched = false;
            drop(s);
            self.resident.fetch_sub(self.tile_bytes, Ordering::AcqRel);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evicted += 1;
        }
        Ok(evicted)
    }

    /// Pin one slot, faulting it in from disk if evicted. Returns the
    /// events observed (for per-worker counters).
    pub(crate) fn pin(
        &self,
        fam: SlotFamily,
        i: usize,
        j: usize,
        will_write: bool,
    ) -> Result<PinEvents, String> {
        let idx = self.slot_index(fam, i, j);
        let mut ev = PinEvents::default();
        let mut s = lock(&self.slots[idx]);
        if !s.exists {
            return Err(format!("task pinned unallocated slot {}", self.label(idx)));
        }
        if s.buf.is_none() {
            // Demand fault. Make room without holding this slot's lock —
            // the evictor only try_locks, but spill writes are slow and
            // other pins of this same slot would serialize behind them
            // anyway; more importantly `make_room` must observe this slot
            // as un-evictable, which `pins > 0` below guarantees, so
            // release-and-retry keeps the invariant simple.
            drop(s);
            ev.evictions += self.make_room(self.tile_bytes)?;
            s = lock(&self.slots[idx]);
            if s.buf.is_none() {
                let buf = self.read_record(idx)?;
                s.buf = Some(buf);
                s.dirty = false;
                s.prefetched = false;
                self.resident.fetch_add(self.tile_bytes, Ordering::AcqRel);
                self.demand_faults.fetch_add(1, Ordering::Relaxed);
                ev.demand_fault = true;
            }
        }
        if s.prefetched {
            s.prefetched = false;
            self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
            ev.prefetch_hit = true;
        }
        s.pins += 1;
        s.dirty |= will_write;
        s.epoch = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(ev)
    }

    pub(crate) fn unpin(&self, idx: usize) {
        let mut s = lock(&self.slots[idx]);
        debug_assert!(s.pins > 0, "unpin of unpinned slot {}", self.label(idx));
        s.pins = s.pins.saturating_sub(1);
    }

    /// Queue the slots a ready task touches for background fault-in.
    pub(crate) fn enqueue_prefetch(&self, t: &Task) {
        let mut wanted = Vec::new();
        let ops = t.operands();
        for &(fam, i, j) in ops.reads().iter().chain(ops.writes()) {
            let idx = self.slot_index(fam, i, j);
            // Cheap pre-filter: skip slots already resident right now.
            if let Ok(s) = self.slots[idx].try_lock() {
                if !s.exists || s.buf.is_some() {
                    continue;
                }
            }
            wanted.push(idx);
        }
        if wanted.is_empty() {
            return;
        }
        let mut q = lock(&self.queue);
        q.extend(wanted);
        drop(q);
        self.queue_cv.notify_one();
    }

    /// Body of the background prefetch thread: fault queued slots in ahead
    /// of their pins, without ever pushing residency over budget.
    fn prefetch_loop(&self) {
        loop {
            let idx = {
                let mut q = lock(&self.queue);
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if let Some(idx) = q.pop_front() {
                        break idx;
                    }
                    q = self.queue_cv.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            // Best-effort: a prefetch that cannot make room (everything
            // pinned) or hits an I/O error is skipped; the pin path will
            // fault the slot in on demand and surface any real error.
            if self.make_room(self.tile_bytes).is_err() {
                continue;
            }
            if self.resident.load(Ordering::Acquire).saturating_add(self.tile_bytes) > self.budget {
                continue;
            }
            let mut s = lock(&self.slots[idx]);
            if !s.exists || s.buf.is_some() || s.pins > 0 {
                continue;
            }
            let Ok(buf) = self.read_record(idx) else { continue };
            s.buf = Some(buf);
            s.dirty = false;
            s.prefetched = true;
            self.resident.fetch_add(self.tile_bytes, Ordering::AcqRel);
            self.prefetches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot the traffic totals.
    pub(crate) fn summary(&self) -> SpillSummary {
        SpillSummary {
            budget: self.budget,
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            demand_faults: self.demand_faults.load(Ordering::Relaxed),
            prefetches: self.prefetches.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Process-unique spill file names (several paged runs may share a dir).
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Pick a spill file path under `dir` (or the OS temp dir).
pub(crate) fn spill_file_path(dir: Option<&Path>) -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!("hqr-spill-{}-{}.tiles", std::process::id(), seq);
    dir.map_or_else(std::env::temp_dir, Path::to_path_buf).join(name)
}

impl PagedStore {
    /// Build the paged store over a matrix and its factor buffers: take
    /// ownership of every allocated `b × b` buffer, then evict down to
    /// `budget` bytes so the run starts inside its residency target. The
    /// matrix and factors are hollow until [`PagedStore::unpage`] returns
    /// their buffers.
    pub(crate) fn build(
        a: &mut TiledMatrix,
        f: &mut TFactors,
        budget: u64,
        dir: Option<&Path>,
    ) -> Result<PagedStore, String> {
        let (mt, nt, b) = (a.mt(), a.nt(), a.b());
        let spf = mt * nt;
        let tile_bytes = (b * b * 8) as u64;
        let path = spill_file_path(dir);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| format!("cannot create spill file {}: {e}", path.display()))?;
        let mut slots = Vec::with_capacity(SLOT_FAMILIES * spf);
        let mut resident = 0u64;
        let absent = || Slot {
            buf: None,
            on_disk: false,
            dirty: false,
            pins: 0,
            prefetched: false,
            epoch: 0,
            exists: false,
        };
        // Family A first, in slot-index order (i fastest — idx = i + j*mt).
        for j in 0..nt {
            for i in 0..mt {
                let buf = a.take_tile_buf(i, j);
                resident += tile_bytes;
                slots.push(Mutex::new(Slot {
                    buf: Some(buf),
                    dirty: true,
                    exists: true,
                    ..absent()
                }));
            }
        }
        for fam in [&mut f.vg, &mut f.tg, &mut f.tk] {
            for slot in fam.iter_mut() {
                match slot.take() {
                    Some(buf) => {
                        resident += tile_bytes;
                        slots.push(Mutex::new(Slot {
                            buf: Some(buf),
                            dirty: true,
                            exists: true,
                            ..absent()
                        }));
                    }
                    None => slots.push(Mutex::new(absent())),
                }
            }
        }
        let core = Arc::new(PagedCore {
            b,
            mt,
            slots_per_family: spf,
            tile_bytes,
            record_len: (RECORD_OVERHEAD + b * b * 8) as u64,
            budget: budget.max(tile_bytes), // at least one resident tile
            file,
            path,
            slots,
            resident: AtomicU64::new(resident),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            demand_faults: AtomicU64::new(0),
            prefetches: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        // Establish the initial residency: everything starts resident
        // (the caller allocated the full matrix), so spill cold slots
        // until the working set fits. Errors here are real I/O failures.
        core.make_room(0)?;
        let worker = Arc::clone(&core);
        let prefetcher = std::thread::Builder::new()
            .name("hqr-spill-prefetch".into())
            .spawn(move || worker.prefetch_loop())
            .map_err(|e| format!("cannot spawn prefetch thread: {e}"))?;
        Ok(PagedStore { core, prefetcher: Some(prefetcher) })
    }

    /// Fault every slot back in and return the buffers to the matrix and
    /// factor families, then stop the prefetch thread. Called exactly once
    /// when execution (or the owning job) finishes — on success *and* on
    /// error paths, so callers never observe a hollow matrix. Slots whose
    /// spill records fail their checksum are restored as zero buffers and
    /// reported in the returned error.
    pub(crate) fn unpage(&mut self, a: &mut TiledMatrix, f: &mut TFactors) -> Result<(), String> {
        self.stop_prefetcher();
        let core = &self.core;
        let (mt, spf, b) = (core.mt, core.slots_per_family, core.b);
        let nt = spf / mt;
        let mut first_err: Option<String> = None;
        let mut recover = |idx: usize, core: &PagedCore| -> Box<[f64]> {
            let mut s = lock(&core.slots[idx]);
            debug_assert!(s.exists, "unpaging an absent slot");
            match s.buf.take() {
                Some(buf) => buf,
                None => match core.read_record(idx) {
                    Ok(buf) => buf,
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                        vec![0.0; b * b].into_boxed_slice()
                    }
                },
            }
        };
        for j in 0..nt {
            for i in 0..mt {
                let idx = core.slot_index(SlotFamily::A, i, j);
                a.put_tile_buf(i, j, recover(idx, core));
            }
        }
        for (fam, family) in
            [(SlotFamily::Vg, &mut f.vg), (SlotFamily::Tg, &mut f.tg), (SlotFamily::Tk, &mut f.tk)]
        {
            for j in 0..nt {
                for i in 0..mt {
                    let idx = core.slot_index(fam, i, j);
                    if lock(&core.slots[idx]).exists {
                        family[i + j * mt] = Some(recover(idx, core));
                    }
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn stop_prefetcher(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        self.core.queue_cv.notify_all();
        if let Some(h) = self.prefetcher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for PagedStore {
    fn drop(&mut self) {
        self.stop_prefetcher();
        let _ = std::fs::remove_file(&self.core.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::ElimOp;
    use crate::graph::TaskGraph;

    fn fixture(mt: usize, nt: usize, b: usize) -> (TaskGraph, TiledMatrix, TFactors) {
        let mut elims = Vec::new();
        for k in 0..mt.min(nt) {
            for i in (k + 1)..mt {
                elims.push(ElimOp::new(k as u32, i as u32, k as u32, true));
            }
        }
        let g = TaskGraph::build(mt, nt, b, &elims);
        let a = TiledMatrix::random(mt, nt, b, 42);
        let f = TFactors::allocate_for(&g);
        (g, a, f)
    }

    #[test]
    fn build_unpage_roundtrips_bitwise() {
        let (_g, mut a, mut f) = fixture(3, 2, 4);
        let before = a.to_dense();
        let tile_bytes = (4 * 4 * 8) as u64;
        // Budget of two tiles: almost everything spills at build time.
        let mut store = PagedStore::build(&mut a, &mut f, 2 * tile_bytes, None).unwrap();
        assert!(store.core.resident.load(Ordering::Relaxed) <= 2 * tile_bytes);
        store.unpage(&mut a, &mut f).unwrap();
        assert_eq!(a.to_dense().data(), before.data(), "spill roundtrip must be bitwise");
        let s = store.core.summary();
        assert!(s.evictions > 0 && s.writebacks > 0, "build under budget must evict");
    }

    #[test]
    fn pin_faults_in_and_blocks_eviction() {
        let (_g, mut a, mut f) = fixture(3, 2, 3);
        let tile_bytes = (3 * 3 * 8) as u64;
        let mut store = PagedStore::build(&mut a, &mut f, 2 * tile_bytes, None).unwrap();
        let core = Arc::clone(&store.core);
        let ev = core.pin(SlotFamily::A, 2, 1, false).unwrap();
        assert!(ev.demand_fault, "evicted slot must fault in on pin");
        let idx = core.slot_index(SlotFamily::A, 2, 1);
        // A pinned slot survives any amount of eviction pressure.
        core.make_room(u64::MAX / 2).unwrap();
        assert!(lock(&core.slots[idx]).buf.is_some(), "pinned slot evicted");
        core.unpin(idx);
        core.make_room(u64::MAX / 2).unwrap();
        assert!(lock(&core.slots[idx]).buf.is_none(), "unpinned slot must evict");
        store.unpage(&mut a, &mut f).unwrap();
    }

    #[test]
    fn corrupt_record_is_a_typed_fault() {
        let (_g, mut a, mut f) = fixture(2, 2, 3);
        let tile_bytes = (3 * 3 * 8) as u64;
        let mut store = PagedStore::build(&mut a, &mut f, tile_bytes, None).unwrap();
        let core = Arc::clone(&store.core);
        // Ensure the victim slot is on disk and evicted.
        let idx = core.slot_index(SlotFamily::A, 1, 1);
        assert!(lock(&core.slots[idx]).buf.is_none());
        // Flip one payload byte of its record: the FNV-1a trailer must
        // catch the at-rest corruption on the next fault-in.
        let off = idx as u64 * core.record_len + 20;
        let mut byte = [0u8; 1];
        core.file.read_exact_at(&mut byte, off).unwrap();
        byte[0] ^= 0x10;
        core.file.write_all_at(&byte, off).unwrap();
        let err = core.pin(SlotFamily::A, 1, 1, false).unwrap_err();
        assert!(err.contains("corrupt"), "error must name the corruption: {err}");
        // Unpage restores what it can and reports the bad slot.
        let err = store.unpage(&mut a, &mut f).unwrap_err();
        assert!(err.contains("A(1,1)"), "error must name the slot: {err}");
    }
}
