//! Kernel tasks, their data-access footprints, and the one task→kernel
//! dispatch every backend runs them through.

use hqr_kernels::{geqrt_ib, tsmqr_ib, tsqrt_ib, ttmqr_ib, ttqrt_ib, unmqr_ib, KernelKind, Trans};

/// A single kernel invocation in the factorization DAG.
///
/// Fields are `u16` tile indices — tiled matrices beyond 65k×65k tiles are
/// far outside the paper's regime (the largest experiment is 1024 tile
/// rows) and the compact layout keeps multi-million-task DAGs in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Task {
    /// Kernel to run.
    pub kind: KernelKind,
    /// Panel index.
    pub k: u16,
    /// Row operated on (the triangularized row for GEQRT/UNMQR, the victim
    /// row for kill/update kernels).
    pub i: u16,
    /// Pivot (killer) row; unused (= `i`) for GEQRT/UNMQR.
    pub piv: u16,
    /// Trailing column for update kernels; unused (= `k`) for factor kernels.
    pub j: u16,
}

/// Slot families used for data-flow dependency tracking. Each family holds
/// one slot per tile coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlotFamily {
    /// The matrix tile itself.
    A = 0,
    /// The copy of GEQRT's V factor (strict lower triangle), copied out so
    /// UNMQRs can read it while kill kernels rewrite the tile's R part —
    /// the same logical-tile split DAGuE expresses through its data-flow
    /// descriptions.
    Vg = 1,
    /// GEQRT's T factor.
    Tg = 2,
    /// TSQRT/TTQRT's T factor (one per victim tile).
    Tk = 3,
}

/// Number of slot families.
pub const SLOT_FAMILIES: usize = 4;

impl SlotFamily {
    /// Short display name, e.g. for slot labels in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SlotFamily::A => "A",
            SlotFamily::Vg => "Vg",
            SlotFamily::Tg => "Tg",
            SlotFamily::Tk => "Tk",
        }
    }
}

impl Task {
    /// GEQRT task.
    pub fn geqrt(k: u16, i: u16) -> Self {
        Task { kind: KernelKind::Geqrt, k, i, piv: i, j: k }
    }

    /// UNMQR task (apply row `i`'s GEQRT to trailing column `j`).
    pub fn unmqr(k: u16, i: u16, j: u16) -> Self {
        Task { kind: KernelKind::Unmqr, k, i, piv: i, j }
    }

    /// TSQRT or TTQRT kill task.
    pub fn kill(k: u16, victim: u16, piv: u16, ts: bool) -> Self {
        let kind = if ts { KernelKind::Tsqrt } else { KernelKind::Ttqrt };
        Task { kind, k, i: victim, piv, j: k }
    }

    /// TSMQR or TTMQR update task.
    pub fn update(k: u16, victim: u16, piv: u16, j: u16, ts: bool) -> Self {
        let kind = if ts { KernelKind::Tsmqr } else { KernelKind::Ttmqr };
        Task { kind, k, i: victim, piv, j }
    }

    /// Human-readable label, `KERNEL(coords)` — the same naming the DOT
    /// export and the Chrome-trace export use, so a node in a Graphviz dump
    /// and a span in a Perfetto timeline can be matched by eye.
    pub fn label(&self) -> String {
        match self.kind {
            KernelKind::Geqrt => format!("GEQRT({},{})", self.i, self.k),
            KernelKind::Unmqr => format!("UNMQR({},{};{})", self.i, self.k, self.j),
            KernelKind::Tsqrt => format!("TSQRT({}<-{};{})", self.i, self.piv, self.k),
            KernelKind::Ttqrt => format!("TTQRT({}<-{};{})", self.i, self.piv, self.k),
            KernelKind::Tsmqr => format!("TSMQR({},{};{})", self.i, self.piv, self.j),
            KernelKind::Ttmqr => format!("TTMQR({},{};{})", self.i, self.piv, self.j),
        }
    }

    /// The tile whose owner node executes this task (owner-computes rule,
    /// matching DAGuE's data/task affinity: the task runs where its dominant
    /// output lives).
    pub fn affinity_tile(&self) -> (usize, usize) {
        match self.kind {
            KernelKind::Geqrt | KernelKind::Tsqrt | KernelKind::Ttqrt => {
                (self.i as usize, self.k as usize)
            }
            KernelKind::Unmqr | KernelKind::Tsmqr | KernelKind::Ttmqr => {
                (self.i as usize, self.j as usize)
            }
        }
    }

    /// The slots this task touches, without allocating.
    pub fn operands(&self) -> Operands {
        use SlotFamily::{Tg, Tk, Vg, A};
        let (k, i, piv, j) = (self.k as usize, self.i as usize, self.piv as usize, self.j as usize);
        match self.kind {
            KernelKind::Geqrt => Operands::new([(A, i, k), (Vg, i, k), (Tg, i, k)], []),
            KernelKind::Unmqr => Operands::new([(A, i, j)], [(Vg, i, k), (Tg, i, k)]),
            KernelKind::Tsqrt | KernelKind::Ttqrt => {
                Operands::new([(A, piv, k), (A, i, k), (Tk, i, k)], [])
            }
            KernelKind::Tsmqr | KernelKind::Ttmqr => {
                Operands::new([(A, piv, j), (A, i, j)], [(A, i, k), (Tk, i, k)])
            }
        }
    }

    /// Slots read by this task (excluding read-write slots listed in
    /// [`Task::writes`]); each entry is `(family, row, col)`.
    pub fn reads(&self) -> Vec<(SlotFamily, usize, usize)> {
        self.operands().reads().to_vec()
    }

    /// Slots written (or read-written) by this task.
    pub fn writes(&self) -> Vec<(SlotFamily, usize, usize)> {
        self.operands().writes().to_vec()
    }
}

/// A task's distinct operand slots (at most four): its written (or
/// read-written) slots, then its read-only slots.
#[derive(Clone, Copy, Debug)]
pub struct Operands {
    slots: [(SlotFamily, usize, usize); 4],
    writes: usize,
    len: usize,
}

impl Operands {
    fn new<const W: usize, const R: usize>(
        w: [(SlotFamily, usize, usize); W],
        r: [(SlotFamily, usize, usize); R],
    ) -> Self {
        let mut slots = [(SlotFamily::A, 0, 0); 4];
        slots[..W].copy_from_slice(&w);
        slots[W..W + R].copy_from_slice(&r);
        Operands { slots, writes: W, len: W + R }
    }

    /// Slots the kernel writes, in the order [`run_kernel`] takes them.
    pub fn writes(&self) -> &[(SlotFamily, usize, usize)] {
        &self.slots[..self.writes]
    }

    /// Slots the kernel only reads, in the order [`run_kernel`] takes them.
    pub fn reads(&self) -> &[(SlotFamily, usize, usize)] {
        &self.slots[self.writes..self.len]
    }
}

/// Run `kind`'s tile kernel with inner block size `ib` on its operand
/// buffers: `w` in [`Operands::writes`] order, `r` in [`Operands::reads`]
/// order. This is the one task→kernel mapping; the shared-memory store
/// and the distributed workers both run tasks through it, which is what
/// keeps their factors bitwise identical.
///
/// # Panics
/// If the buffer counts do not match `kind`'s operands.
pub fn run_kernel(kind: KernelKind, b: usize, ib: usize, w: &mut [&mut [f64]], r: &[&[f64]]) {
    match (kind, w, r) {
        (KernelKind::Geqrt, [a, vg, tg], []) => {
            geqrt_ib(b, ib, a, tg);
            // Copy V out so UNMQRs read it while kills rewrite the
            // tile's R part (the logical V/R tile split of the DAG).
            vg.copy_from_slice(a);
        }
        (KernelKind::Unmqr, [c], [v, t]) => unmqr_ib(b, ib, v, t, c, Trans::Trans),
        (KernelKind::Tsqrt, [a1, a2, t], []) => tsqrt_ib(b, ib, a1, a2, t),
        (KernelKind::Ttqrt, [a1, a2, t], []) => ttqrt_ib(b, ib, a1, a2, t),
        (KernelKind::Tsmqr, [a1, a2], [v2, t]) => tsmqr_ib(b, ib, v2, t, a1, a2, Trans::Trans),
        (KernelKind::Ttmqr, [a1, a2], [v2, t]) => ttmqr_ib(b, ib, v2, t, a1, a2, Trans::Trans),
        (kind, w, r) => {
            panic!("{kind:?} given {} written and {} read buffers", w.len(), r.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_is_compact() {
        // Multi-million-task DAGs depend on this staying small.
        assert!(
            std::mem::size_of::<Task>() <= 12,
            "Task grew to {} bytes",
            std::mem::size_of::<Task>()
        );
    }

    #[test]
    fn affinity_follows_owner_computes() {
        assert_eq!(Task::geqrt(1, 3).affinity_tile(), (3, 1));
        assert_eq!(Task::kill(0, 5, 2, true).affinity_tile(), (5, 0));
        assert_eq!(Task::update(0, 5, 2, 4, false).affinity_tile(), (5, 4));
        assert_eq!(Task::unmqr(2, 2, 7).affinity_tile(), (2, 7));
    }

    #[test]
    fn kill_selects_kernel_family() {
        assert_eq!(Task::kill(0, 1, 0, true).kind, KernelKind::Tsqrt);
        assert_eq!(Task::kill(0, 1, 0, false).kind, KernelKind::Ttqrt);
        assert_eq!(Task::update(0, 1, 0, 1, true).kind, KernelKind::Tsmqr);
        assert_eq!(Task::update(0, 1, 0, 1, false).kind, KernelKind::Ttmqr);
    }

    #[test]
    fn geqrt_reads_nothing_but_rewrites_its_tile() {
        let t = Task::geqrt(0, 0);
        assert!(t.reads().is_empty());
        assert!(t.writes().contains(&(SlotFamily::A, 0, 0)));
        assert!(t.writes().contains(&(SlotFamily::Vg, 0, 0)));
    }

    #[test]
    fn update_reads_v_and_t_of_its_kill() {
        let t = Task::update(1, 4, 2, 3, true);
        let r = t.reads();
        assert!(r.contains(&(SlotFamily::A, 4, 1)));
        assert!(r.contains(&(SlotFamily::Tk, 4, 1)));
        let w = t.writes();
        assert!(w.contains(&(SlotFamily::A, 2, 3)));
        assert!(w.contains(&(SlotFamily::A, 4, 3)));
    }

    #[test]
    fn unmqr_reads_vg_copy_not_tile() {
        // The V copy is what lets UNMQR run concurrently with kills that
        // rewrite the pivot tile's R part.
        let t = Task::unmqr(0, 0, 2);
        let r = t.reads();
        assert!(r.contains(&(SlotFamily::Vg, 0, 0)));
        assert!(!r.iter().any(|&(f, _, _)| f == SlotFamily::A));
    }
}
