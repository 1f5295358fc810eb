//! Property-based tests of the task-DAG runtime over *randomly generated*
//! valid elimination lists — not just the structured trees the library
//! ships, but arbitrary members of the combinatorial space of §III.

use hqr_runtime::{
    chrome_trace_from_exec, execute_serial, realized_critical_path, resume_from_checkpoint,
    try_execute_checkpointed, try_execute_traced, try_execute_with, validate_chrome_trace,
    CheckpointPolicy, CheckpointSpec, ElimOp, ExecOptions, FaultPlan, IntegrityMode, TaskGraph,
};
use hqr_tile::TiledMatrix;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Generate a random valid elimination list: per panel, repeatedly pick a
/// random alive non-top row as the victim and any alive row above it as
/// the killer (TT kernels, which are unconditionally valid).
fn random_elims(mt: usize, nt: usize, seed: u64) -> Vec<ElimOp> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for k in 0..mt.min(nt) {
        let mut alive: Vec<u32> = (k as u32..mt as u32).collect();
        while alive.len() > 1 {
            let vpos = rng.gen_range(1..alive.len());
            let upos = rng.gen_range(0..vpos);
            out.push(ElimOp::new(k as u32, alive[vpos], alive[upos], false));
            alive.remove(vpos);
        }
        alive.shuffle(&mut rng); // survivor identity is irrelevant beyond validity
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random lists build acyclic DAGs whose program order is topological
    /// and whose weight matches the §II invariant.
    #[test]
    fn random_lists_build_valid_dags(mt in 1usize..12, nt in 1usize..6, seed in any::<u64>()) {
        let elims = random_elims(mt, nt, seed);
        let g = TaskGraph::build(mt, nt, 3, &elims);
        let mut indeg = vec![0u32; g.tasks().len()];
        for t in 0..g.tasks().len() {
            for &s in g.successors(t) {
                prop_assert!((s as usize) > t);
                indeg[s as usize] += 1;
            }
        }
        prop_assert_eq!(&indeg[..], g.in_degrees());
        // Weight invariant (m >= n case).
        if mt >= nt {
            let expect: u64 = 6 * (mt * nt * nt) as u64 - 2 * (nt * nt * nt) as u64;
            let total: u64 = g.tasks().iter().map(|t| t.kind.weight()).sum();
            prop_assert_eq!(total, expect);
        }
    }

    /// For any random tree, parallel execution is bitwise equal to serial.
    #[test]
    fn parallel_equals_serial_on_random_trees(
        mt in 2usize..9, nt in 1usize..5, b in 1usize..5,
        seed in any::<u64>(), threads in 2usize..5,
    ) {
        let elims = random_elims(mt, nt, seed);
        let g = TaskGraph::build(mt, nt, b, &elims);
        let mut a1 = TiledMatrix::random(mt, nt, b, seed ^ 0xABCD);
        let mut a2 = a1.clone();
        let _ = execute_serial(&g, &mut a1);
        let _ = try_execute_with(&g, &mut a2, &ExecOptions::with_threads(threads)).unwrap();
        let (d1, d2) = (a1.to_dense(), a2.to_dense());
        prop_assert_eq!(d1.data(), d2.data());
    }

    /// For any seeded fault plan whose per-task failure counts stay within
    /// the retry budget, the recovered factorization is bitwise-identical
    /// to the fault-free one — on random trees, random faulted task sets
    /// and random thread counts, through both the plain and the traced
    /// recovery paths.
    #[test]
    fn any_recoverable_fault_plan_is_bitwise_transparent(
        mt in 2usize..8, nt in 1usize..5,
        seed in any::<u64>(), faults in 1usize..5,
        per_task in 1u32..3, threads in 2usize..5,
    ) {
        let b = 3usize;
        let elims = random_elims(mt, nt, seed);
        let g = TaskGraph::build(mt, nt, b, &elims);
        let n = g.tasks().len();
        let a0 = TiledMatrix::random(mt, nt, b, seed ^ 0x5EED);
        let (mut a1, mut a2, mut a3) = (a0.clone(), a0.clone(), a0);
        let f1 = execute_serial(&g, &mut a1);
        let plan = FaultPlan::new(seed).fail_random_tasks(n, faults, per_task);
        let planned = plan.failing_tasks().count();
        let opts = ExecOptions {
            nthreads: threads,
            max_retries: per_task,
            plan: Some(plan),
            ..Default::default()
        };
        let (f2, stats) = try_execute_with(&g, &mut a2, &opts).expect("faults within budget");
        let (d1, d2) = (a1.to_dense(), a2.to_dense());
        prop_assert_eq!(d1.data(), d2.data());
        prop_assert!(f2.bitwise_eq(&f1), "recovered factors differ from fault-free factors");
        prop_assert_eq!(stats.tasks_recovered as usize, planned);
        prop_assert!(stats.panics_caught as usize >= planned);
        // Tracing must not change recovery semantics: same plan, traced
        // path, same bits.
        let (f3, _, tr) = try_execute_traced(&g, &mut a3, &opts).expect("faults within budget");
        prop_assert!(f3.bitwise_eq(&f1), "traced recovery changed the factors");
        let d3 = a3.to_dense();
        prop_assert_eq!(d1.data(), d3.data());
        prop_assert!(tr.records.len() == n);
    }

    /// Kill-and-resume transparency on random trees: checkpoint at every
    /// panel, stop after a random panel, resume from the file — the
    /// resumed run's factors and tile store are bitwise-identical to an
    /// uninterrupted serial run.
    #[test]
    fn checkpoint_resume_bitwise_on_random_trees(
        mt in 2usize..8, nt in 2usize..5,
        seed in any::<u64>(), threads in 1usize..4,
    ) {
        let b = 3usize;
        let elims = random_elims(mt, nt, seed);
        let g = TaskGraph::build(mt, nt, b, &elims);
        let a0 = TiledMatrix::random(mt, nt, b, seed ^ 0xC0DE);
        let mut a1 = a0.clone();
        let f1 = execute_serial(&g, &mut a1);

        let panels = mt.min(nt);
        let stop = (seed % (panels as u64 - 1)) as usize; // always before the last panel
        let path = std::env::temp_dir()
            .join(format!("hqr_prop_ckpt_{}_{seed:016x}.ckpt", std::process::id()));
        let mut a2 = a0.clone();
        let spec = CheckpointSpec {
            path: &path,
            elims: &elims,
            policy: CheckpointPolicy::default(),
            input_seed: seed,
            stop_after_panel: Some(stop),
        };
        let opts = ExecOptions::with_threads(threads);
        let run = try_execute_checkpointed(&g, &mut a2, &opts, &spec, false)
            .expect("checkpointed segment");
        let resumed = resume_from_checkpoint(&path, &opts, false).expect("resume");
        let _ = std::fs::remove_file(&path);
        prop_assert!(run.interrupted, "stop before the last panel must leave work");
        prop_assert_eq!(resumed.resumed_from, run.completed_tasks);
        prop_assert!(resumed.factors.bitwise_eq(&f1), "resume diverged from the serial run");
        let (d1, d2) = (a1.to_dense(), resumed.a.to_dense());
        prop_assert!(
            d1.data().iter().zip(d2.data()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "resumed tile store diverged"
        );
    }

    /// Trace invariants on random trees, thread counts and fault plans:
    /// every completed task gets exactly one span and their union covers
    /// the whole graph; per-worker spans never overlap; every span fits
    /// inside the wall clock; scheduler counters account for every task
    /// acquisition; the Chrome export is schema-valid; and the realized
    /// critical path is bounded by [longest single task, wall].
    #[test]
    fn trace_invariants_on_random_trees(
        mt in 2usize..8, nt in 1usize..5,
        seed in any::<u64>(), threads in 2usize..5, faults in 0usize..3,
    ) {
        let b = 3usize;
        let elims = random_elims(mt, nt, seed);
        let g = TaskGraph::build(mt, nt, b, &elims);
        let n = g.tasks().len();
        let mut a = TiledMatrix::random(mt, nt, b, seed ^ 0x7ACE);
        let opts = ExecOptions {
            nthreads: threads,
            max_retries: 1,
            plan: (faults > 0).then(|| FaultPlan::new(seed).fail_random_tasks(n, faults, 1)),
            ..Default::default()
        };
        let (_, _, tr) = try_execute_traced(&g, &mut a, &opts).expect("faults within budget");
        prop_assert_eq!(tr.nthreads, threads);
        prop_assert_eq!(tr.records.len(), n, "one span per completed task");
        let mut seen = vec![false; n];
        for r in &tr.records {
            prop_assert!(!seen[r.task as usize], "duplicate span for task {}", r.task);
            seen[r.task as usize] = true;
            prop_assert!((r.worker as usize) < threads);
            prop_assert!(r.start <= r.end);
            prop_assert!(r.end <= tr.wall + 1e-9);
        }
        prop_assert!(seen.iter().all(|&x| x), "span union covers the graph");
        // One thread runs one task at a time: per-worker spans are disjoint.
        let mut by_worker = tr.records.clone();
        by_worker.sort_by(|x, y| x.worker.cmp(&y.worker).then(x.start.total_cmp(&y.start)));
        for w in by_worker.windows(2) {
            if w[0].worker == w[1].worker {
                prop_assert!(w[1].start >= w[0].end, "worker {} overlaps", w[0].worker);
            }
        }
        // Every execution attempt was acquired from exactly one source;
        // inline retries re-run without re-acquiring, requeues re-acquire.
        let acquired: u64 =
            tr.counters.iter().map(|c| c.local_pops + c.injector_pops + c.steals).sum();
        let requeues: u64 = tr.counters.iter().map(|c| c.requeues).sum();
        prop_assert_eq!(acquired, n as u64 + requeues);
        let json = chrome_trace_from_exec(&tr, g.tasks());
        let events = validate_chrome_trace(&json).expect("schema-valid Chrome trace");
        prop_assert!(events >= n);
        let mut span = vec![None; n];
        for r in &tr.records {
            span[r.task as usize] = Some((r.start, r.end));
        }
        let cp = realized_critical_path(&g, |t| span[t as usize], |_, _| 0.0);
        let longest = tr.records.iter().map(|r| r.end - r.start).fold(0.0f64, f64::max);
        prop_assert!(cp.length >= longest - 1e-12, "CP dominates the longest task");
        prop_assert!(cp.length <= tr.wall + 1e-9, "CP within the wall clock");
    }

    /// Zero false positives: a fully guarded run with no injected
    /// corruption over any random tree and thread count detects nothing
    /// and matches the serial bits exactly.
    #[test]
    fn full_integrity_never_false_positives(
        mt in 2usize..8, nt in 1usize..5, b in 1usize..5,
        seed in any::<u64>(), threads in 2usize..5,
    ) {
        let elims = random_elims(mt, nt, seed);
        let g = TaskGraph::build(mt, nt, b, &elims);
        let mut a1 = TiledMatrix::random(mt, nt, b, seed ^ 0x9AD);
        let mut a2 = a1.clone();
        let f1 = execute_serial(&g, &mut a1);
        let opts = ExecOptions {
            nthreads: threads,
            max_retries: 1,
            integrity: IntegrityMode::Full,
            ..Default::default()
        };
        let (f2, stats) = try_execute_with(&g, &mut a2, &opts).expect("clean run");
        prop_assert_eq!(stats.sdc_injected, 0);
        prop_assert_eq!(stats.sdc_detected, 0, "false positive: {:?}", stats);
        let (d1, d2) = (a1.to_dense(), a2.to_dense());
        prop_assert_eq!(d1.data(), d2.data());
        prop_assert!(f2.bitwise_eq(&f1), "guarded clean run changed the factors");
    }

    /// 100% detection: any seeded set of single-bit-flip corruptions over
    /// any random tree is detected and recomputed under full integrity,
    /// and the result is bitwise-identical to the clean serial run — via
    /// both the plain and the traced execution paths.
    #[test]
    fn injected_bitflips_always_detected_under_full_integrity(
        mt in 2usize..8, nt in 1usize..5,
        seed in any::<u64>(), strikes in 1usize..5, threads in 2usize..5,
    ) {
        let b = 3usize;
        let elims = random_elims(mt, nt, seed);
        let g = TaskGraph::build(mt, nt, b, &elims);
        let n = g.tasks().len();
        let a0 = TiledMatrix::random(mt, nt, b, seed ^ 0x51DC);
        let (mut a1, mut a2, mut a3) = (a0.clone(), a0.clone(), a0);
        let f1 = execute_serial(&g, &mut a1);
        let plan = FaultPlan::new(seed).corrupt_random_tasks(n, strikes);
        let planned = plan.planned_corruptions() as u32;
        let opts = ExecOptions {
            nthreads: threads,
            max_retries: 1,
            plan: Some(plan),
            integrity: IntegrityMode::Full,
            ..Default::default()
        };
        let (f2, stats) = try_execute_with(&g, &mut a2, &opts).expect("detect-recompute");
        prop_assert_eq!(stats.sdc_injected, planned);
        prop_assert_eq!(stats.sdc_detected, planned, "escaped strike: {:?}", stats);
        prop_assert_eq!(stats.sdc_recomputed, planned);
        let (d1, d2) = (a1.to_dense(), a2.to_dense());
        prop_assert_eq!(d1.data(), d2.data());
        prop_assert!(f2.bitwise_eq(&f1), "recomputed factors differ from clean factors");
        let (f3, stats3, _) = try_execute_traced(&g, &mut a3, &opts).expect("traced recompute");
        prop_assert_eq!(stats3.sdc_detected, planned);
        prop_assert!(f3.bitwise_eq(&f1), "traced recompute changed the factors");
    }

    /// Any random tree produces the same R (up to diagonal signs) as the
    /// flat tree: the factorization is tree-independent.
    #[test]
    fn r_independent_of_random_tree(mt in 2usize..7, nt in 1usize..4, seed in any::<u64>()) {
        let b = 4usize;
        let flat: Vec<ElimOp> = (0..mt.min(nt))
            .flat_map(|k| ((k + 1)..mt).map(move |i| ElimOp::new(k as u32, i as u32, k as u32, true)))
            .collect();
        let rand_list = random_elims(mt, nt, seed);
        let r_of = |ops: &[ElimOp]| {
            let g = TaskGraph::build(mt, nt, b, ops);
            let mut a = TiledMatrix::random(mt, nt, b, 4242);
            let _ = execute_serial(&g, &mut a);
            a.to_dense().upper_triangle()
        };
        let r1 = r_of(&flat);
        let r2 = r_of(&rand_list);
        for d in 0..(nt * b).min(mt * b) {
            let sign = if r1.get(d, d) * r2.get(d, d) >= 0.0 { 1.0 } else { -1.0 };
            for j in d..nt * b {
                prop_assert!(
                    (r1.get(d, j) - sign * r2.get(d, j)).abs() < 1e-9,
                    "R mismatch at ({}, {})", d, j
                );
            }
        }
    }
}
