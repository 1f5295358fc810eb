//! Fault-injection integration tests: recovered executions must be
//! bitwise-identical to fault-free ones, stalls must be reported as
//! structured errors, and no failure mode may deadlock the executor.

use std::time::Duration;

use hqr_runtime::{
    chrome_trace_from_exec, execute_serial, try_execute_traced, try_execute_with,
    validate_sdc_instants, ElimOp, ExecError, ExecOptions, FaultPlan, IntegrityMode, SdcFault,
    SdcPattern, StallCause, TFactors, TaskGraph,
};
use hqr_tile::TiledMatrix;

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

/// Every factor buffer must match bitwise, not just the factored matrix.
fn assert_factors_identical(g: &TaskGraph, f1: &TFactors, f2: &TFactors) {
    for k in 0..g.mt().min(g.nt()) {
        for i in 0..g.mt() {
            assert_eq!(f1.vg(i, k), f2.vg(i, k), "Vg({i},{k}) differs");
            assert_eq!(f1.tg(i, k), f2.tg(i, k), "Tg({i},{k}) differs");
            assert_eq!(f1.tk(i, k), f2.tk(i, k), "Tk({i},{k}) differs");
        }
    }
}

/// Acceptance criterion: a seeded fault plan failing at least 3 distinct
/// tasks (once each) yields a factorization bitwise-identical to the
/// fault-free run.
#[test]
fn seeded_three_task_failures_recover_bitwise() {
    let (mt, nt, b) = (6, 4, 4);
    let g = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    let n = g.tasks().len();
    let mut a_clean = TiledMatrix::random(mt, nt, b, 11);
    let mut a_faulty = a_clean.clone();
    let f_clean = execute_serial(&g, &mut a_clean);

    let plan = FaultPlan::new(0xC0FFEE).fail_random_tasks(n, 3, 1);
    assert_eq!(plan.failing_tasks().count(), 3, "plan must hit 3 distinct tasks");
    let opts = ExecOptions { nthreads: 4, max_retries: 1, plan: Some(plan), ..Default::default() };
    let (f_faulty, stats) = try_execute_with(&g, &mut a_faulty, &opts).expect("recovers");

    assert_eq!(
        a_clean.to_dense().data(),
        a_faulty.to_dense().data(),
        "recovered factorization must be bitwise-identical"
    );
    assert_factors_identical(&g, &f_clean, &f_faulty);
    assert!(stats.panics_caught >= 3, "{stats:?}");
    assert_eq!(stats.tasks_recovered, 3, "{stats:?}");
    assert!(stats.tiles_rolled_back >= 3, "{stats:?}");
}

#[test]
fn repeated_failures_within_budget_recover() {
    let (mt, nt, b) = (5, 3, 3);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let mut a1 = TiledMatrix::random(mt, nt, b, 21);
    let mut a2 = a1.clone();
    let _ = execute_serial(&g, &mut a1);
    // Task 2 fails its first three attempts; budget allows exactly that.
    let plan = FaultPlan::new(7).fail_task(2, 3);
    let opts = ExecOptions { nthreads: 2, max_retries: 3, plan: Some(plan), ..Default::default() };
    let (_, stats) = try_execute_with(&g, &mut a2, &opts).expect("within budget");
    assert_eq!(a1.to_dense().data(), a2.to_dense().data());
    assert_eq!(stats.panics_caught, 3, "{stats:?}");
    assert_eq!(stats.tasks_recovered, 1, "{stats:?}");
}

#[test]
fn retry_budget_exhaustion_is_a_typed_error() {
    let (mt, nt, b) = (4, 3, 3);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let mut a = TiledMatrix::random(mt, nt, b, 31);
    let plan = FaultPlan::new(3).fail_task(0, 5);
    let opts = ExecOptions { nthreads: 3, max_retries: 2, plan: Some(plan), ..Default::default() };
    match try_execute_with(&g, &mut a, &opts) {
        Err(ExecError::TaskFailed { task: 0, attempts: 3, .. }) => {}
        other => panic!("expected TaskFailed for task 0 after 3 attempts, got {other:?}"),
    }
}

#[test]
fn poisoned_worker_hands_work_to_peers() {
    let (mt, nt, b) = (8, 4, 4);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let mut a1 = TiledMatrix::random(mt, nt, b, 41);
    let mut a2 = a1.clone();
    let _ = execute_serial(&g, &mut a1);
    let plan = FaultPlan::new(5).poison_worker(0);
    let opts = ExecOptions { nthreads: 4, plan: Some(plan), ..Default::default() };
    let (_, _stats) = try_execute_with(&g, &mut a2, &opts).expect("peers absorb the work");
    assert_eq!(a1.to_dense().data(), a2.to_dense().data());
}

#[test]
fn all_workers_poisoned_reports_stall_not_deadlock() {
    let (mt, nt, b) = (4, 2, 3);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let mut a = TiledMatrix::random(mt, nt, b, 51);
    let plan = FaultPlan::new(9).poison_worker(0);
    let opts = ExecOptions { nthreads: 1, plan: Some(plan), ..Default::default() };
    match try_execute_with(&g, &mut a, &opts) {
        Err(ExecError::Stalled(r)) => {
            assert_eq!(r.cause, StallCause::AllWorkersExited);
            assert!(r.remaining > 0, "{r:?}");
        }
        other => panic!("expected a stall, got {other:?}"),
    }
}

/// Watchdog unit test on a "broken DAG": the root's completion is dropped,
/// so nothing downstream can ever run; the watchdog must convert the stall
/// into a structured report instead of hanging.
#[test]
fn watchdog_reports_stall_with_frontier_diagnostics() {
    let (mt, nt, b) = (3, 3, 2);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let n = g.tasks().len();
    let mut a = TiledMatrix::random(mt, nt, b, 61);
    let plan = FaultPlan::new(0).lose_completion(0);
    let opts = ExecOptions {
        nthreads: 2,
        plan: Some(plan),
        watchdog: Some(Duration::from_millis(80)),
        ..Default::default()
    };
    match try_execute_with(&g, &mut a, &opts) {
        Err(ExecError::Stalled(r)) => {
            assert_eq!(r.cause, StallCause::WatchdogTimeout);
            assert_eq!(r.completed, 1, "only the lost root executed: {r:?}");
            assert_eq!(r.remaining, n, "no completion was ever delivered: {r:?}");
            assert!(r.stuck_frontier.is_empty(), "no runnable task is pending: {r:?}");
            assert!(!r.blocked.is_empty(), "successors must show up blocked: {r:?}");
            assert!(r.blocked.iter().all(|&(t, d)| (t as usize) < n && d > 0));
        }
        other => panic!("expected a watchdog stall, got {other:?}"),
    }
}

#[test]
fn losing_completions_without_watchdog_is_rejected() {
    let g = TaskGraph::build(2, 2, 2, &flat_elims(2, 2));
    let mut a = TiledMatrix::random(2, 2, 2, 71);
    let plan = FaultPlan::new(0).lose_completion(0);
    let opts = ExecOptions { nthreads: 2, plan: Some(plan), ..Default::default() };
    assert!(matches!(try_execute_with(&g, &mut a, &opts), Err(ExecError::Config { .. })));
}

#[test]
fn watchdog_stays_quiet_on_healthy_runs() {
    let (mt, nt, b) = (5, 3, 3);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let mut a1 = TiledMatrix::random(mt, nt, b, 81);
    let mut a2 = a1.clone();
    let _ = execute_serial(&g, &mut a1);
    let opts =
        ExecOptions { nthreads: 3, watchdog: Some(Duration::from_secs(5)), ..Default::default() };
    let (_, stats) = try_execute_with(&g, &mut a2, &opts).expect("healthy run");
    assert_eq!(a1.to_dense().data(), a2.to_dense().data());
    assert_eq!(stats.panics_caught, 0);
}

#[test]
fn config_errors_are_typed() {
    let g = TaskGraph::build(3, 3, 2, &flat_elims(3, 3));
    // Tile-size mismatch between the matrix and the graph.
    let mut wrong = TiledMatrix::random(3, 3, 4, 91);
    let two = ExecOptions::with_threads(2);
    assert!(matches!(try_execute_with(&g, &mut wrong, &two), Err(ExecError::Config { .. })));
    // Inner block size out of range.
    let mut a = TiledMatrix::random(3, 3, 2, 92);
    let opts = ExecOptions { nthreads: 2, ib: Some(5), ..Default::default() };
    assert!(matches!(try_execute_with(&g, &mut a, &opts), Err(ExecError::Config { .. })));
}

#[test]
fn try_parallel_matches_serial_on_clean_runs() {
    let (mt, nt, b) = (6, 4, 4);
    let g = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    let mut a1 = TiledMatrix::random(mt, nt, b, 101);
    let mut a2 = a1.clone();
    let _ = execute_serial(&g, &mut a1);
    let _ = try_execute_with(&g, &mut a2, &ExecOptions::with_threads(4)).expect("clean run");
    assert_eq!(a1.to_dense().data(), a2.to_dense().data());
}

/// SDC acceptance: with full integrity, every injected single-bit flip is
/// caught by the commit-time guard check and recomputed from the rollback
/// snapshot, and the result — matrix and factor buffers alike — is
/// bitwise-identical to a clean run.
#[test]
fn seeded_bitflip_corruptions_are_detected_and_recomputed() {
    let (mt, nt, b) = (6, 4, 4);
    let g = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    let n = g.tasks().len();
    let mut a_clean = TiledMatrix::random(mt, nt, b, 17);
    let mut a_sdc = a_clean.clone();
    let f_clean = execute_serial(&g, &mut a_clean);

    let plan = FaultPlan::new(0xBADBEEF).corrupt_random_tasks(n, 5);
    assert_eq!(plan.planned_corruptions(), 5, "plan must strike 5 distinct tasks");
    let opts = ExecOptions {
        nthreads: 4,
        max_retries: 1,
        plan: Some(plan),
        integrity: IntegrityMode::Full,
        ..Default::default()
    };
    let (f_sdc, stats) = try_execute_with(&g, &mut a_sdc, &opts).expect("detect-recompute");
    assert_eq!(stats.sdc_injected, 5, "{stats:?}");
    assert_eq!(stats.sdc_detected, 5, "every strike must be detected: {stats:?}");
    assert_eq!(stats.sdc_recomputed, 5, "every strike must be recomputed: {stats:?}");
    assert_eq!(
        a_clean.to_dense().data(),
        a_sdc.to_dense().data(),
        "recomputed factorization must be bitwise-identical"
    );
    assert_factors_identical(&g, &f_clean, &f_sdc);
}

/// With integrity off the strike still happens but nothing checks it: the
/// corruption escapes into the factorization output.
#[test]
fn integrity_off_lets_corruption_escape() {
    let (mt, nt, b) = (5, 3, 3);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let n = g.tasks().len();
    let mut a_clean = TiledMatrix::random(mt, nt, b, 23);
    let mut a_sdc = a_clean.clone();
    let f_clean = execute_serial(&g, &mut a_clean);

    let plan = FaultPlan::new(99).corrupt_random_tasks(n, 3);
    let opts = ExecOptions { nthreads: 2, max_retries: 1, plan: Some(plan), ..Default::default() };
    let (f_sdc, stats) = try_execute_with(&g, &mut a_sdc, &opts).expect("nothing checks");
    assert_eq!(stats.sdc_injected, 3, "{stats:?}");
    assert_eq!(stats.sdc_detected, 0, "integrity off must not verify: {stats:?}");
    let clean_bits =
        a_clean.to_dense().data() == a_sdc.to_dense().data() && f_sdc.bitwise_eq(&f_clean);
    assert!(!clean_bits, "an unguarded corruption must escape into the result");
}

/// Spot mode catches a scaling corruption too: the digest is bit-exact,
/// not flip-specific.
#[test]
fn scaling_corruption_is_detected_in_spot_mode() {
    let (mt, nt, b) = (4, 3, 3);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let mut a_clean = TiledMatrix::random(mt, nt, b, 41);
    let mut a_sdc = a_clean.clone();
    let f_clean = execute_serial(&g, &mut a_clean);

    let fault = SdcFault { slot: 0, element: 3, pattern: SdcPattern::Scale };
    let plan = FaultPlan::new(7).corrupt_task(2, fault);
    let opts = ExecOptions {
        nthreads: 2,
        max_retries: 1,
        plan: Some(plan),
        integrity: IntegrityMode::Spot,
        ..Default::default()
    };
    let (f_sdc, stats) = try_execute_with(&g, &mut a_sdc, &opts).expect("recomputes");
    assert_eq!((stats.sdc_injected, stats.sdc_detected, stats.sdc_recomputed), (1, 1, 1));
    assert_eq!(a_clean.to_dense().data(), a_sdc.to_dense().data());
    assert_factors_identical(&g, &f_clean, &f_sdc);
}

/// With a zero recompute budget detection still works, but recovery is
/// impossible: the run aborts with a typed error naming the task.
#[test]
fn sdc_without_recompute_budget_is_a_typed_error() {
    let (mt, nt, b) = (4, 3, 3);
    let g = TaskGraph::build(mt, nt, b, &flat_elims(mt, nt));
    let mut a = TiledMatrix::random(mt, nt, b, 57);
    let fault = SdcFault { slot: 0, element: 0, pattern: SdcPattern::BitFlip(52) };
    let plan = FaultPlan::new(5).corrupt_task(0, fault);
    let opts = ExecOptions {
        nthreads: 2,
        max_retries: 0,
        plan: Some(plan),
        integrity: IntegrityMode::Full,
        ..Default::default()
    };
    match try_execute_with(&g, &mut a, &opts) {
        Err(ExecError::SdcDetected { task: 0, attempts: 0, .. }) => {}
        other => panic!("expected SdcDetected for task 0, got {other:?}"),
    }
}

/// Detection and recompute instants flow into the Chrome trace and pass
/// the SDC-specific validator.
#[test]
fn sdc_instants_appear_in_the_chrome_trace() {
    let (mt, nt, b) = (5, 3, 3);
    let g = TaskGraph::build(mt, nt, b, &binary_elims(mt, nt));
    let n = g.tasks().len();
    let mut a = TiledMatrix::random(mt, nt, b, 73);
    let plan = FaultPlan::new(31).corrupt_random_tasks(n, 3);
    let opts = ExecOptions {
        nthreads: 3,
        max_retries: 1,
        plan: Some(plan),
        integrity: IntegrityMode::Full,
        ..Default::default()
    };
    let (_, stats, tr) = try_execute_traced(&g, &mut a, &opts).expect("recomputes");
    assert_eq!(stats.sdc_detected, 3, "{stats:?}");
    let json = chrome_trace_from_exec(&tr, g.tasks());
    assert!(json.contains("sdc detected") && json.contains("sdc recomputed"), "{json}");
    assert_eq!(validate_sdc_instants(&json), Ok((3, 3)));
}
