//! Cross-backend differential test: every way this repository can run a
//! factorization — the serial reference, the work-stealing executor under
//! FIFO and critical-path scheduling, the multi-job `JobPool`, the paged
//! out-of-core store, a checkpoint/resume round trip, and two loopback
//! `hqr-net` workers — must produce bitwise-identical factored tiles and
//! T factors on random elimination trees, at `ib = b` and at a small inner
//! block size. The shared factors must also pass the paper's two checks
//! (§V-A), and the parallel apply-Q DAG must reproduce serial `apply_q`.

use std::net::SocketAddr;

use hqr::prelude::*;
use hqr_kernels::Trans;
use hqr_net::{factorize, shutdown_workers, spawn_local, DistConfig, WorkerOptions};
use hqr_runtime::{
    execute_serial_ib, resume_from_checkpoint, try_execute_checkpointed, try_execute_traced,
    try_execute_with, CheckpointPolicy, CheckpointSpec, ExecOptions, JobPool, JobSpec, JobState,
    PoolConfig, SchedPolicy, TFactors, TaskGraph,
};
use hqr_tile::TiledMatrix;
use rand::{Rng, SeedableRng};

/// A random valid tree mixing TS and TT kills: per panel, a random alive
/// row below the diagonal is killed by a random alive row above it; the
/// kill uses TS kernels at random when the victim is still square (has
/// not killed anyone in this panel yet).
fn random_tree(mt: usize, nt: usize, seed: u64) -> ElimList {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut elims = Vec::new();
    for k in 0..mt.min(nt) {
        let mut alive: Vec<u32> = (k as u32..mt as u32).collect();
        let mut has_killed = vec![false; mt];
        while alive.len() > 1 {
            let vpos = rng.gen_range(1..alive.len());
            let upos = rng.gen_range(0..vpos);
            let (victim, killer) = (alive[vpos], alive[upos]);
            let ts = !has_killed[victim as usize] && rng.gen_bool(0.5);
            elims.push(Elimination::new(k as u32, victim, killer, ts, Level::Single));
            has_killed[killer as usize] = true;
            alive.remove(vpos);
        }
    }
    ElimList::new(mt, nt, elims)
}

fn bits(a: &TiledMatrix) -> Vec<u64> {
    a.to_dense().data().iter().map(|x| x.to_bits()).collect()
}

fn ckpt_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hqr_backend_parity_{tag}_{}.ckpt", std::process::id()))
}

/// Run `elims` on `a0` through every backend; returns (backend, A, T).
fn every_backend(
    pool: &JobPool,
    elims: &ElimList,
    a0: &TiledMatrix,
    ib: usize,
    tag: &str,
) -> Vec<(&'static str, TiledMatrix, TFactors)> {
    let (mt, nt, b) = (a0.mt(), a0.nt(), a0.b());
    let ops = elims.to_ops();
    let graph = TaskGraph::build(mt, nt, b, &ops);
    let two = |policy| ExecOptions { nthreads: 2, ib: Some(ib), policy, ..Default::default() };
    let mut out = Vec::new();

    let mut a = a0.clone();
    let f = execute_serial_ib(&graph, &mut a, ib);
    out.push(("serial", a, f));

    for (name, policy) in [("fifo", SchedPolicy::Fifo), ("cp", SchedPolicy::CriticalPath)] {
        let mut a = a0.clone();
        let (f, _) = try_execute_with(&graph, &mut a, &two(policy)).expect(name);
        out.push((name, a, f));
    }

    let mut spec = JobSpec::fresh(ops.clone(), a0.clone());
    spec.ib = Some(ib);
    let id = pool.submit(spec).expect("pool accepts the job");
    let done = pool.wait(id).expect("job outcome");
    assert_eq!(done.state, JobState::Completed, "{tag}: pool job {:?}", done.error);
    let r = done.result.expect("pool result");
    out.push(("pool", r.a, r.factors));

    // A resident tier of a quarter of the tile footprint forces paging.
    let quarter = (mt * nt * b * b * std::mem::size_of::<f64>() / 4) as u64;
    let mut a = a0.clone();
    let paged = ExecOptions { resident_budget: Some(quarter), ..two(SchedPolicy::Fifo) };
    let (f, _, trace) = try_execute_traced(&graph, &mut a, &paged).expect("paged run");
    assert!(trace.spill.is_some(), "{tag}: the 25% budget must page the store");
    out.push(("paged", a, f));

    let path = ckpt_path(tag);
    let spec = CheckpointSpec {
        path: &path,
        elims: &ops,
        policy: CheckpointPolicy::default(),
        input_seed: 0,
        stop_after_panel: Some(1),
    };
    let mut a = a0.clone();
    let opts = two(SchedPolicy::Fifo);
    let run = try_execute_checkpointed(&graph, &mut a, &opts, &spec, false).expect("checkpoint");
    assert!(run.interrupted, "{tag}: the run must stop after panel 1");
    let resumed = resume_from_checkpoint(&path, &opts, false).expect("resume");
    let _ = std::fs::remove_file(&path);
    out.push(("resume", resumed.a, resumed.factors));

    let workers: Vec<_> =
        (0..2).map(|_| spawn_local(WorkerOptions::default()).expect("spawn worker")).collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let dist = factorize(&addrs, &graph, a0, ib, &DistConfig::for_workers(2));
    shutdown_workers(&addrs);
    for w in workers {
        let _ = w.join();
    }
    let (a, f, _) = dist.expect("distributed factorization");
    out.push(("hqr-net", a, f));
    out
}

#[test]
fn every_backend_gives_bitwise_identical_factors() {
    let pool = JobPool::new(PoolConfig { nthreads: 2, ..Default::default() });
    for (seed, (mt, nt, b)) in [(1u64, (7usize, 3usize, 8usize)), (2, (6, 4, 6)), (3, (9, 3, 5))] {
        let elims = random_tree(mt, nt, seed);
        for ib in [b, 3] {
            let tag = format!("seed{seed}_ib{ib}");
            let a0 = TiledMatrix::random(mt, nt, b, 40 + seed);
            let runs = every_backend(&pool, &elims, &a0, ib, &tag);
            let (_, ref_a, ref_f) = &runs[0];
            for (name, a, f) in &runs[1..] {
                assert!(bits(a) == bits(ref_a), "{tag}: {name} factored tiles differ from serial");
                assert!(f.bitwise_eq(ref_f), "{tag}: {name} T factors differ from serial");
            }

            // The paper's checks on the shared result, and apply-Q parity.
            let mut a = a0.clone();
            let fac = qr_factorize_ib(&mut a, &elims, Execution::Serial, ib);
            assert!(
                bits(fac.factored()) == bits(ref_a),
                "{tag}: qr_factorize_ib differs from serial"
            );
            let check = fac.check(&a0.to_dense());
            assert!(
                check.is_satisfactory(),
                "{tag}: ortho={:e} resid={:e}",
                check.orthogonality,
                check.residual
            );
            let c0 = TiledMatrix::random(mt, 2, b, 90 + seed);
            for trans in [Trans::Trans, Trans::NoTrans] {
                let (mut cs, mut cp) = (c0.clone(), c0.clone());
                fac.apply_q(&mut cs, trans);
                fac.apply_q_parallel(&mut cp, trans, 2);
                assert!(bits(&cs) == bits(&cp), "{tag}: parallel apply-Q {trans:?} differs");
            }
        }
    }
    pool.shutdown();
}
