//! The `cluster` workload: the tall-skinny preset through
//! `hqr_net::factorize` on two loopback workers (1×2 owner grid), where the
//! coordinator relays the operands of every task.

use crate::common::{
    fingerprint, flip_one_bit, median, sub_seed, timed, Report, RunArgs, Scale, Tracer, LANE_CALLS,
    LANE_SETUP, THREADS,
};
use crate::factor::{
    self, exec_metrics, exec_opts, factorization_metrics, graph_metrics, kernel_metrics,
    more_setup, plan, traced_plan, Preset, Shape,
};
use hqr_net::{
    factorize, recv_msg, send_msg, shutdown_workers, spawn_local, DistConfig, DistReport,
    LocalWorker, Msg, WorkerOptions,
};
use hqr_runtime::{execute_serial, try_execute_traced, try_execute_with};
use hqr_tile::TiledMatrix;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape { mt: 32, nt: 8, b: 128 },
        Scale::Tiny => Shape { mt: 8, nt: 2, b: 16 },
    }
}

/// Spawn the loopback fleet and prove each worker answers (connect, then
/// one Ping/Pong). Returns the workers and the seconds spent spawning.
fn spawn_fleet() -> Result<(Vec<LocalWorker>, f64), String> {
    let (workers, spawn_s) = timed(|| {
        (0..THREADS).map(|_| spawn_local(WorkerOptions::default())).collect::<Result<Vec<_>, _>>()
    });
    let workers = workers.map_err(|e| format!("spawn worker: {e}"))?;
    for w in &workers {
        let mut s = TcpStream::connect_timeout(&w.addr, Duration::from_secs(5))
            .map_err(|e| format!("connect {}: {e}", w.addr))?;
        send_msg(&mut s, &Msg::Ping { seq: 1 }).map_err(|e| e.to_string())?;
        match recv_msg(&mut s, "pong", Duration::from_secs(5)) {
            Ok(Msg::Pong { .. }) => {}
            other => return Err(format!("worker {} did not answer a ping: {other:?}", w.addr)),
        }
    }
    Ok((workers, spawn_s))
}

fn stop_fleet(workers: Vec<LocalWorker>) {
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    shutdown_workers(&addrs);
    for w in workers {
        let _ = w.join();
    }
}

/// Run `cluster`.
pub fn run(args: &RunArgs) -> Report {
    let mut r = Report::default();
    let mut t = Tracer::new();
    let shape = shape(args.scale);

    // Set-up: plan + fleet spawn + connect, repeated; the median counts.
    let mut setup = Vec::new();
    let mut spawns = Vec::new();
    let mut kept = None;
    while more_setup(&setup, 0.5) {
        let t0 = Instant::now();
        let built = plan(shape, Preset::TallSkinny).and_then(|p| spawn_fleet().map(|f| (p, f)));
        let s = t0.elapsed().as_secs_f64();
        match built {
            Ok((p, (fleet, spawn_s))) => {
                setup.push(s);
                spawns.push(spawn_s);
                stop_fleet(fleet);
                kept = Some(p);
            }
            Err(e) => {
                r.error("cluster set-up", e);
                return r;
            }
        }
    }
    let plan = kept.expect("at least one set-up rep");
    let input = TiledMatrix::random(shape.mt, shape.nt, shape.b, sub_seed(args.seed, 3));
    let cfg = DistConfig::for_workers(THREADS);

    // Timed distributed factorizations, each on a fresh fleet (spawned and
    // stopped outside the timed region) so that no rep inherits another's
    // connections; results are fingerprinted for the check against the
    // serial executor made afterwards.
    let mut walls = Vec::new();
    let mut reports: Vec<DistReport> = Vec::new();
    let mut prints = Vec::new();
    let budget = if args.trace { 0.0 } else { args.seconds };
    let start = Instant::now();
    while walls.len() < if args.trace { 2 } else { 3 } || start.elapsed().as_secs_f64() < budget {
        let (fleet, _) = t.span(LANE_SETUP, "spawn fleet", "net", spawn_fleet);
        let fleet = match fleet {
            Ok((f, _)) => f,
            Err(e) => {
                r.error("cluster set-up", e);
                break;
            }
        };
        let addrs: Vec<SocketAddr> = fleet.iter().map(|w| w.addr).collect();
        let (out, wall) = t.span(LANE_CALLS, "hqr_net::factorize", "net", || {
            factorize(&addrs, &plan.graph, &input, shape.b, &cfg)
        });
        t.span(LANE_SETUP, "stop fleet", "net", || stop_fleet(fleet));
        match out {
            Ok((mut a, f, report)) => {
                if args.corrupt && prints.is_empty() {
                    flip_one_bit(&mut a);
                }
                prints.push(fingerprint(&a, &f));
                walls.push(wall);
                reports.push(report);
            }
            Err(e) => {
                r.error("hqr_net::factorize", e);
                if r.failed >= 3 {
                    break;
                }
            }
        }
    }
    let peak = crate::common::peak_rss_mb();
    let mut reference = input.clone();
    let rf = execute_serial(&plan.graph, &mut reference);
    let fp = fingerprint(&reference, &rf);
    for p in &prints {
        r.check(*p == fp, "distributed factors bitwise equal to execute_serial");
    }
    if walls.is_empty() {
        return r;
    }
    r.notes.push(format!(
        "{} distributed factorizations of {}x{} on {THREADS} workers",
        walls.len(),
        shape.rows(),
        shape.cols()
    ));

    if !args.trace {
        factorization_metrics(&mut r, median(&setup), shape, &walls, peak);
        return r;
    }

    let fresh = traced_plan(&mut t, shape, Preset::TallSkinny);
    graph_metrics(&mut r, &[fresh.as_ref().unwrap_or(&plan)]);
    let kb = kernel_metrics(&mut r, &mut t, args);
    let rep = &reports[reports.len() - 1];
    let bytes = rep.floats_moved as f64 * 8.0;
    let per_worker: Vec<f64> = rep.tasks_by_worker.iter().map(|&n| n as f64).collect();
    r.metric("net.spawn_s", median(&spawns), "s");
    r.metric("net.transfers", rep.transfers as f64, "count");
    r.metric("net.bytes_moved", bytes, "B");
    r.metric("net.bytes_per_task", bytes / rep.tasks_total as f64, "B");
    r.metric("net.rpc_retries", reports.iter().map(|x| x.rpc_retries as f64).sum(), "count");
    r.metric(
        "net.imbalance",
        per_worker.iter().cloned().fold(0.0, f64::max) / crate::common::mean(&per_worker),
        "ratio",
    );

    // The same graph on the executor: the kernel-work baseline the relay
    // overhead is measured against.
    let opts = exec_opts(args, None);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut engine = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let mut a = input.clone();
        untraced.push(timed(|| try_execute_with(&plan.graph, &mut a, &opts)).1);
        let mut a = input.clone();
        let offset = t.now();
        let (out, s) = t.span(LANE_CALLS, "try_execute_traced", "exec", || {
            try_execute_traced(&plan.graph, &mut a, &opts)
        });
        match out {
            Ok((_, _, tr)) => {
                traced.push(s);
                engine.push(tr.wall);
                last = Some((offset, tr));
            }
            Err(e) => r.error("executor baseline", e),
        }
    }
    let Some((offset, tr)) = last else { return r };
    t.exec_tasks(offset, &tr, plan.graph.tasks());
    exec_metrics(&mut r, &plan.graph, &tr, &kb);
    r.metric("trace.overhead_frac", median(&traced) / median(&untraced) - 1.0, "ratio");
    let elapsed: Vec<f64> = reports.iter().map(|x| x.elapsed.as_secs_f64()).collect();
    let relay = median(&elapsed) - median(&engine);
    r.metric("net.relay_overhead_s", relay, "s");
    r.accounting(
        "cluster wall (s)",
        median(&walls),
        &[
            ("executor wall", median(&traced)),
            ("net.relay_overhead_s (coordinator elapsed - engine wall)", relay),
        ],
    );
    factor::write_trace(&mut r, &t, args);
    r
}
