//! The `service` workload: an in-process `JobPool` under an open loop of
//! seeded Poisson arrivals with a 50/40/10 interactive/normal/batch mix.
//! Each job is timed from the instant it was due, so a stall in the pool
//! also charges the jobs that arrive behind it.

use crate::common::{
    fingerprint, flip_one_bit, mean, median, percentile, sub_seed, timed, Report, RunArgs, Scale,
    Tracer, LANE_CALLS, LANE_JOBS, LANE_SETUP, LANE_SUBMIT, THREADS,
};
use crate::factor::{
    self, exec_metrics, exec_opts, graph_metrics, kernel_metrics, more_setup, plan, traced_plan,
    Plan, Preset, Shape,
};
use crate::kernels;
use hqr_runtime::{
    try_execute_traced, try_execute_with, JobPool, JobSpec, JobState, PoolConfig, QosClass,
};
use hqr_tile::TiledMatrix;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Offered load (jobs/s) at full scale: about 60% of the pool's capacity
/// when this benchmark was introduced. On a 2-core AVX2 host, 400 jobs of
/// this mix submitted at once complete at 6.2–7.1 GF/s of LAPACK flops,
/// about 93 jobs/s; the rate is frozen so that later changes are measured
/// at the same load.
const RATE_FULL: f64 = 55.0;
/// Offered load at smoke-test scale.
const RATE_TINY: f64 = 200.0;
/// Fewest jobs in a full-scale run, so p95 has 20 samples beyond it.
const MIN_JOBS: usize = 400;
/// A job the collector has waited on this long is cancelled as stuck (the
/// slowest job of a healthy run ends within a fraction of a second). Until
/// then the pool keeps every later job's factors, so this also bounds the
/// memory a stuck job can pile up.
const STUCK_AFTER: Duration = Duration::from_secs(5);
/// Distinct input matrices per class; job inputs cycle through them.
const INPUTS_PER_CLASS: usize = 8;

/// One QoS class of the traffic mix.
struct Class {
    qos: QosClass,
    name: &'static str,
    shape: Shape,
}

fn classes(scale: Scale) -> [Class; 3] {
    let s = |mt, nt, b| Shape { mt, nt, b };
    let (i, n, b) = match scale {
        Scale::Full => (s(8, 4, 32), s(8, 4, 64), s(16, 8, 64)),
        Scale::Tiny => (s(4, 2, 16), s(6, 3, 16), s(8, 4, 16)),
    };
    [
        Class { qos: QosClass::Interactive, name: "interactive", shape: i },
        Class { qos: QosClass::Normal, name: "normal", shape: n },
        Class { qos: QosClass::Batch, name: "batch", shape: b },
    ]
}

/// Deterministic uniform draws in [0, 1) (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (sub_seed(self.0, 0) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One arrival of the open loop.
#[derive(Clone, Copy)]
struct Arrival {
    due: f64,
    class: usize,
    input: usize,
}

/// Arrivals of one run: `jobs` Poisson arrivals conditioned to span
/// `seconds` (normalized exponential gaps), and the class mix exact in
/// every block of ten consecutive jobs (5 interactive, 4 normal, 1 batch,
/// in seeded order), so that runs differ in timing but never in how much
/// work of each class they offer, or over how long.
fn schedule(seed: u64, seconds: f64, jobs: usize) -> Vec<Arrival> {
    const BLOCK: [usize; 10] = [0, 0, 0, 0, 0, 1, 1, 1, 1, 2];
    let mut rng = Rng(sub_seed(seed, 7));
    let mut gaps: Vec<f64> = (0..=jobs).map(|_| -(1.0 - rng.next()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    gaps.iter_mut().for_each(|g| *g *= seconds / total);
    let mut due = 0.0;
    let mut next_input = [0usize; 3];
    let mut block = BLOCK;
    (0..jobs)
        .map(|j| {
            if j % BLOCK.len() == 0 {
                for i in (1..block.len()).rev() {
                    block.swap(i, (rng.next() * (i + 1) as f64) as usize);
                }
            }
            due += gaps[j];
            let class = block[j % BLOCK.len()];
            let input = next_input[class] % INPUTS_PER_CLASS;
            next_input[class] += 1;
            Arrival { due, class, input }
        })
        .collect()
}

/// What the loop observed for one job.
struct Done {
    arrival: Arrival,
    /// Generator lateness: submit call start − due (s).
    late: f64,
    /// Duration of the `submit` call (s).
    submit: f64,
    /// The pool's own submit → terminal time (s); `None` if refused.
    wall: Option<f64>,
    ok: bool,
}

impl Done {
    /// Due time → terminal state.
    fn latency(&self) -> Option<f64> {
        self.wall.map(|w| self.late + w)
    }
}

fn pool_config() -> PoolConfig {
    PoolConfig { nthreads: THREADS, ..PoolConfig::default() }
}

/// Run the open loop: submit every arrival at its due time from this
/// thread; a collector thread waits on each job and fingerprints its
/// factors against the solo reference for the same input. Returns what
/// was observed and, for each job that had to be cancelled as stuck, what
/// the pool reported about it just before.
fn open_loop(
    pool: &JobPool,
    plans: &[Plan],
    inputs: &[Vec<TiledMatrix>],
    refs: &[Vec<u64>],
    arrivals: &[Arrival],
    classes: &[Class],
    corrupt: bool,
) -> (Vec<Done>, Vec<String>) {
    let (tx, rx) = mpsc::channel::<(Done, Option<hqr_runtime::JobId>)>();
    let (finished_tx, finished_rx) = mpsc::channel::<()>();
    let waiting: Mutex<Option<(hqr_runtime::JobId, Instant)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        let waiting = &waiting;
        let collector = scope.spawn(move || {
            let mut out = Vec::new();
            let mut first = true;
            for (mut d, id) in rx {
                if let Some(id) = id {
                    *waiting.lock().expect("collector state") = Some((id, Instant::now()));
                    let outcome = pool.wait(id);
                    *waiting.lock().expect("collector state") = None;
                    if let Some(o) = outcome {
                        d.wall = Some(o.wall.as_secs_f64());
                        d.ok = o.state == JobState::Completed
                            && o.result.is_some_and(|mut res| {
                                if corrupt && first {
                                    flip_one_bit(&mut res.a);
                                    first = false;
                                }
                                fingerprint(&res.a, &res.factors)
                                    == refs[d.arrival.class][d.arrival.input]
                            });
                    }
                }
                out.push(d);
            }
            let _ = finished_tx.send(());
            out
        });
        // A job that never reaches a terminal state must not hang the
        // benchmark: it is cancelled, so its wait returns and it counts as
        // failed. If even the cancel does not end the wait, the pool has
        // lost the job and no result can be given: say which and exit.
        let watchdog = scope.spawn(move || {
            let mut stuck = Vec::new();
            while let Err(mpsc::RecvTimeoutError::Timeout) =
                finished_rx.recv_timeout(Duration::from_millis(100))
            {
                let current = *waiting.lock().expect("collector state");
                if let Some((id, since)) = current {
                    if since.elapsed() > 2 * STUCK_AFTER {
                        for (_, seen) in &stuck {
                            eprintln!("perfbench service: {seen}");
                        }
                        eprintln!(
                            "perfbench service: job {} did not end within {STUCK_AFTER:?} of its \
                             cancel; the pool lost it",
                            id.0
                        );
                        std::process::exit(1);
                    }
                    if since.elapsed() > STUCK_AFTER && !stuck.iter().any(|(s, _)| *s == id) {
                        let seen = pool.status(id).map_or("unknown to the pool".into(), |v| {
                            format!(
                                "{:?} {:?}, tasks_done {} of {}",
                                v.qos, v.state, v.tasks_done, v.tasks_total
                            )
                        });
                        if pool.cancel(id) {
                            stuck.push((id, format!("job {} stuck: {seen}", id.0)));
                        }
                    }
                }
            }
            stuck.into_iter().map(|(_, s)| s).collect()
        });
        let start = Instant::now();
        for &arrival in arrivals {
            let mut spec = JobSpec::fresh(
                plans[arrival.class].ops.clone(),
                inputs[arrival.class][arrival.input].clone(),
            );
            spec.qos = classes[arrival.class].qos;
            let now = start.elapsed().as_secs_f64();
            if arrival.due > now {
                std::thread::sleep(Duration::from_secs_f64(arrival.due - now));
            }
            let call = start.elapsed().as_secs_f64();
            let res = pool.submit(spec);
            let submit = start.elapsed().as_secs_f64() - call;
            let d = Done { arrival, late: call - arrival.due, submit, wall: None, ok: false };
            let sent = tx.send((d, res.ok()));
            assert!(sent.is_ok(), "collector thread exited early");
        }
        drop(tx);
        let done = collector.join().expect("collector thread panicked");
        (done, watchdog.join().expect("watchdog thread panicked"))
    })
}

/// Run `service`.
pub fn run(args: &RunArgs) -> Report {
    let mut r = Report::default();
    let mut t = Tracer::new();
    let classes = classes(args.scale);

    // Set-up: three plans plus `JobPool::new`, repeated; the median counts.
    let mut setup = Vec::new();
    let mut kept: Option<(Vec<Plan>, JobPool)> = None;
    while more_setup(&setup, 0.5) {
        let ((plans, pool), s) = timed(|| {
            let plans: Result<Vec<Plan>, String> =
                classes.iter().map(|c| plan(c.shape, Preset::Square)).collect();
            (plans, JobPool::new(pool_config()))
        });
        let plans = match plans {
            Ok(p) => p,
            Err(e) => {
                r.error("task graph build", e);
                return r;
            }
        };
        setup.push(s);
        if let Some((_, old)) = kept.replace((plans, pool)) {
            old.shutdown();
        }
    }
    let (plans, pool) = kept.expect("at least one set-up rep");
    let setup_s = median(&setup);

    // Inputs and the solo reference: each distinct input factored alone on
    // the executor; its fingerprint is what the pool must reproduce.
    let inputs: Vec<Vec<TiledMatrix>> = classes
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            (0..INPUTS_PER_CLASS)
                .map(|k| {
                    TiledMatrix::random(
                        c.shape.mt,
                        c.shape.nt,
                        c.shape.b,
                        sub_seed(args.seed, (10 + ci * 100 + k) as u64),
                    )
                })
                .collect()
        })
        .collect();
    let opts = exec_opts(args, None);
    let mut solo_ms = [0.0; 3];
    let mut refs = Vec::new();
    for (ci, plan) in plans.iter().enumerate() {
        let mut times = Vec::new();
        let mut prints = Vec::new();
        for input in &inputs[ci] {
            let mut a = input.clone();
            let (out, s) = timed(|| try_execute_with(&plan.graph, &mut a, &opts));
            match out {
                Ok((f, _)) => prints.push(fingerprint(&a, &f)),
                Err(e) => {
                    r.error("solo reference", e);
                    prints.push(0);
                }
            }
            times.push(s);
        }
        solo_ms[ci] = median(&times) * 1e3;
        refs.push(prints);
    }

    let rate = match args.scale {
        Scale::Full => RATE_FULL,
        Scale::Tiny => RATE_TINY,
    };
    let min_jobs = if args.scale == Scale::Full { MIN_JOBS } else { 20 };
    let jobs = ((rate * args.seconds / 10.0).round() as usize * 10).max(min_jobs);
    let arrivals = schedule(args.seed, jobs as f64 / rate, jobs);
    let loop_start = t.now();
    let ((done, stuck), _) = t.span(LANE_CALLS, "open loop", "pool", || {
        open_loop(&pool, &plans, &inputs, &refs, &arrivals, &classes, args.corrupt)
    });
    let peak = crate::common::peak_rss_mb();
    let (_, _) = t.span(LANE_SETUP, "JobPool::shutdown", "pool", || pool.shutdown());

    // Each submit call, and each job from due time to terminal state, on
    // the benchmark's timeline (one lane per QoS class).
    for d in &done {
        let due = loop_start + d.arrival.due;
        t.record(LANE_SUBMIT, "JobPool::submit", "pool", due + d.late, due + d.late + d.submit);
        if let Some(l) = d.latency() {
            t.record(
                LANE_JOBS + d.arrival.class as u32,
                classes[d.arrival.class].name,
                "job",
                due,
                due + l,
            );
        }
    }
    if !stuck.is_empty() {
        r.notes.push(format!(
            "{} jobs never reached a terminal state within {STUCK_AFTER:?} and were cancelled",
            stuck.len()
        ));
        r.notes.extend(stuck);
    }
    let mut rejected = 0;
    for d in &done {
        if d.wall.is_none() {
            rejected += 1;
        }
        r.check(d.ok, "job completed with factors bitwise equal to its solo run");
    }
    let lat: Vec<f64> = done.iter().filter_map(Done::latency).collect();
    let inter: Vec<f64> =
        done.iter().filter(|d| d.arrival.class == 0).filter_map(Done::latency).collect();
    if lat.is_empty() || inter.is_empty() {
        r.error("service", "no job reached a terminal state");
        return r;
    }
    let counts: Vec<usize> =
        (0..3).map(|c| done.iter().filter(|d| d.arrival.class == c).count()).collect();
    r.notes.push(format!(
        "{} jobs at {rate} jobs/s: {} interactive, {} normal, {} batch; p50/p95 over {} samples, interactive p95 over {}",
        done.len(), counts[0], counts[1], counts[2], lat.len(), inter.len()
    ));

    if !args.trace {
        let span_end =
            done.iter().filter_map(|d| d.latency().map(|l| d.arrival.due + l)).fold(0.0, f64::max);
        let flops: f64 =
            done.iter().filter(|d| d.ok).map(|d| classes[d.arrival.class].shape.flops()).sum();
        r.metric("setup_s", setup_s, "s");
        r.metric("gflops", flops / (span_end - arrivals[0].due) / 1e9, "GF/s");
        r.metric("p50_ms", median(&lat) * 1e3, "ms");
        r.metric("p95_ms", percentile(&lat, 95.0) * 1e3, "ms");
        r.metric("interactive_p95_ms", percentile(&inter, 95.0) * 1e3, "ms");
        r.metric("peak_rss_mb", peak, "MiB");
        return r;
    }

    // Per-layer: pool metrics from the loop, plus traced solo runs.
    let overhead: Vec<f64> = done
        .iter()
        .filter_map(|d| d.latency().map(|l| l * 1e3 - solo_ms[d.arrival.class]))
        .collect();
    let submit_us: Vec<f64> = done.iter().map(|d| d.submit * 1e6).collect();
    let fresh: Vec<Plan> =
        classes.iter().filter_map(|c| traced_plan(&mut t, c.shape, Preset::Square)).collect();
    graph_metrics(&mut r, &fresh.iter().collect::<Vec<_>>());
    kernel_metrics(&mut r, &mut t, args);
    for (c, ms) in classes.iter().zip(solo_ms) {
        r.metric(format!("pool.solo_ms_{}", c.name), ms, "ms");
    }
    r.metric("pool.submit_us_p50", median(&submit_us), "us");
    r.metric("pool.submit_us_p95", percentile(&submit_us, 95.0), "us");
    r.metric("pool.overhead_ms_p50", median(&overhead), "ms");
    r.metric("pool.overhead_ms_p95", percentile(&overhead, 95.0), "ms");
    r.metric("pool.rejected", rejected as f64, "count");
    r.metric("pool.late_ms_max", done.iter().map(|d| d.late).fold(0.0, f64::max) * 1e3, "ms");

    // Executor layer on the interactive shape, where tasks last tens of µs.
    let ib = &plans[0];
    let kb_small = kernels::measure(classes[0].shape.b, 31, args.seed, &mut t);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    for _ in 0..21 {
        let mut a = inputs[0][0].clone();
        untraced.push(timed(|| try_execute_with(&ib.graph, &mut a, &opts)).1);
        let mut a = inputs[0][0].clone();
        let offset = t.now();
        let (out, s) = t.span(LANE_CALLS, "try_execute_traced interactive", "exec", || {
            try_execute_traced(&ib.graph, &mut a, &opts)
        });
        traced.push(s);
        match out {
            Ok((_, _, tr)) => last = Some((offset, tr)),
            Err(e) => r.error("traced solo run", e),
        }
    }
    if let Some((offset, tr)) = last {
        t.exec_tasks(offset, &tr, ib.graph.tasks());
        exec_metrics(&mut r, &ib.graph, &tr, &kb_small);
    }
    r.metric("trace.overhead_frac", median(&traced) / median(&untraced) - 1.0, "ratio");

    let solo: Vec<f64> =
        done.iter().filter(|d| d.wall.is_some()).map(|d| solo_ms[d.arrival.class] / 1e3).collect();
    let pool_extra: Vec<f64> =
        done.iter().filter_map(|d| d.wall.map(|w| w - solo_ms[d.arrival.class] / 1e3)).collect();
    let lateness: Vec<f64> = done.iter().filter(|d| d.wall.is_some()).map(|d| d.late).collect();
    r.accounting(
        "service mean latency (s)",
        mean(&lat),
        &[
            ("generator lateness", mean(&lateness)),
            ("pool.solo_ms", mean(&solo)),
            ("pool overhead (pool wall - solo)", mean(&pool_extra)),
        ],
    );
    factor::write_trace(&mut r, &t, args);
    r
}
