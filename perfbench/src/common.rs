//! Shared plumbing: metrics, order statistics, the span recorder behind the
//! traced run, bitwise fingerprints, and host facts.

use hqr_runtime::{ChromeTraceBuilder, TFactors};
use hqr_tile::TiledMatrix;
use std::time::Instant;

/// How big the inputs are: `Full` is the benchmark proper, `Tiny` is the
/// smoke-test scale that exercises every code path in a second or two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Everything one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Flip one bit of the first checked result, to prove the checks bite.
    pub corrupt: bool,
    /// Directory for spill files and the Chrome trace (inside the checkout).
    pub scratch: std::path::PathBuf,
}

/// Compute threads every workload may use (the benchmark host has 2 cores).
pub const THREADS: usize = 2;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (factorizations or jobs, plus correctness checks).
    pub attempted: u64,
    /// Failed operations: a failed check, a non-`Completed` job, a refused
    /// submit, or a library error.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result (details, accounting).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Count one checked operation; `ok == false` records a failure.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED check: {what}"));
        }
    }

    /// Count one operation that ended in an error.
    pub fn error(&mut self, what: &str, err: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        self.notes.push(format!("FAILED {what}: {err}"));
    }

    /// Record the layer-accounting line: `total` should equal the sum of
    /// `parts`; the remainder is flagged when it exceeds 5% of `total`.
    pub fn accounting(&mut self, label: &str, total: f64, parts: &[(&str, f64)]) {
        let explained: f64 = parts.iter().map(|p| p.1).sum();
        let rem = total - explained;
        let frac = if total > 0.0 { rem.abs() / total } else { 0.0 };
        let terms: Vec<String> = parts.iter().map(|(n, v)| format!("{n} {v:.4}")).collect();
        self.notes.push(format!(
            "accounting: {label} {total:.4} = {} + remainder {rem:.4} ({:.1}%){}",
            terms.join(" + "),
            frac * 100.0,
            if frac > 0.05 { "  ** UNEXPLAINED > 5% **" } else { "" }
        ));
        self.metric("accounting.unexplained_frac", frac, "ratio");
    }
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Percentile of a non-empty sample, interpolating linearly between the
/// two nearest order statistics.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Mean of a non-empty sample.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// LAPACK flop count of an M×N (M ≥ N) Householder QR: 2MN² − ⅔N³.
pub fn qr_flops(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    2.0 * m * n * n - 2.0 / 3.0 * n * n * n
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Derive an input seed from the run seed and a stream number, so inputs
/// of one run are distinct but repeat exactly for the same `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set of this process so far (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn mix(h: u64, bits: u64) -> u64 {
    (h ^ bits).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Bitwise fingerprint of a factored matrix and its T factors (FNV-1a over
/// the `f64` bit patterns, tile by tile): equal inputs run through
/// bitwise-identical backends give equal fingerprints.
pub fn fingerprint(a: &TiledMatrix, f: &TFactors) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for j in 0..a.nt() {
        for i in 0..a.mt() {
            for x in a.tile(i, j) {
                h = mix(h, x.to_bits());
            }
        }
    }
    for k in 0..a.nt() {
        for i in 0..a.mt() {
            for s in [f.vg(i, k), f.tg(i, k), f.tk(i, k)].into_iter().flatten() {
                for x in s {
                    h = mix(h, x.to_bits());
                }
            }
        }
    }
    h
}

/// The deliberate corruption `--corrupt 1` asks for: flip one bit of the
/// first element of tile (0, 0). It is the lowest exponent bit, so the
/// value halves or doubles and a numerical check sees it as well as a
/// bitwise one.
pub fn flip_one_bit(a: &mut TiledMatrix) {
    let t = a.tile_mut(0, 0);
    t[0] = f64::from_bits(t[0].to_bits() ^ (1 << 52));
}

/// One span on the benchmark's own timeline.
struct Span {
    lane: u32,
    name: String,
    cat: &'static str,
    start: f64,
    end: f64,
}

/// In-memory span recorder for the traced run. Spans are kept until the
/// run ends and then written out as one Chrome trace, together with the
/// per-task spans the executor already returns in its `ExecTrace`.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Executor task spans: (kernel name, worker, start, end) on this
    /// recorder's clock.
    tasks: Vec<(String, u16, f64, f64)>,
}

/// Lane of the benchmark's own spans (calls into the library).
pub const LANE_CALLS: u32 = 0;
/// Lane of set-up spans (elimination lists, graph builds, pools, fleets).
pub const LANE_SETUP: u32 = 1;
/// Lane of `JobPool::submit` calls.
pub const LANE_SUBMIT: u32 = 2;
/// First of three lanes of job lifetimes, one per QoS class.
pub const LANE_JOBS: u32 = 3;

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), tasks: Vec::new() }
    }

    /// Seconds since the recorder started.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span on `lane` and return its result and duration.
    pub fn span<T>(
        &mut self,
        lane: u32,
        name: &str,
        cat: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(lane, name, cat, start, end);
        (out, end - start)
    }

    /// Record a span measured elsewhere, in seconds on this recorder's clock.
    pub fn record(&mut self, lane: u32, name: &str, cat: &'static str, start: f64, end: f64) {
        self.spans.push(Span { lane, name: name.to_string(), cat, start, end });
    }

    /// Add the per-task spans of an executor run that started at `offset`
    /// seconds on this recorder's clock.
    pub fn exec_tasks(
        &mut self,
        offset: f64,
        trace: &hqr_runtime::ExecTrace,
        tasks: &[hqr_runtime::Task],
    ) {
        for r in &trace.records {
            let kind = tasks[r.task as usize].kind.name().to_string();
            self.tasks.push((kind, r.worker, offset + r.start, offset + r.end));
        }
    }

    /// Render the Chrome trace: process 1 holds the benchmark's spans,
    /// process 2 one lane per executor worker.
    pub fn chrome_trace(&self) -> String {
        let mut t = ChromeTraceBuilder::new();
        t.process_name(1, "perfbench");
        t.thread_name(1, LANE_CALLS, "library calls", 0);
        t.thread_name(1, LANE_SETUP, "set-up", 1);
        t.thread_name(1, LANE_SUBMIT, "submit calls", 2);
        for (i, class) in ["interactive jobs", "normal jobs", "batch jobs"].iter().enumerate() {
            t.thread_name(1, LANE_JOBS + i as u32, class, 3 + i as i64);
        }
        for s in &self.spans {
            t.span(1, s.lane, &s.name, s.cat, None, s.start, s.end, &[]);
        }
        if !self.tasks.is_empty() {
            t.process_name(2, "executor tasks");
            let workers = self.tasks.iter().map(|x| x.1).max().unwrap_or(0);
            for w in 0..=workers {
                t.thread_name(2, u32::from(w), &format!("worker {w}"), i64::from(w));
            }
            for (kind, w, s, e) in &self.tasks {
                t.span(2, u32::from(*w), kind, "task", None, *s, *e, &[]);
            }
        }
        t.finish()
    }
}
