//! `perfbench`: the HQR reproduction's end-to-end and per-layer benchmark.
//!
//! One invocation runs one workload:
//!
//! ```text
//! perfbench --workload <tall_skinny|square_ooc|service|cluster> --seed <n>
//!           --seconds <s> --trace <0|1> --scratch <dir>
//!           [--scale full|tiny] [--corrupt 0|1] [--out result.json]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate run
//! that prints the per-layer metrics, writes one validated Chrome trace and
//! reconciles the layer times with wall time. Every run checks its results
//! outside the timed region and counts each failure. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--out` also writes the result with its host
//! stamp, which `compare.py` needs.

mod cluster;
mod common;
mod factor;
mod kernels;
mod service;

use common::{Metric, Report, RunArgs, Scale};
use std::fmt::Write as _;

/// End-to-end metrics: every workload prints all of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("gflops", "GF/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("interactive_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run, in print order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("kernels.gemm_peak_gflops".into(), "GF/s")];
    for k in kernels::KINDS {
        let n = k.name().to_lowercase();
        v.push((format!("kernels.{n}_gflops"), "GF/s"));
        v.push((format!("kernels.{n}_frac_peak"), "ratio"));
    }
    let fixed: [(&str, &'static str); 38] = [
        ("kernels.factor_share", "ratio"),
        ("kernels.insitu_ratio", "ratio"),
        ("core.elim_build_s", "s"),
        ("graph.build_s", "s"),
        ("graph.tasks", "count"),
        ("graph.edges", "count"),
        ("exec.utilization", "ratio"),
        ("exec.idle_s", "s"),
        ("exec.gap_per_task_us", "us"),
        ("exec.steals", "count"),
        ("exec.critical_path_s", "s"),
        ("exec.cp_share", "ratio"),
        ("spill.evictions", "count"),
        ("spill.writebacks", "count"),
        ("spill.demand_faults", "count"),
        ("spill.prefetches", "count"),
        ("spill.prefetch_hit_ratio", "ratio"),
        ("spill.bytes_read", "B"),
        ("spill.bytes_written", "B"),
        ("spill.overhead_s", "s"),
        ("pool.submit_us_p50", "us"),
        ("pool.submit_us_p95", "us"),
        ("pool.solo_ms_interactive", "ms"),
        ("pool.solo_ms_normal", "ms"),
        ("pool.solo_ms_batch", "ms"),
        ("pool.overhead_ms_p50", "ms"),
        ("pool.overhead_ms_p95", "ms"),
        ("pool.rejected", "count"),
        ("pool.late_ms_max", "ms"),
        ("net.spawn_s", "s"),
        ("net.transfers", "count"),
        ("net.bytes_moved", "B"),
        ("net.bytes_per_task", "B"),
        ("net.rpc_retries", "count"),
        ("net.imbalance", "ratio"),
        ("net.relay_overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("accounting.unexplained_frac", "ratio"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

const WORKLOADS: [&str; 4] = ["tall_skinny", "square_ooc", "service", "cluster"];

/// Layers a workload never calls into; their per-layer metrics read 0.
fn unused_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "tall_skinny" => &["spill.", "pool.", "net."],
        "square_ooc" => &["pool.", "net."],
        "service" => &["spill.", "net."],
        _ => &["spill.", "pool."],
    }
}

/// Host facts that decide whether two results may be compared.
struct Stamp {
    simd_detected: &'static str,
    simd_arm: &'static str,
    nproc: usize,
    cpu: String,
    gemm_peak_gflops: f64,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(args: &RunArgs) -> Stamp {
    let b = if args.scale == Scale::Full { 128 } else { 16 };
    Stamp {
        simd_detected: hqr_kernels::simd_detected().name(),
        simd_arm: hqr_kernels::simd_arm().name(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu: cpu_model(),
        gemm_peak_gflops: kernels::gemm_gflops(b, 31, args.seed),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --scratch <dir> \
         [--scale full|tiny] [--corrupt 0|1] [--out file]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| argv.iter().position(|a| a == key).and_then(|i| argv.get(i + 1)).cloned();
    let workload = get("--workload").unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    let num = |key: &str, default: &str| -> f64 {
        get(key)
            .unwrap_or_else(|| default.into())
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .unwrap_or_else(|| usage(&format!("{key} needs a non-negative number")))
    };
    let scale = match get("--scale").as_deref() {
        None | Some("full") => Scale::Full,
        Some("tiny") => Scale::Tiny,
        Some(other) => usage(&format!("unknown scale `{other}`")),
    };
    let args = RunArgs {
        seed: num("--seed", "1") as u64,
        seconds: num("--seconds", "10"),
        trace: num("--trace", "0") != 0.0,
        scale,
        corrupt: num("--corrupt", "0") != 0.0,
        scratch: get("--scratch").unwrap_or_else(|| usage("--scratch is required")).into(),
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        usage(&format!("cannot create {}: {e}", args.scratch.display()));
    }

    let stamp = stamp(&args);
    println!(
        "perfbench {workload}: seed {} seconds {} trace {} scale {:?}",
        args.seed, args.seconds, args.trace as u8, args.scale
    );
    println!(
        "stamp: simd_detected={} simd_arm={} nproc={} cpu=\"{}\" gemm_peak_gflops={:.3}",
        stamp.simd_detected, stamp.simd_arm, stamp.nproc, stamp.cpu, stamp.gemm_peak_gflops
    );
    let mut report = match workload.as_str() {
        "tall_skinny" => factor::run(factor::ExecWorkload::TallSkinny, &args),
        "square_ooc" => factor::run(factor::ExecWorkload::SquareOoc, &args),
        "service" => service::run(&args),
        _ => cluster::run(&args),
    };
    let metrics = finalize(&mut report, &workload, args.trace);
    for n in &report.notes {
        println!("{n}");
    }
    if report.failed > 0 {
        for n in &report.notes {
            eprintln!("perfbench {workload}: {n}");
        }
    }
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  {:<32} {:>16.6} ratio ({} failed of {} attempted)",
        "fail_frac", fail_frac, report.failed, report.attempted
    );
    let correct = report.failed == 0 && report.attempted > 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        metrics_json(&metrics)
    );
    if let Some(path) = get("--out") {
        let full = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"stamp\": {{\"simd_detected\": {}, \"simd_arm\": {}, \
             \"nproc\": {}, \"cpu\": {}, \"gemm_peak_gflops\": {:?}}}, \"fail_frac\": {fail_frac:?}, \"result\": {result}}}\n",
            json_str(&workload),
            args.seed,
            args.trace as u8,
            json_str(stamp.simd_detected),
            json_str(stamp.simd_arm),
            stamp.nproc,
            json_str(&stamp.cpu),
            stamp.gemm_peak_gflops
        );
        if let Err(e) = std::fs::write(&path, full) {
            eprintln!("perfbench: write {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{result}");
}

/// Order the metrics by the registry of the run's mode. A metric of a
/// layer the workload never calls reads 0; any other missing metric is a
/// failure of the run. An unregistered metric is a bug in this program.
fn finalize(report: &mut Report, workload: &str, trace: bool) -> Vec<Metric> {
    let registry: Vec<(String, &'static str)> = if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    for m in &report.metrics {
        let known = registry.iter().find(|(n, _)| *n == m.name);
        assert!(
            known.is_some_and(|(_, u)| *u == m.unit),
            "unregistered metric {} [{}]",
            m.name,
            m.unit
        );
    }
    let mut out = Vec::new();
    for (name, unit) in registry {
        let value = match report.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => m.value,
            Some(_) => {
                report.error("metric", format!("{name} is not finite"));
                0.0
            }
            None if unused_layers(workload).iter().any(|p| name.starts_with(p)) => 0.0,
            None => {
                report.error("metric", format!("{name} was not measured"));
                0.0
            }
        };
        out.push(Metric { name, value, unit });
    }
    out
}
