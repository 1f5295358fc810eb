//! Platform model: nodes, cores, kernel rates and the interconnect.

use hqr_kernels::{KernelClass, KernelKind};

/// Sequential kernel execution rates, in GFlop/s per core.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelRates {
    /// Rate of TS-class update kernels (paper: dTSMQR at 7.21 GFlop/s,
    /// 79.4% of the 9.08 GFlop/s core peak).
    pub ts_gflops: f64,
    /// Rate of TT-class update kernels (paper: dTTMQR at 6.28 GFlop/s,
    /// 69.2% of peak).
    pub tt_gflops: f64,
    /// Relative efficiency of factor kernels (GEQRT/TSQRT/TTQRT) versus the
    /// update kernels of the same class; panel kernels have more
    /// level-2 BLAS work and run slightly slower.
    pub factor_efficiency: f64,
}

impl KernelRates {
    /// The edel measurements from §V-A.
    // 6.28 GFlop/s is the paper's measured dTTMQR rate; its resemblance to
    // τ is a coincidence clippy need not worry about.
    #[allow(clippy::approx_constant)]
    pub fn edel() -> Self {
        KernelRates { ts_gflops: 7.21, tt_gflops: 6.28, factor_efficiency: 0.85 }
    }

    /// Rates measured on this repo's own kernels (committed `BENCH_8.json`,
    /// AVX2/FMA arm, b = 200, single core): dTSMQR 17.57 GFlop/s, dTTMQR
    /// 12.09 GFlop/s. The factor kernels' recursive panels run on the same
    /// gemm core but keep a level-2 base case and extra T-merge work:
    /// TSQRT/TSMQR = 0.575 and TTQRT/TTMQR = 0.507, averaged to 0.54.
    /// Select with `--rates measured` in the CLI simulators.
    pub fn measured() -> Self {
        KernelRates { ts_gflops: 17.57, tt_gflops: 12.09, factor_efficiency: 0.54 }
    }

    /// GFlop/s at which `kind` executes on one core.
    pub fn rate(&self, kind: KernelKind) -> f64 {
        let class = match kind.class() {
            KernelClass::Ts => self.ts_gflops,
            KernelClass::Tt => self.tt_gflops,
        };
        if kind.is_factor() {
            class * self.factor_efficiency
        } else {
            class
        }
    }
}

/// Point-to-point interconnect model (LogGP-style, with NIC serialization
/// applied by the simulator).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// One-way message latency in seconds.
    pub latency: f64,
    /// Link bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Per-message software overhead (seconds) occupying the NIC/progress
    /// engine at *both* endpoints on top of the wire time — the LogGP "o"
    /// term (MPI matching, rendezvous, runtime progress). Zero in the
    /// baseline calibration; the `ablations` bench sweeps it.
    pub overhead: f64,
}

impl LinkModel {
    /// Infiniband 20G (≈2.5 GB/s payload, a few µs latency including the
    /// MPI software stack).
    pub fn infiniband_20g() -> Self {
        LinkModel { latency: 8e-6, bandwidth: 2.2e9, overhead: 0.0 }
    }

    /// The same link with an explicit per-message software overhead.
    pub fn with_overhead(mut self, overhead: f64) -> Self {
        self.overhead = overhead;
        self
    }

    /// Transfer time of `bytes` excluding queueing.
    pub fn transfer(&self, bytes: f64) -> f64 {
        self.latency + self.overhead + bytes / self.bandwidth
    }

    /// Serialize this link plus the measurements behind it as the
    /// `hqr calibrate` persistence format — a line-oriented text file
    /// (`latency_s`, `bandwidth_Bps`, optional `sample BYTES SECS` rows)
    /// that [`LinkModel::parse_calibration`] reads back.
    pub fn format_calibration(&self, samples: &[(u64, f64)]) -> String {
        let mut out = String::from("# hqr network calibration v1\n");
        out.push_str(&format!("latency_s {:e}\n", self.latency));
        out.push_str(&format!("bandwidth_Bps {:e}\n", self.bandwidth));
        if self.overhead != 0.0 {
            out.push_str(&format!("overhead_s {:e}\n", self.overhead));
        }
        for &(bytes, secs) in samples {
            out.push_str(&format!("sample {bytes} {secs:e}\n"));
        }
        out
    }

    /// Parse the text format written by [`LinkModel::format_calibration`].
    /// Returns the link model and the raw samples. Unknown keys are
    /// rejected so typos don't silently fall back to defaults.
    pub fn parse_calibration(text: &str) -> Result<(Self, Vec<(u64, f64)>), String> {
        let (mut latency, mut bandwidth, mut overhead) = (None, None, 0.0f64);
        let mut samples = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let key = parts.next().unwrap();
            let bad = |what: &str| format!("calibration line {}: {what}", lineno + 1);
            match key {
                "latency_s" | "bandwidth_Bps" | "overhead_s" => {
                    let v: f64 = parts
                        .next()
                        .ok_or_else(|| bad("missing value"))?
                        .parse()
                        .map_err(|e| bad(&format!("bad value: {e}")))?;
                    if !v.is_finite() || v < 0.0 {
                        return Err(bad("value must be finite and non-negative"));
                    }
                    match key {
                        "latency_s" => latency = Some(v),
                        "bandwidth_Bps" => bandwidth = Some(v),
                        _ => overhead = v,
                    }
                }
                "sample" => {
                    let bytes: u64 = parts
                        .next()
                        .ok_or_else(|| bad("missing sample size"))?
                        .parse()
                        .map_err(|e| bad(&format!("bad sample size: {e}")))?;
                    let secs: f64 = parts
                        .next()
                        .ok_or_else(|| bad("missing sample time"))?
                        .parse()
                        .map_err(|e| bad(&format!("bad sample time: {e}")))?;
                    samples.push((bytes, secs));
                }
                other => return Err(bad(&format!("unknown key `{other}`"))),
            }
            if parts.next().is_some() {
                return Err(bad("trailing tokens"));
            }
        }
        let latency = latency.ok_or("calibration missing latency_s")?;
        let bandwidth = bandwidth.ok_or("calibration missing bandwidth_Bps")?;
        if bandwidth == 0.0 {
            return Err("calibration bandwidth must be positive".into());
        }
        Ok((LinkModel { latency, bandwidth, overhead }, samples))
    }
}

/// Accelerator (GPU) model for the paper's §VI future-work scenario:
/// each node carries `per_node` devices that execute *update* kernels
/// (the BLAS-3-rich TSMQR/TTMQR/UNMQR) `update_speedup`× faster than a
/// core; factor kernels stay on the cores, as in real GPU tile-QR ports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Accelerators {
    /// Devices per node.
    pub per_node: usize,
    /// Update-kernel speedup versus one CPU core.
    pub update_speedup: f64,
}

/// A cluster of identical multi-core nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Platform {
    /// Number of nodes.
    pub nodes: usize,
    /// Cores per node available for compute (the paper binds 8 compute
    /// threads per node, with the communication thread floating).
    pub cores_per_node: usize,
    /// Theoretical double-precision peak per core, GFlop/s.
    pub peak_gflops_per_core: f64,
    /// Sequential kernel rates.
    pub rates: KernelRates,
    /// Interconnect.
    pub link: LinkModel,
    /// Optional per-node accelerators (None for the paper's edel nodes).
    pub accelerators: Option<Accelerators>,
}

impl Platform {
    /// The paper's platform: 60 nodes × 8 cores at 9.08 GFlop/s/core
    /// (4.358 TFlop/s total), Infiniband 20G.
    pub fn edel() -> Self {
        Platform {
            nodes: 60,
            cores_per_node: 8,
            peak_gflops_per_core: 9.08,
            rates: KernelRates::edel(),
            link: LinkModel::infiniband_20g(),
            accelerators: None,
        }
    }

    /// An edel-like cluster with accelerators attached to every node.
    pub fn edel_with_accelerators(per_node: usize, update_speedup: f64) -> Self {
        Platform { accelerators: Some(Accelerators { per_node, update_speedup }), ..Self::edel() }
    }

    /// A single shared-memory node (for intra-node studies).
    pub fn single_node(cores: usize) -> Self {
        Platform { nodes: 1, cores_per_node: cores, ..Self::edel() }
    }

    /// Aggregate theoretical peak in GFlop/s.
    pub fn peak_gflops(&self) -> f64 {
        self.nodes as f64 * self.cores_per_node as f64 * self.peak_gflops_per_core
    }

    /// Wall-clock seconds one core needs for `kind` on a b×b tile.
    pub fn kernel_seconds(&self, kind: KernelKind, b: usize) -> f64 {
        kind.flops(b) / (self.rates.rate(kind) * 1e9)
    }

    /// Bytes of one b×b tile of doubles.
    pub fn tile_bytes(b: usize) -> f64 {
        (b * b * 8) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edel_peak_matches_paper() {
        let p = Platform::edel();
        // §V-A: "9.08 GFlop/s per core, 72.64 GFlop/s per node, and
        // 4.358 TFlop/s for the whole machine".
        assert!((p.peak_gflops() - 4358.4).abs() < 0.1);
        assert!((p.cores_per_node as f64 * p.peak_gflops_per_core - 72.64).abs() < 1e-9);
    }

    #[test]
    fn ts_rate_is_faster_than_tt() {
        let r = KernelRates::edel();
        assert!(r.rate(KernelKind::Tsmqr) > r.rate(KernelKind::Ttmqr));
        // The ~10% kernel-speed gap quoted in §II.
        let ratio = r.rate(KernelKind::Tsmqr) / r.rate(KernelKind::Ttmqr);
        assert!(ratio > 1.05 && ratio < 1.25, "ratio {ratio}");
    }

    #[test]
    fn factor_kernels_are_slower_than_updates() {
        let r = KernelRates::edel();
        assert!(r.rate(KernelKind::Geqrt) < r.rate(KernelKind::Unmqr));
        assert!(r.rate(KernelKind::Ttqrt) < r.rate(KernelKind::Ttmqr));
    }

    /// The AVX2-arm GFlop/s of entry `name` in the committed BENCH_8.json.
    fn bench_8_gflops(name: &str) -> f64 {
        let text = include_str!("../../../BENCH_8.json");
        let key = format!("\"name\": \"{name}\", \"metric\": \"gflops\", \"value\": ");
        let at = text.find(&key).unwrap_or_else(|| panic!("{name} missing from BENCH_8.json"));
        let rest = &text[at + key.len()..];
        rest[..rest.find(',').unwrap()].parse().unwrap()
    }

    #[test]
    fn measured_rates_mirror_bench_8() {
        // Keep the hardcoded calibration honest against BENCH_8.json,
        // whose first arm is the AVX2 one.
        let r = KernelRates::measured();
        assert!((r.ts_gflops - bench_8_gflops("tsmqr_b200")).abs() < 0.005);
        assert!((r.tt_gflops - bench_8_gflops("ttmqr_b200")).abs() < 0.005);
        // TS per-flop rate still beats TT, as in the paper's table.
        assert!(r.rate(KernelKind::Tsmqr) > r.rate(KernelKind::Ttmqr));
        // factor_efficiency is the measured factor/update ratio, averaged
        // over the two classes.
        let ts = bench_8_gflops("tsqrt_b200") / bench_8_gflops("tsmqr_b200");
        let tt = bench_8_gflops("ttqrt_b200") / bench_8_gflops("ttmqr_b200");
        assert!((r.factor_efficiency - (ts + tt) / 2.0).abs() < 0.005);
    }

    #[test]
    fn kernel_seconds_scale_with_weight() {
        let p = Platform::edel();
        let t_tsmqr = p.kernel_seconds(KernelKind::Tsmqr, 280);
        let t_unmqr = p.kernel_seconds(KernelKind::Unmqr, 280);
        // TSMQR has twice the flops of UNMQR at the same rate.
        assert!((t_tsmqr / t_unmqr - 2.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_roundtrips_through_text() {
        let link = LinkModel { latency: 1.7e-5, bandwidth: 3.4e9, overhead: 2e-6 };
        let samples = vec![(64u64, 1.8e-5), (65_536, 4.1e-5)];
        let text = link.format_calibration(&samples);
        let (back, back_samples) = LinkModel::parse_calibration(&text).unwrap();
        assert_eq!(back, link);
        assert_eq!(back_samples, samples);
        // Samples are optional on the way back in.
        let (minimal, none) =
            LinkModel::parse_calibration("latency_s 1e-5\nbandwidth_Bps 1e9\n").unwrap();
        assert_eq!(minimal.overhead, 0.0);
        assert!(none.is_empty());
    }

    #[test]
    fn calibration_parse_rejects_malformed_input() {
        for bad in [
            "latency_s 1e-5",                               // missing bandwidth
            "bandwidth_Bps 1e9",                            // missing latency
            "latency_s 1e-5\nbandwidth_Bps 0",              // zero bandwidth
            "latency_s -1\nbandwidth_Bps 1e9",              // negative
            "latency_s nope\nbandwidth_Bps 1e9",            // unparsable
            "latency_s 1e-5\nbandwidth_Bps 1e9\nwat 3",     // unknown key
            "latency_s 1e-5 extra\nbandwidth_Bps 1e9",      // trailing tokens
            "latency_s 1e-5\nbandwidth_Bps 1e9\nsample 12", // short sample
            "latency_s inf\nbandwidth_Bps 1e9",             // non-finite
        ] {
            assert!(LinkModel::parse_calibration(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn transfer_has_latency_floor() {
        let l = LinkModel::infiniband_20g();
        assert!(l.transfer(0.0) >= 8e-6);
        let t_tile = l.transfer(Platform::tile_bytes(280));
        assert!(t_tile > 2e-4, "a 627 KB tile takes ~0.3 ms, got {t_tile}");
    }
}
