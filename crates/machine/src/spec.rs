//! Hardware profiles of the paper's measurement environments (Table 1),
//! plus the calibrated kernel-efficiency constants of the performance model.
//!
//! The *model form* is a first-order roofline with a separate
//! transaction-issue term (see [`crate::roofline`]); the constants below are
//! calibrated once against the paper's Table 2 kernel microbenchmarks and
//! then reused unchanged for every experiment, so all relative comparisons
//! (Tables 3/4, Figs. 4/5) are genuine model predictions.

/// A compute device (one Grace CPU or one H100 GPU).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    pub name: &'static str,
    /// Peak FP64 throughput (FLOP/s).
    pub flops_peak: f64,
    /// Peak memory bandwidth (B/s).
    pub mem_bw: f64,
    /// Memory capacity (bytes).
    pub mem_capacity: u64,
    /// Core count (CPU thread scaling; 0 for GPUs).
    pub n_cores: usize,
    /// Achievable fraction of `flops_peak` for fused FE kernels.
    pub eff_flops: f64,
    /// Achievable fraction of `mem_bw` for streaming kernels.
    pub eff_stream: f64,
    /// Gather/scatter transactions retired per second at full device.
    pub txn_rate: f64,
    /// Idle power (W) attributed to this device (+ its memory).
    pub idle_power: f64,
    /// Additional power (W) at full utilization.
    pub active_power: f64,
}

/// CPU↔GPU link (NVLink-C2C on GH200).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth per direction (B/s).
    pub bw: f64,
    /// Per-transfer latency (s).
    pub latency: f64,
}

/// One GH200 module: a Grace CPU + an H100 GPU + their C2C link, under an
/// optional module power cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleSpec {
    pub name: &'static str,
    pub cpu: DeviceSpec,
    pub gpu: DeviceSpec,
    pub link: LinkSpec,
    /// Module power cap (W); `f64::INFINITY` when effectively uncapped.
    pub power_cap: f64,
}

/// A compute node: one or more modules plus the inter-node interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    pub name: &'static str,
    pub module: ModuleSpec,
    pub modules_per_node: usize,
    /// Inter-node interconnect bandwidth per module (B/s).
    pub interconnect_bw: f64,
    /// Interconnect message latency (s).
    pub interconnect_latency: f64,
}

/// Grace CPU of the single-GH200 node: 72 cores, 3.57 TFLOPS, 480 GB
/// LPDDR5X at 384 GB/s.
pub fn grace_480() -> DeviceSpec {
    DeviceSpec {
        name: "Grace (480 GB)",
        flops_peak: 3.57e12,
        mem_bw: 384e9,
        mem_capacity: 480_000_000_000,
        n_cores: 72,
        eff_flops: 0.50,
        eff_stream: 0.55, // Table 2: CRS@CPU reaches 54.6 % of peak BW
        txn_rate: 2.2e10, // ~3e8 gathers/s/core x 72 cores
        idle_power: 100.0,
        active_power: 150.0, // 327 W module - 76 W GPU idle - ~100 W base
    }
}

/// Grace CPU of an Alps GH200-NVL4 module: 72 cores, 128 GB at 512 GB/s.
pub(crate) fn grace_alps() -> DeviceSpec {
    DeviceSpec {
        mem_bw: 512e9,
        mem_capacity: 128_000_000_000,
        name: "Grace (Alps, 128 GB)",
        ..grace_480()
    }
}

/// H100 GPU (96 GB HBM3): 34 TFLOPS FP64, 4 TB/s.
pub fn h100() -> DeviceSpec {
    DeviceSpec {
        name: "H100 (96 GB)",
        flops_peak: 34e12,
        mem_bw: 4e12,
        mem_capacity: 96_000_000_000,
        n_cores: 0,
        // Table 2: EBE4 sustains 53.3 % of peak with gather overhead on
        // top; the pipeline efficiency without that overhead calibrates to
        // ~0.72 (see DESIGN.md / roofline tests).
        eff_flops: 0.72,
        eff_stream: 0.51, // Table 2: CRS@GPU reaches 51.0 % of peak BW
        txn_rate: 2.5e11,
        idle_power: 76.0,    // Table 3: GPU power of CRS-CG@CPU
        active_power: 560.0, // ~636 W at full load (Table 3: 608-652 W)
    }
}

/// NVLink-C2C: 900 GB/s bidirectional => 450 GB/s per direction.
pub(crate) fn nvlink_c2c() -> LinkSpec {
    LinkSpec {
        bw: 450e9,
        latency: 5e-6,
    }
}

/// The single-GH200 node of §3.3 (1000 W cap: CPU and GPU can run at full
/// clocks simultaneously, so the cap never binds).
pub fn single_gh200() -> NodeSpec {
    NodeSpec {
        name: "single-GH200",
        module: ModuleSpec {
            name: "GH200 (480 GB)",
            cpu: grace_480(),
            gpu: h100(),
            link: nvlink_c2c(),
            power_cap: 1000.0,
        },
        modules_per_node: 1,
        interconnect_bw: f64::INFINITY,
        interconnect_latency: 0.0,
    }
}

/// One Alps (GH200 NVL4) node of §3.4: 4 modules, 634 W cap per module,
/// 24 GB/s interconnect per module.
pub fn alps_node() -> NodeSpec {
    NodeSpec {
        name: "Alps (GH200 NVL4)",
        module: ModuleSpec {
            name: "GH200 (Alps)",
            cpu: grace_alps(),
            gpu: h100(),
            link: nvlink_c2c(),
            power_cap: 634.0,
        },
        modules_per_node: 4,
        interconnect_bw: 24e9,
        interconnect_latency: 2e-6,
    }
}

impl DeviceSpec {
    /// Fraction of peak flop/issue throughput available with `threads`
    /// active threads (CPUs; GPUs always return 1).
    pub(crate) fn thread_frac(&self, threads: usize) -> f64 {
        if self.n_cores == 0 {
            1.0
        } else {
            (threads.min(self.n_cores) as f64) / self.n_cores as f64
        }
    }

    /// Fraction of peak bandwidth with `threads` active threads: CPU memory
    /// bandwidth saturates well below full core count (t/(t+12), normalized
    /// to 1 at all cores).
    pub(crate) fn bw_frac(&self, threads: usize) -> f64 {
        if self.n_cores == 0 {
            return 1.0;
        }
        let t = threads.min(self.n_cores) as f64;
        let full = self.n_cores as f64;
        (t / (t + 12.0)) / (full / (full + 12.0))
    }

    /// Power drawn at utilization `u` in `[0, 1]`: idle + u * active.
    pub fn power(&self, u: f64) -> f64 {
        self.idle_power + u.clamp(0.0, 1.0) * self.active_power
    }

    /// Power drawn with a subset of cores busy (CPU thread sweep of
    /// Table 4).
    pub(crate) fn power_threads(&self, threads: usize) -> f64 {
        if self.n_cores == 0 {
            self.power(1.0)
        } else {
            self.power(threads.min(self.n_cores) as f64 / self.n_cores as f64)
        }
    }
}

impl ModuleSpec {
    /// GPU clock factor under the module power cap when the CPU draws
    /// `cpu_power` W: the GPU gets whatever headroom remains (Alps behavior;
    /// §3.4 "power cap of 634 W per module, leading to lower GPU clocks at
    /// high CPU loads").
    pub(crate) fn gpu_throttle(&self, cpu_power: f64) -> f64 {
        if !self.power_cap.is_finite() {
            return 1.0;
        }
        let gpu_full = self.gpu.idle_power + self.gpu.active_power;
        let headroom = self.power_cap - cpu_power;
        (headroom / gpu_full).clamp(0.1, 1.0)
    }
}

/// Render Table 1 ("measurement environment") from the encoded profiles.
pub fn format_table1() -> String {
    let mut s = String::new();
    s.push_str(
        "System              | modules | CPU (FP64 peak, mem)           | GPU (FP64 peak, mem)        | cap/module | interconnect\n",
    );
    s.push_str(
        "--------------------+---------+--------------------------------+-----------------------------+------------+-------------\n",
    );
    for node in [single_gh200(), alps_node()] {
        let m = &node.module;
        s.push_str(&format!(
            "{:<19} | {:>7} | {:.2} TFLOPS, {:>3.0} GB ({:>3.0} GB/s) | {:.0} TFLOPS, {:.0} GB ({:.0} GB/s) | {:>6.0} W   | {}\n",
            node.name,
            node.modules_per_node,
            m.cpu.flops_peak / 1e12,
            m.cpu.mem_capacity as f64 / 1e9,
            m.cpu.mem_bw / 1e9,
            m.gpu.flops_peak / 1e12,
            m.gpu.mem_capacity as f64 / 1e9,
            m.gpu.mem_bw / 1e9,
            m.power_cap,
            if node.interconnect_bw.is_finite() {
                format!("{:.0} GB/s", node.interconnect_bw / 1e9)
            } else {
                "not used".into()
            }
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        let g = single_gh200();
        assert_eq!(g.module.cpu.mem_capacity, 480_000_000_000);
        assert_eq!(g.module.gpu.mem_capacity, 96_000_000_000);
        assert!((g.module.cpu.flops_peak - 3.57e12).abs() < 1e9);
        assert!((g.module.gpu.flops_peak - 34e12).abs() < 1e9);
        assert_eq!(g.module.power_cap, 1000.0);
        let a = alps_node();
        assert_eq!(a.modules_per_node, 4);
        assert_eq!(a.module.cpu.mem_capacity, 128_000_000_000);
        assert!((a.module.cpu.mem_bw - 512e9).abs() < 1.0);
        assert_eq!(a.module.power_cap, 634.0);
        assert!((a.interconnect_bw - 24e9).abs() < 1.0);
    }

    #[test]
    fn cpu_memory_ratio_is_5x() {
        // paper: "CPU memory capacity ... 480/96 = 5 times larger"
        let g = single_gh200();
        assert_eq!(g.module.cpu.mem_capacity / g.module.gpu.mem_capacity, 5);
    }

    #[test]
    fn link_is_quarter_of_gpu_bw() {
        // paper: 900 GB/s bidirectional ≈ 1/4 of 4 TB/s
        let g = single_gh200();
        let ratio = (2.0 * g.module.link.bw) / g.module.gpu.mem_bw;
        assert!((ratio - 0.225).abs() < 0.01);
    }

    #[test]
    fn thread_scaling_monotone() {
        let c = grace_480();
        assert!(c.thread_frac(72) == 1.0);
        assert!(c.thread_frac(36) == 0.5);
        assert!(c.bw_frac(72) == 1.0);
        assert!(c.bw_frac(16) < c.bw_frac(36));
        assert!(c.bw_frac(16) > 0.5); // BW saturates sublinearly
        let g = h100();
        assert_eq!(g.thread_frac(1), 1.0);
        assert_eq!(g.bw_frac(1), 1.0);
    }

    #[test]
    fn throttle_behaviour() {
        let m = alps_node().module;
        // CPU at full load (250 W): GPU throttled
        let f_hi = m.gpu_throttle(250.0);
        let f_lo = m.gpu_throttle(134.0);
        assert!(f_hi < f_lo);
        assert!(f_lo < 1.0); // 634 W cap binds even at 16 threads
        let un = single_gh200().module;
        assert_eq!(un.gpu_throttle(250.0), 1.0); // 1000 W cap never binds
    }

    #[test]
    fn power_model_matches_table3_anchors() {
        let m = single_gh200().module;
        // CRS-CG@CPU: CPU busy, GPU idle => ~327 W
        let p1 = m.cpu.power(1.0) + m.gpu.power(0.0);
        assert!((p1 - 327.0).abs() < 30.0, "CPU-only module power {p1}");
        // CRS-CG@GPU: GPU busy, CPU idle => ~709 W
        let p2 = m.cpu.power(0.0) + m.gpu.power(1.0);
        assert!((p2 - 709.0).abs() < 40.0, "GPU-only module power {p2}");
        // EBE-MCG@CPU-GPU: both busy => ~877 W
        let p3 = m.cpu.power(1.0) + m.gpu.power(1.0);
        assert!((p3 - 877.0).abs() < 50.0, "both-busy module power {p3}");
    }

    #[test]
    fn table1_formatting() {
        let t = format_table1();
        assert!(t.contains("single-GH200"));
        assert!(t.contains("Alps"));
        assert!(t.contains("not used"));
    }
}
