//! Roofline + transaction-issue time model.
//!
//! Modeled time of one kernel invocation with counts `c` on device `d`
//! using `t` threads (CPUs) at clock factor `f` (power-cap throttle):
//!
//! ```text
//! t_flops = c.flops / (eff_flops · peak · thread_frac · f)
//! t_mem   = (c.bytes_stream + c.bytes_rand) / (eff_stream · bw · bw_frac · f^0.5)
//! t_txn   = c.rand_transactions / (txn_rate · thread_frac · f)
//! time    = max(t_flops, t_mem) + t_txn
//! ```
//!
//! Compute and memory pipelines overlap (the `max`), while address
//! generation / issue overhead of gathers adds on top — this reproduces the
//! paper's Table 2: CRS kernels land on the bandwidth roof, the EBE kernel
//! on the compute roof, and fusing r right-hand sides amortizes `t_txn`
//! per case by 1/r (memory clocks are less throttle-sensitive than core
//! clocks, hence `f^0.5` on the bandwidth term).

use hetsolve_sparse::KernelCounts;

use crate::spec::DeviceSpec;

/// Execution context of a kernel on a device.
#[derive(Debug, Clone, Copy)]
pub struct ExecCtx {
    /// Active threads (ignored on GPUs).
    pub threads: usize,
    /// Clock factor from power capping (1.0 = full clocks).
    pub clock: f64,
}

impl Default for ExecCtx {
    fn default() -> Self {
        ExecCtx {
            threads: usize::MAX,
            clock: 1.0,
        }
    }
}

/// Modeled execution time (seconds) of one kernel invocation.
pub fn kernel_time(d: &DeviceSpec, c: &KernelCounts, ctx: &ExecCtx) -> f64 {
    let tf = d.thread_frac(ctx.threads.min(d.n_cores.max(1)));
    let bf = d.bw_frac(ctx.threads);
    let f = ctx.clock.clamp(0.05, 1.0);
    let t_flops = c.flops / (d.eff_flops * d.flops_peak * tf * f);
    let t_mem = (c.bytes_stream + c.bytes_rand) / (d.eff_stream * d.mem_bw * bf * f.sqrt());
    let t_txn = c.rand_transactions / (d.txn_rate * tf * f);
    t_flops.max(t_mem) + t_txn
}

/// Effective FLOP/s of the invocation (for Table 2's "TFLOPS" column).
pub fn achieved_flops(d: &DeviceSpec, c: &KernelCounts, ctx: &ExecCtx) -> f64 {
    c.flops / kernel_time(d, c, ctx)
}

/// Effective DRAM bandwidth of the invocation (Table 2's "Mem. bandwidth").
pub fn achieved_bw(d: &DeviceSpec, c: &KernelCounts, ctx: &ExecCtx) -> f64 {
    (c.bytes_stream + c.bytes_rand) / kernel_time(d, c, ctx)
}

/// Modeled time of a CPU↔GPU transfer of `bytes` over a link.
pub fn transfer_time(link: &crate::spec::LinkSpec, bytes: f64) -> f64 {
    link.latency + bytes / link.bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{grace_480, h100};

    /// Counts for the paper-scale model a: 11,365,697 elements,
    /// 15,509,903 nodes (46.5M DOF), ~27 blocks per row.
    fn paper_crs_counts() -> KernelCounts {
        let nodes = 15_509_903f64;
        let nnzb = nodes * 27.0;
        KernelCounts {
            flops: 18.0 * nnzb,
            bytes_stream: nnzb * 76.0 + nodes * 24.0 + nodes * 8.0,
            bytes_rand: 2.0 * nodes * 24.0,
            rand_transactions: nnzb,
            rhs_fused: 1,
        }
    }

    fn paper_compact_ebe(r: usize) -> KernelCounts {
        // compact_ebe_counts lives in hetsolve-fem (not a machine dep);
        // replicate its formula for the calibration check.
        let ne = 11_365_697f64;
        let ndofs = 46_529_709f64;
        let rf = r as f64;
        KernelCounts {
            flops: ne * (960.0 + 2800.0 * rf),
            bytes_stream: ne * (16.0 * 8.0 + 40.0),
            bytes_rand: 2.0 * 2.0 * ndofs * 8.0 * rf,
            rand_transactions: 2.0 * ne * 30.0,
            rhs_fused: r,
        }
    }

    /// Table 2 calibration: modeled kernel times must match the paper's
    /// measurements within 35 % (the model is first-order; what matters is
    /// that every *ratio* the paper reports is reproduced, checked below).
    #[test]
    fn table2_crs_cpu_time() {
        let t = kernel_time(&grace_480(), &paper_crs_counts(), &ExecCtx::default());
        let paper = 0.163;
        assert!(
            (t / paper - 1.0).abs() < 0.35,
            "CRS@CPU modeled {t:.4} s vs paper {paper} s"
        );
    }

    #[test]
    fn table2_crs_gpu_time() {
        let t = kernel_time(&h100(), &paper_crs_counts(), &ExecCtx::default());
        let paper = 0.0168;
        assert!(
            (t / paper - 1.0).abs() < 0.35,
            "CRS@GPU modeled {t:.5} s vs paper {paper} s"
        );
    }

    #[test]
    fn table2_ebe_gpu_time() {
        let t = kernel_time(&h100(), &paper_compact_ebe(1), &ExecCtx::default());
        let paper = 0.00456;
        assert!(
            (t / paper - 1.0).abs() < 0.35,
            "EBE@GPU modeled {t:.6} s vs paper {paper} s"
        );
    }

    #[test]
    fn table2_ebe4_gpu_time_per_case() {
        let t = kernel_time(&h100(), &paper_compact_ebe(4), &ExecCtx::default()) / 4.0;
        let paper = 0.00239;
        assert!(
            (t / paper - 1.0).abs() < 0.35,
            "EBE4@GPU modeled {t:.6} s/case vs paper {paper} s"
        );
    }

    /// The paper's headline kernel ratios.
    #[test]
    fn table2_ratios() {
        let ctx = ExecCtx::default();
        let crs_cpu = kernel_time(&grace_480(), &paper_crs_counts(), &ctx);
        let crs_gpu = kernel_time(&h100(), &paper_crs_counts(), &ctx);
        let ebe_gpu = kernel_time(&h100(), &paper_compact_ebe(1), &ctx);
        let ebe4_gpu = kernel_time(&h100(), &paper_compact_ebe(4), &ctx) / 4.0;
        // CPU -> GPU CRS speedup ~ 9.7x (bandwidth ratio); paper: 163/16.8 = 9.7
        let s1 = crs_cpu / crs_gpu;
        assert!((7.0..13.0).contains(&s1), "CRS CPU/GPU speedup {s1}");
        // CRS -> EBE on GPU: paper 16.8/4.56 = 3.68x
        let s2 = crs_gpu / ebe_gpu;
        assert!((2.5..5.5).contains(&s2), "CRS->EBE speedup {s2}");
        // EBE -> EBE4 per case: paper 4.56/2.39 = 1.91x
        let s3 = ebe_gpu / ebe4_gpu;
        assert!((1.4..2.6).contains(&s3), "EBE->EBE4 speedup {s3}");
    }

    #[test]
    fn crs_kernels_sit_on_bandwidth_roof() {
        let ctx = ExecCtx::default();
        let c = paper_crs_counts();
        for d in [grace_480(), h100()] {
            let bw = achieved_bw(&d, &c, &ctx);
            let frac = bw / d.mem_bw;
            assert!((0.3..0.6).contains(&frac), "{}: BW fraction {frac}", d.name);
            let fl = achieved_flops(&d, &c, &ctx) / d.flops_peak;
            assert!(fl < 0.05, "{}: flops fraction {fl}", d.name);
        }
    }

    #[test]
    fn ebe_kernel_sits_on_compute_roof() {
        let ctx = ExecCtx::default();
        let c = paper_compact_ebe(4);
        let d = h100();
        let fl = achieved_flops(&d, &c, &ctx) / d.flops_peak;
        assert!((0.35..0.72).contains(&fl), "EBE4 flops fraction {fl}");
        let bw = achieved_bw(&d, &c, &ctx) / d.mem_bw;
        assert!(bw < 0.25, "EBE4 BW fraction {bw}");
    }

    #[test]
    fn throttling_slows_kernels() {
        let c = paper_compact_ebe(4);
        let d = h100();
        let full = kernel_time(
            &d,
            &c,
            &ExecCtx {
                threads: usize::MAX,
                clock: 1.0,
            },
        );
        let thr = kernel_time(
            &d,
            &c,
            &ExecCtx {
                threads: usize::MAX,
                clock: 0.7,
            },
        );
        assert!(thr > full * 1.2 && thr < full / 0.55);
    }

    #[test]
    fn cpu_thread_scaling() {
        let c = paper_crs_counts();
        let d = grace_480();
        let t72 = kernel_time(
            &d,
            &c,
            &ExecCtx {
                threads: 72,
                clock: 1.0,
            },
        );
        let t16 = kernel_time(
            &d,
            &c,
            &ExecCtx {
                threads: 16,
                clock: 1.0,
            },
        );
        assert!(t16 > t72);
        // bandwidth-bound kernel: 16 threads lose less than 4.5x
        assert!(t16 < 2.5 * t72);
    }

    #[test]
    fn multi_rhs_amortizes_transactions() {
        let d = h100();
        let ctx = ExecCtx::default();
        let per_case_1 = kernel_time(&d, &paper_compact_ebe(1), &ctx);
        let per_case_4 = kernel_time(&d, &paper_compact_ebe(4), &ctx) / 4.0;
        assert!(per_case_4 < per_case_1, "{per_case_4} !< {per_case_1}");
    }

    #[test]
    fn transfer_time_model() {
        let link = crate::spec::nvlink_c2c();
        let t = transfer_time(&link, 450e9 * 0.001);
        assert!((t - (0.001 + 5e-6)).abs() < 1e-12);
    }
}
