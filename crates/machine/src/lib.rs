//! # hetsolve-machine
//!
//! Heterogeneous machine model for the `hetsolve` reproduction of the SC24
//! paper *"Heterogeneous computing in a strongly-connected CPU-GPU
//! environment"* (Ichimura et al.).
//!
//! We do not have a GH200 or the Alps supercomputer; per the substitution
//! strategy in `DESIGN.md`, all numerics run for real on the host while
//! wall-clock and energy are produced by this crate's calibrated,
//! first-order hardware model:
//!
//! * `spec` — Table-1 device/link/node profiles plus calibrated kernel
//!   efficiencies (provenance: the paper's Table 2 microbenchmarks),
//! * `roofline` — kernel time = roofline max(compute, memory) + a
//!   gather-transaction issue term; validated against every Table 2 row,
//! * `clock` — overlapped CPU/GPU virtual timelines with energy
//!   integration and the Alps module power-cap GPU throttle,
//! * `cluster` — inter-GPU halo-exchange and weak-scaling model (Fig. 5),
//! * `memory` — method memory footprints at paper scale (Tables 3/4).

#![forbid(unsafe_code)]

mod clock;
mod cluster;
mod memory;
mod roofline;
mod spec;

pub use clock::{
    ClockState, EnergyReport, LaneKind, LaneSpan, ManualClock, ModuleClock, SystemClock, WallClock,
};
pub use cluster::{
    box_halo_pattern, weak_scaling_efficiency, weak_scaling_step_time, HaloPattern, LinkTraffic,
};
pub use memory::{crs_cg_cpu, crs_cg_cpu_gpu, crs_cg_gpu, ebe_mcg_cpu_gpu, MemUsage, ProblemDims};
pub use roofline::{achieved_bw, achieved_flops, kernel_time, transfer_time, ExecCtx};
pub use spec::{
    alps_node, format_table1, grace_480, h100, single_gh200, DeviceSpec, LinkSpec, ModuleSpec,
    NodeSpec,
};
