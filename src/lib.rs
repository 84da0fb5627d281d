//! # hetsolve
//!
//! A Rust reproduction of the SC24 paper *"Heterogeneous computing in a
//! strongly-connected CPU-GPU environment: fast multiple time-evolution
//! equation-based modeling accelerated using data-driven approach"*
//! (Ichimura, Fujita, Hori, Lalith, Wells, Gray, Karlin, Linford).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`mesh`] — layered 3-D ground models, Tet10 meshes, partitioning,
//!   run colouring of the element order,
//! * [`fem`] — Tet10 elasticity, Newmark-β, absorbing boundaries, loads,
//!   and the compact matrix-free EBE operator,
//! * [`sparse`] — block CRS, (multi-RHS) preconditioned CG, block-Jacobi,
//! * [`predictor`] — Adams-Bashforth + the data-driven (MGS/POD)
//!   correction predictor with adaptive window,
//! * [`machine`] — the calibrated GH200/Alps hardware model (roofline,
//!   energy, power caps, interconnect),
//! * [`pool`] — the host's threads: the deterministic fork-join pool every
//!   parallel kernel runs on (same bits at any thread count),
//! * [`signal`] — FFT, Welch spectra, frequency domain decomposition,
//! * [`obs`] — dependency-free observability: solver observers,
//!   Chrome-trace-event export, run metrics, telemetry registry, flight
//!   recorder,
//! * [`fault`] — deterministic fault injection (corrupted guesses,
//!   poisoned snapshots, dropped exchanges, lane stalls, solver caps,
//!   crashes, torn writes, bit flips): a seeded plan every driver queries
//!   at its fault sites,
//! * [`ckpt`] — crash-consistent checkpointing: the versioned,
//!   section-checksummed snapshot format, atomic writes, and the
//!   sequence-numbered store with torn-write fallback,
//! * [`crc`] — the one CRC32 behind checkpoint sections and the integrity
//!   guards: a carry-less-multiply kernel with a table fallback, one digest,
//! * [`core`] — the four methods (`CRS-CG@CPU/GPU/CPU-GPU`,
//!   `EBE-MCG@CPU-GPU`), ensembles, and multi-node execution,
//! * [`serve`] — the serving layer: continuous-batching ensemble service
//!   with admission control and fused-lane scheduling.
//!
//! See `README.md` for a quickstart and `DESIGN.md`/`EXPERIMENTS.md` for
//! the reproduction methodology and measured results.

#![forbid(unsafe_code)]

pub use hetsolve_ckpt as ckpt;
pub use hetsolve_core as core;
pub use hetsolve_crc as crc;
pub use hetsolve_fault as fault;
pub use hetsolve_fem as fem;
pub use hetsolve_load as load;
pub use hetsolve_machine as machine;
pub use hetsolve_mesh as mesh;
pub use hetsolve_obs as obs;
pub use hetsolve_pool as pool;
pub use hetsolve_predictor as predictor;
pub use hetsolve_serve as serve;
pub use hetsolve_signal as signal;
pub use hetsolve_sparse as sparse;

/// Commonly used items in one import.
pub mod prelude {
    pub use hetsolve_ckpt::CheckpointStore;
    pub use hetsolve_core::{
        run, run_ensemble, run_with, Backend, CheckpointPolicy, EnsembleConfig, Hooks, MethodKind,
        PartitionedProblem, RecoveryEvent, RunConfig, RunError, RunResult, StepTracer,
    };
    pub use hetsolve_fault::{FaultKind, FaultPlan, FaultSite};
    pub use hetsolve_fem::{FemProblem, RandomLoadSpec};
    pub use hetsolve_machine::{alps_node, single_gh200, NodeSpec};
    pub use hetsolve_mesh::{GroundModelSpec, InterfaceShape};
    pub use hetsolve_serve::{AdmitError, BatchPolicy, EnsembleServer, ServeConfig, SolveRequest};
    pub use hetsolve_signal::WelchConfig;
}
