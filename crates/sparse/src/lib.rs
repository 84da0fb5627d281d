//! # hetsolve-sparse
//!
//! Sparse linear algebra substrate for the `hetsolve` reproduction of the
//! SC24 paper *"Heterogeneous computing in a strongly-connected CPU-GPU
//! environment"* (Ichimura et al.):
//!
//! * [`bcrs`] — 3×3 block CRS (the paper's baseline storage format),
//! * [`ebe`] — the matrix-free Element-by-Element operator with 1–8 fused
//!   right-hand sides (the paper's Eq. (2)/(8)/(9)), color-parallel scatter,
//! * [`mcg`] / [`cg`] — the preconditioned conjugate gradient over `r`
//!   fused right-hand sides (the MCG of EBE-MCG@CPU-GPU) and its `r = 1`
//!   entry point `pcg` (Algorithm 1),
//! * [`blockjacobi`] — the 3×3 block-Jacobi preconditioner,
//! * [`assembly`] — packed element matrices → global BCRS with Dirichlet
//!   elimination,
//! * [`sym`] — packed symmetric element-matrix kernels (shared with
//!   `hetsolve-fem`),
//! * [`vecops`] / [`dense`] — vector primitives and small dense solvers,
//! * [`op`] — operator traits and hardware-independent [`op::KernelCounts`]
//!   that the machine model converts into modeled time/energy.

pub mod assembly;
pub mod bcrs;
pub mod blockjacobi;
pub mod cg;
pub mod dense;
pub mod dirichlet;
pub mod ebe;
pub mod error;
pub mod mcg;
pub mod op;
pub mod parcheck;
pub mod sym;
pub mod vecops;

pub use assembly::{apply_dirichlet, assemble_global};
pub use bcrs::{Bcrs3, BcrsBuilder};
pub use blockjacobi::BlockJacobi;
pub use cg::{pcg, pcg_observed, CgConfig, CgStats};
pub use dirichlet::FixedMask;
pub use ebe::{color_faces, ebe_counts, EbeData, EbeOperator};
pub use error::SolveError;
pub use hetsolve_obs::{NoopObserver, ResidualLog, SolveObserver, Termination};
pub use mcg::{mcg, mcg_masked, mcg_masked_observed, mcg_observed, McgStats};
pub use op::{KernelCounts, LinearOperator, MultiOperator, Preconditioner, Width1};
pub use parcheck::ColorScatter;
