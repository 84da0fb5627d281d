//! # hetsolve-sparse
//!
//! Sparse linear algebra substrate for the `hetsolve` reproduction of the
//! SC24 paper *"Heterogeneous computing in a strongly-connected CPU-GPU
//! environment"* (Ichimura et al.):
//!
//! * `bcrs` — 3×3 block CRS (the paper's baseline storage format, and
//!   the stored-matrix oracle the matrix-free EBE operator of
//!   `hetsolve-fem` is checked against),
//! * `parcheck` — the race-checked phase scatter every EBE apply writes
//!   through,
//! * `mcg` / `cg` — the preconditioned conjugate gradient over `r`
//!   fused right-hand sides (the MCG of EBE-MCG@CPU-GPU) and its `r = 1`
//!   entry point `pcg` (Algorithm 1),
//! * `blockjacobi` — the 3×3 block-Jacobi preconditioner,
//! * `assembly` — packed element matrices → global BCRS with Dirichlet
//!   elimination,
//! * `sym` — packed symmetric element-matrix kernels (shared with
//!   `hetsolve-fem`),
//! * `vecops` / `dense` — vector primitives and 3×3 block inverses,
//! * `op` — operator traits and hardware-independent [`KernelCounts`]
//!   that the machine model converts into modeled time/energy.

mod assembly;
mod bcrs;
mod blockjacobi;
mod cg;
mod dense;
mod dirichlet;
mod error;
mod mcg;
mod op;
mod parcheck;
mod sym;
mod vecops;

pub use assembly::{add_packed_element, apply_dirichlet, assemble_global};
pub use bcrs::{Bcrs3, BcrsBuilder};
pub use blockjacobi::BlockJacobi;
pub use cg::{pcg, pcg_observed, CgConfig, CgStats};
pub use dirichlet::FixedMask;
pub use error::SolveError;
pub use hetsolve_obs::{NoopObserver, ResidualLog, SolveObserver, Termination};
pub use mcg::{mcg, mcg_observed, McgStats, McgWorkspace};
pub use op::{KernelCounts, LinearOperator, MultiOperator, Preconditioner, Width1};
pub use parcheck::ColorScatter;
pub use sym::{packed_idx, packed_len, sym_matvec_add};
pub use vecops::{extract_case, insert_case};
