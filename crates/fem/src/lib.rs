//! # hetsolve-fem
//!
//! Finite element substrate for the `hetsolve` reproduction of the SC24
//! paper *"Heterogeneous computing in a strongly-connected CPU-GPU
//! environment"* (Ichimura et al.): 10-node tetrahedral elements for 3-D
//! linear dynamic elasticity, exactly the discretization of the paper's
//! §3.1 target problem.
//!
//! * `quad` — positive-weight quadrature rules (tet degree 2/5, tri degree 4),
//! * `shape` — Tet10 / Tri6 shape functions and physical gradients,
//! * `ebe_compact` — the compact matrix-free EBE operator (element
//!   matrices in packed symmetric storage, from `hetsolve-sparse`),
//! * `material` — Rayleigh damping fits,
//! * `element` — consistent mass / stiffness element matrices (the element
//!   kernel CRS assembly streams),
//! * `faces` — Lysmer absorbing-boundary dashpot face matrices,
//! * `constraint` — Dirichlet DOF masking,
//! * `newmark` — Newmark-β (trapezoidal) time integration,
//! * `loads` — random surface impulse generation (uniform-spectrum inputs),
//! * `model` — the bundled [`FemProblem`].

mod constraint;
mod ebe_compact;
mod element;
mod faces;
mod loads;
mod material;
mod model;
mod newmark;
mod nonlinear;
mod quad;
mod shape;

pub use ebe_compact::{compact_ebe_counts, CompactEbe, CompactElements, RefTables, ScatterPlan};
pub use element::{
    mass_matrix, stiffness_matrix, ElementKernel, ElementMatrices, MASS_PAIRS, NDOF, PACKED,
};

pub use loads::{ImpulseSource, RandomLoad, RandomLoadSpec};

pub use constraint::DofMask;
pub use faces::FaceDashpots;
pub use material::Rayleigh;
pub use model::{FemProblem, OpCoeffs};
pub use newmark::{Newmark, TimeState};
pub use nonlinear::{refresh_counts_crs, refresh_counts_ebe, HyperbolicModel, NonlinearState};
pub use quad::{tet_rule_deg2, tet_rule_deg5, TetQp};
pub use shape::tet_bary_gradients;
