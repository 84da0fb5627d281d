//! # hetsolve-fem
//!
//! Finite element substrate for the `hetsolve` reproduction of the SC24
//! paper *"Heterogeneous computing in a strongly-connected CPU-GPU
//! environment"* (Ichimura et al.): 10-node tetrahedral elements for 3-D
//! linear dynamic elasticity, exactly the discretization of the paper's
//! §3.1 target problem.
//!
//! * [`quad`] — positive-weight quadrature rules (tet degree 2/5, tri degree 4),
//! * [`shape`] — Tet10 / Tri6 shape functions and physical gradients,
//! * [`sym`] — packed symmetric element matrices and the fused
//!   (multi-RHS) `c_M M_e + c_K K_e` kernels used by EBE,
//! * [`material`] — isotropic elasticity and Rayleigh damping fits,
//! * [`element`] — consistent mass / stiffness element matrices,
//! * [`faces`] — Lysmer absorbing-boundary dashpot face matrices,
//! * [`constraint`] — Dirichlet DOF masking,
//! * [`newmark`] — Newmark-β (trapezoidal) time integration,
//! * [`loads`] — random surface impulse generation (uniform-spectrum inputs),
//! * [`model`] — the bundled [`model::FemProblem`].

pub mod constraint;
pub mod ebe_compact;
pub mod element;
pub mod faces;
pub mod loads;
pub mod material;
pub mod model;
pub mod newmark;
pub mod nonlinear;
pub mod quad;
pub mod shape;

/// Re-export of the packed-symmetric kernels (they live in `hetsolve-sparse`
/// where the EBE operator consumes them).
pub use hetsolve_sparse::sym;

pub use constraint::DofMask;
pub use ebe_compact::{compact_ebe_counts, CompactEbe, CompactElements, ScatterPlan};
pub use element::{ElementMatrices, NDOF, PACKED};
pub use faces::{FaceDashpots, FACE_NDOF, FACE_PACKED};
pub use loads::{RandomLoad, RandomLoadSpec};
pub use material::{elasticity_matrix, Rayleigh};
pub use model::{FemProblem, OpCoeffs};
pub use newmark::{Newmark, TimeState};
pub use nonlinear::{octahedral_strain, HyperbolicModel, NonlinearState};
