//! Complete FE problem description for the paper's target problem:
//! a layered ground model under random surface impulses, with fixed bottom,
//! absorbing sides, Rayleigh damping, and Newmark-β time integration.
//!
//! [`FemProblem`] bundles everything a solver backend (CRS or EBE, built in
//! `hetsolve-sparse`/`hetsolve-core`) needs: face dashpots, constraint
//! mask, the coefficient sets that express the system/mass/damping
//! operators as linear combinations `c_M M + c_K K + c_B C_b`. It stores
//! no element matrices: the matrix-free operator recomputes them, and CRS
//! assembly streams them from the element kernel ([`crate::ElementKernel`]),
//! keeping each only until the last row that reads it is merged.

use hetsolve_mesh::{extract_boundary, BoundarySet, GroundModel, GroundModelSpec, Material};

use crate::constraint::DofMask;
use crate::faces::FaceDashpots;
use crate::material::Rayleigh;
use crate::newmark::Newmark;

/// Coefficients expressing an operator as `c_M M + c_K K + c_B C_b`
/// (element mass/stiffness plus boundary dashpots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCoeffs {
    pub c_m: f64,
    pub c_k: f64,
    pub c_b: f64,
}

/// The assembled-but-matrix-free FE problem.
#[derive(Debug, Clone)]
pub struct FemProblem {
    pub model: GroundModel,
    pub materials: Vec<Material>,
    pub rayleigh: Rayleigh,
    pub newmark: Newmark,
    pub dashpots: FaceDashpots,
    pub boundary: BoundarySet,
    pub mask: DofMask,
    /// Interior free-surface nodes (loading & observation points).
    pub surface_nodes: Vec<u32>,
}

impl FemProblem {
    /// Build the full problem from a ground model spec.
    ///
    /// `zeta` is the target damping ratio, fitted between `f1`–`f2` Hz;
    /// `dt` the time increment.
    pub fn build(spec: &GroundModelSpec, zeta: f64, f1: f64, f2: f64, dt: f64) -> Self {
        let model = spec.build();
        let materials = spec.materials();
        let rayleigh = if zeta > 0.0 {
            Rayleigh::fit(zeta, f1, f2)
        } else {
            Rayleigh::ZERO
        };
        let newmark = Newmark::new(dt);
        let g = &spec.grid;
        let boundary = extract_boundary(&model.mesh, g.lx, g.ly, g.lz, 1e-6 * g.lz.max(g.lx));
        let dashpots = FaceDashpots::compute(&model.mesh, &boundary, &materials);
        let mask = DofMask::from_fixed_nodes(model.mesh.n_nodes(), &boundary.fixed_nodes());
        let surface_nodes = boundary.free_surface_nodes();
        FemProblem {
            model,
            materials,
            rayleigh,
            newmark,
            dashpots,
            boundary,
            mask,
            surface_nodes,
        }
    }

    /// Default paper-like problem at a given resolution: 2.5 % damping over
    /// 0.2–5 Hz (the paper resolves up to 5 Hz), `dt = 0.005 s` (paper).
    pub fn paper_like(spec: &GroundModelSpec) -> Self {
        Self::build(spec, 0.025, 0.2, 5.0, 0.005)
    }

    #[inline]
    pub fn n_dofs(&self) -> usize {
        self.model.mesh.n_dofs()
    }

    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.model.mesh.n_nodes()
    }

    /// Coefficients of the Newmark system matrix
    /// `A = c_m M + c_c C + K` with `C = α M + β K + C_b`:
    /// `A = (c_m + c_c α) M + (1 + c_c β) K + c_c C_b`.
    pub fn a_coeffs(&self) -> OpCoeffs {
        let nm = &self.newmark;
        let r = &self.rayleigh;
        OpCoeffs {
            c_m: nm.cm + nm.cc * r.alpha,
            c_k: 1.0 + nm.cc * r.beta,
            c_b: nm.cc,
        }
    }

    /// Coefficients of the damping operator `C = α M + β K + C_b`.
    pub fn c_coeffs(&self) -> OpCoeffs {
        OpCoeffs {
            c_m: self.rayleigh.alpha,
            c_k: self.rayleigh.beta,
            c_b: 1.0,
        }
    }

    /// Observation DOF (z-component) of each surface node, used to record
    /// waveforms for the FDD post-processing.
    pub fn surface_dofs_z(&self) -> Vec<usize> {
        self.surface_nodes
            .iter()
            .map(|&n| 3 * n as usize + 2)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_mesh::{BoundaryKind, InterfaceShape};

    fn problem() -> FemProblem {
        FemProblem::paper_like(&GroundModelSpec::small(InterfaceShape::Stratified))
    }

    #[test]
    fn builds_consistently() {
        let p = problem();
        assert_eq!(p.n_dofs(), 3 * p.n_nodes());
        let elements = crate::ElementMatrices::compute(&p.model.mesh, &p.materials);
        assert_eq!(elements.n_elems, p.model.mesh.n_elems());
        assert!(p.dashpots.n_faces() > 0);
        assert!(p.mask.n_fixed() > 0);
        assert!(!p.surface_nodes.is_empty());
    }

    #[test]
    fn a_coeffs_reduce_without_damping() {
        let spec = GroundModelSpec::small(InterfaceShape::Stratified);
        let p = FemProblem::build(&spec, 0.0, 0.2, 5.0, 0.01);
        let a = p.a_coeffs();
        assert_eq!(a.c_m, p.newmark.cm);
        assert_eq!(a.c_k, 1.0);
        assert_eq!(a.c_b, p.newmark.cc);
    }

    #[test]
    fn damping_increases_a_coeffs() {
        let p = problem();
        let a = p.a_coeffs();
        assert!(a.c_m > p.newmark.cm);
        assert!(a.c_k > 1.0);
    }

    #[test]
    fn surface_dofs_are_z_components() {
        let p = problem();
        for d in p.surface_dofs_z() {
            assert_eq!(d % 3, 2);
            assert!(d < p.n_dofs());
        }
    }

    #[test]
    fn fixed_nodes_are_at_bottom() {
        let p = problem();
        for n in p.boundary.nodes_of_kind(BoundaryKind::Bottom) {
            assert!((0..3).all(|d| p.mask.is_fixed(3 * n as usize + d)));
        }
    }
}
