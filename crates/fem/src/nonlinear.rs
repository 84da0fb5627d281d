//! Material nonlinearity support — the extension the paper motivates for
//! the matrix-free method: "the introduction of EBE makes the computations
//! matrix-free, enabling the use of the proposed method for solving
//! nonlinear problems" (§2.2), because updating element properties costs a
//! 16-f64 geometry-record refresh per element instead of a global CRS
//! reassembly.
//!
//! The implemented constitutive model is the standard equivalent-linear
//! (secant) treatment of soil nonlinearity: the shear modulus degrades with
//! the element's octahedral shear strain by the hyperbolic law
//!
//! `μ_eff(γ) = μ₀ / (1 + γ/γ_ref)`,
//!
//! clamped below by `min_ratio·μ₀`; the bulk modulus is held constant
//! (λ_eff = K − 2/3 μ_eff), preserving positive definiteness.

use hetsolve_mesh::TetMesh10;

use crate::ebe_compact::{CompactElements, GEO_STRIDE};
use crate::shape::tet_bary_gradients;

/// Hyperbolic shear-modulus degradation model.
#[derive(Debug, Clone, Copy)]
pub struct HyperbolicModel {
    /// Reference octahedral shear strain at which μ halves.
    pub gamma_ref: f64,
    /// Floor for μ_eff/μ₀.
    pub min_ratio: f64,
}

impl HyperbolicModel {
    pub fn new(gamma_ref: f64, min_ratio: f64) -> Self {
        assert!(gamma_ref > 0.0 && (0.0..1.0).contains(&min_ratio));
        HyperbolicModel {
            gamma_ref,
            min_ratio,
        }
    }

    /// Secant modulus ratio at octahedral shear strain `gamma`.
    #[inline]
    pub(crate) fn ratio(&self, gamma: f64) -> f64 {
        (1.0 / (1.0 + gamma.abs() / self.gamma_ref)).max(self.min_ratio)
    }
}

/// Octahedral (engineering) shear strain of an element under nodal
/// displacements `u`, evaluated from the linear part of the displacement
/// gradient at the element (vertex gradients — exact for the mean strain
/// of straight Tet10 elements).
pub(crate) fn octahedral_strain(mesh: &TetMesh10, e: usize, u: &[f64]) -> f64 {
    let verts = mesh.vertices(e);
    let (dl, _) = tet_bary_gradients(&verts);
    // mean displacement gradient: H = sum over vertices of u_v ⊗ dl_v
    // (vertex shape gradients of the P1 part; adequate as an element-mean)
    let mut h = [0.0f64; 9];
    let el = &mesh.elems[e];
    for (k, dlv) in dl.iter().enumerate() {
        let n = el[k] as usize;
        let (ux, uy, uz) = (u[3 * n], u[3 * n + 1], u[3 * n + 2]);
        let d = dlv.to_array();
        h[0] += ux * d[0];
        h[1] += ux * d[1];
        h[2] += ux * d[2];
        h[3] += uy * d[0];
        h[4] += uy * d[1];
        h[5] += uy * d[2];
        h[6] += uz * d[0];
        h[7] += uz * d[1];
        h[8] += uz * d[2];
    }
    // deviatoric strain invariant
    let exx = h[0];
    let eyy = h[4];
    let ezz = h[8];
    let exy = 0.5 * (h[1] + h[3]);
    let eyz = 0.5 * (h[5] + h[7]);
    let ezx = 0.5 * (h[2] + h[6]);
    let em = (exx + eyy + ezz) / 3.0;
    let (dx, dy, dz) = (exx - em, eyy - em, ezz - em);
    // octahedral engineering shear strain
    (2.0 / 3.0)
        * (((dx - dy).powi(2) + (dy - dz).powi(2) + (dz - dx).powi(2)) / 2.0
            + 3.0 * (exy * exy + eyz * eyz + ezx * ezx))
            .sqrt()
        * std::f64::consts::SQRT_2
}

/// Per-element nonlinear state: the pristine moduli plus the current
/// secant ratio (for reporting / convergence checks).
#[derive(Debug, Clone)]
pub struct NonlinearState {
    /// μ₀, λ₀ per element (copied at construction).
    mu0: Vec<f64>,
    lambda0: Vec<f64>,
    /// Latest secant ratio per element.
    pub ratio: Vec<f64>,
}

impl NonlinearState {
    pub fn from_compact(c: &CompactElements) -> Self {
        let ne = c.n_elems;
        let mut mu0 = vec![0.0; ne];
        let mut lambda0 = vec![0.0; ne];
        for e in 0..ne {
            lambda0[e] = c.geo[e * GEO_STRIDE + 14];
            mu0[e] = c.geo[e * GEO_STRIDE + 15];
        }
        NonlinearState {
            mu0,
            lambda0,
            ratio: vec![1.0; ne],
        }
    }

    /// Update the compact geometry records in place from the current
    /// displacement field (the matrix-free "reassembly": 2 f64 writes per
    /// element). Returns the largest relative modulus change, the natural
    /// secant-iteration convergence measure.
    pub fn update(
        &mut self,
        compact: &mut CompactElements,
        mesh: &TetMesh10,
        u: &[f64],
        model: &HyperbolicModel,
    ) -> f64 {
        let mut max_change = 0.0f64;
        for e in 0..compact.n_elems {
            let gamma = octahedral_strain(mesh, e, u);
            let r = model.ratio(gamma);
            max_change = max_change.max((r - self.ratio[e]).abs());
            self.ratio[e] = r;
            let mu = self.mu0[e] * r;
            // hold the bulk modulus K = lambda0 + 2/3 mu0 fixed
            let k_bulk = self.lambda0[e] + 2.0 / 3.0 * self.mu0[e];
            let lambda = k_bulk - 2.0 / 3.0 * mu;
            compact.geo[e * GEO_STRIDE + 14] = lambda;
            compact.geo[e * GEO_STRIDE + 15] = mu;
        }
        max_change
    }

    /// Restore the pristine (linear) moduli.
    pub fn reset(&mut self, compact: &mut CompactElements) {
        for e in 0..compact.n_elems {
            compact.geo[e * GEO_STRIDE + 14] = self.lambda0[e];
            compact.geo[e * GEO_STRIDE + 15] = self.mu0[e];
            self.ratio[e] = 1.0;
        }
    }

    /// Mean secant ratio (1.0 = fully linear).
    pub fn mean_ratio(&self) -> f64 {
        self.ratio.iter().sum::<f64>() / self.ratio.len().max(1) as f64
    }
}

/// Modeled cost of one nonlinear operator refresh.
///
/// * EBE (matrix-free): stream the geometry table once and rewrite 2 slots
///   per element — `O(16·8 B)` per element;
/// * CRS: full reassembly of the global matrix — every element's 30×30
///   contribution recomputed and scattered (~the cost of ~10 EBE applies),
///   the overhead the paper avoids by going matrix-free.
pub fn refresh_counts_ebe(n_elems: usize) -> hetsolve_sparse::KernelCounts {
    hetsolve_sparse::KernelCounts {
        flops: n_elems as f64 * 120.0,
        bytes_stream: n_elems as f64 * (GEO_STRIDE as f64 * 8.0 * 2.0),
        bytes_rand: 0.0,
        rand_transactions: 0.0,
        rhs_fused: 1,
    }
}

/// Modeled cost of a CRS reassembly (element integration + global scatter).
pub fn refresh_counts_crs(n_elems: usize, nnz_blocks: usize) -> hetsolve_sparse::KernelCounts {
    hetsolve_sparse::KernelCounts {
        // ~30 kflops to integrate a Tet10 stiffness + mass combine
        flops: n_elems as f64 * 30_000.0,
        // write the full block-CRS image
        bytes_stream: nnz_blocks as f64 * 76.0 * 2.0,
        bytes_rand: n_elems as f64 * 100.0 * 8.0,
        rand_transactions: n_elems as f64 * 100.0,
        rhs_fused: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    fn setup() -> (TetMesh10, CompactElements) {
        let gm = GroundModelSpec::small(InterfaceShape::Stratified).build();
        let mats = gm.spec.materials();
        let compact = CompactElements::compute(&gm.mesh, &mats);
        (gm.mesh, compact)
    }

    #[test]
    fn ratio_curve_shape() {
        let m = HyperbolicModel::new(1e-3, 0.1);
        assert_eq!(m.ratio(0.0), 1.0);
        assert!((m.ratio(1e-3) - 0.5).abs() < 1e-12);
        assert!(m.ratio(1e-1) >= 0.1);
        assert!(m.ratio(5e-4) > m.ratio(2e-3));
    }

    #[test]
    fn zero_displacement_keeps_moduli() {
        let (mesh, mut compact) = setup();
        let mut st = NonlinearState::from_compact(&compact);
        let u = vec![0.0; mesh.n_dofs()];
        let change = st.update(&mut compact, &mesh, &u, &HyperbolicModel::new(1e-3, 0.05));
        assert_eq!(change, 0.0);
        assert_eq!(st.mean_ratio(), 1.0);
    }

    #[test]
    fn shear_field_softens_elements() {
        let (mesh, mut compact) = setup();
        let mu_before: Vec<f64> = (0..compact.n_elems)
            .map(|e| compact.geo[e * GEO_STRIDE + 15])
            .collect();
        let mut st = NonlinearState::from_compact(&compact);
        // simple shear u_x = gamma * z
        let gamma = 5e-3;
        let mut u = vec![0.0; mesh.n_dofs()];
        for (n, c) in mesh.coords.iter().enumerate() {
            u[3 * n] = gamma * c[2];
        }
        let model = HyperbolicModel::new(1e-3, 0.05);
        let change = st.update(&mut compact, &mesh, &u, &model);
        assert!(change > 0.0);
        assert!(st.mean_ratio() < 0.7, "mean ratio {}", st.mean_ratio());
        for e in 0..compact.n_elems {
            let mu = compact.geo[e * GEO_STRIDE + 15];
            assert!(mu < mu_before[e]);
            assert!(mu > 0.0);
            // bulk modulus preserved
            let lam = compact.geo[e * GEO_STRIDE + 14];
            let st0 = (st.lambda0[e] + 2.0 / 3.0 * st.mu0[e]) - (lam + 2.0 / 3.0 * mu);
            assert!(st0.abs() < 1e-6 * st.lambda0[e].abs());
        }
    }

    #[test]
    fn octahedral_strain_of_pure_shear() {
        let (mesh, _) = setup();
        // u_x = g*z => eps_zx = g/2, octahedral engineering strain
        let g = 2e-3;
        let mut u = vec![0.0; mesh.n_dofs()];
        for (n, c) in mesh.coords.iter().enumerate() {
            u[3 * n] = g * c[2];
        }
        let gam = octahedral_strain(&mesh, 0, &u);
        // gamma_oct = 2/3 * sqrt(6*(g/2)^2) * sqrt(2) = (2/sqrt(3)) g / sqrt(...)
        // just check the magnitude lands within [0.5 g, 1.5 g]
        assert!(
            (0.5 * g..1.5 * g).contains(&gam),
            "gamma_oct = {gam} for g = {g}"
        );
    }

    #[test]
    fn reset_restores_linearity() {
        let (mesh, mut compact) = setup();
        let original = compact.geo.clone();
        let mut st = NonlinearState::from_compact(&compact);
        let mut u = vec![0.0; mesh.n_dofs()];
        for (n, c) in mesh.coords.iter().enumerate() {
            u[3 * n] = 1e-2 * c[2];
        }
        st.update(&mut compact, &mesh, &u, &HyperbolicModel::new(1e-3, 0.05));
        assert_ne!(compact.geo, original);
        st.reset(&mut compact);
        assert_eq!(compact.geo, original);
    }

    #[test]
    fn refresh_cost_gap() {
        // the paper's point: nonlinear updates are ~free for EBE, expensive
        // for assembled CRS
        let ebe = refresh_counts_ebe(11_365_697);
        let crs = refresh_counts_crs(11_365_697, 27 * 15_509_903);
        assert!(crs.flops > 100.0 * ebe.flops);
        assert!(crs.bytes_stream > 10.0 * ebe.bytes_stream);
    }
}
