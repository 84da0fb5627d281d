//! Element matrix computation for the Tet10 solid element.
//!
//! Produces the consistent mass matrix `M_e` and the stiffness matrix `K_e`
//! (both 30×30, packed symmetric). The element damping matrix is never
//! stored: Rayleigh damping `C_e = α M_e + β K_e` is folded into the
//! coefficients of the fused EBE kernel, and absorbing-boundary dashpots are
//! separate face matrices (see [`crate::faces`]).
//!
//! DOF ordering within an element: node-major, `dof = 3*node + component`.

use hetsolve_mesh::{Material, TetMesh10, Vec3};

use crate::quad::{tet_rule_deg2, tet_rule_deg5, TetQp};
use crate::shape::{tet10_grad, tet10_shape, tet_bary_gradients};
use hetsolve_sparse::{packed_idx, packed_len};

/// Number of DOFs of a Tet10 solid element.
pub const NDOF: usize = 30;
/// Packed length of a 30×30 symmetric matrix.
pub const PACKED: usize = packed_len(NDOF); // 465

/// Packed length of the node-pair table of a Tet10 mass matrix (10 × 10
/// symmetric).
pub const MASS_PAIRS: usize = packed_len(10); // 55

/// The node-pair table of the consistent element mass matrix, written
/// into `m` (packed symmetric over the 10 nodes; overwritten):
/// `m[i, j] = ρ ∫ N_i N_j dV`, integrated with the degree-5 rule (exact:
/// the integrand is degree 4). The mass matrix is `M_e = m ⊗ I₃`.
pub(crate) fn mass_pairs(x: &[Vec3; 10], rho: f64, rule: &[TetQp], m: &mut [f64; MASS_PAIRS]) {
    let verts = [x[0], x[1], x[2], x[3]];
    let (_, vol) = tet_bary_gradients(&verts);
    assert!(vol > 0.0, "element has non-positive volume {vol}");
    m.fill(0.0);
    for qp in rule {
        let n = tet10_shape(qp.l);
        let w = qp.w * vol * rho;
        for i in 0..10 {
            for j in 0..=i {
                m[packed_idx(i, j)] += w * n[i] * n[j];
            }
        }
    }
}

/// `m ⊗ I₃` of a node-pair table `m`, written into `full` (packed
/// symmetric, 465 entries; overwritten): the pair's value on each
/// component's diagonal, exact zeros between components.
fn expand_mass(m: &[f64; MASS_PAIRS], full: &mut [f64]) {
    debug_assert_eq!(full.len(), PACKED);
    full.fill(0.0);
    for i in 0..10 {
        for j in 0..=i {
            for a in 0..3 {
                full[packed_idx(3 * i + a, 3 * j + a)] = m[packed_idx(i, j)];
            }
        }
    }
}

/// Consistent element mass matrix, written into `m` (packed symmetric,
/// 465 entries; overwritten): the node-pair table expanded,
/// `M_e[(3i+a),(3j+b)] = δ_ab ρ ∫ N_i N_j dV`, integrated with the
/// degree-5 rule (exact: the integrand is degree 4).
pub fn mass_matrix(x: &[Vec3; 10], rho: f64, rule: &[TetQp], m: &mut [f64]) {
    let mut pairs = [0.0; MASS_PAIRS];
    mass_pairs(x, rho, rule, &mut pairs);
    expand_mass(&pairs, m);
}

/// Element stiffness matrix for an isotropic material, written into `k`
/// (packed symmetric, 465 entries; overwritten):
///
/// `K_e[(3i+a),(3j+b)] = ∫ λ ∂_a N_i ∂_b N_j + μ (∂_b N_i ∂_a N_j +
/// δ_ab ∇N_i·∇N_j) dV`, integrated with the degree-2 rule (exact on
/// straight-sided elements, where ∇N is linear).
pub fn stiffness_matrix(x: &[Vec3; 10], mat: &Material, rule: &[TetQp], k: &mut [f64]) {
    let verts = [x[0], x[1], x[2], x[3]];
    let (dl, vol) = tet_bary_gradients(&verts);
    assert!(vol > 0.0, "element has non-positive volume {vol}");
    let (lambda, mu) = (mat.lambda(), mat.mu());
    debug_assert_eq!(k.len(), PACKED);
    k.fill(0.0);
    for qp in rule {
        let g = tet10_grad(qp.l, &dl);
        let w = qp.w * vol;
        for i in 0..10 {
            let gi = g[i].to_array();
            for j in 0..=i {
                let gj = g[j].to_array();
                let dot = gi[0] * gj[0] + gi[1] * gj[1] + gi[2] * gj[2];
                for a in 0..3 {
                    // only b <= (full row for j < i; b <= a for j == i)
                    let bmax = if j == i { a + 1 } else { 3 };
                    for b in 0..bmax {
                        let val = lambda * gi[a] * gj[b]
                            + mu * (gi[b] * gj[a] + if a == b { dot } else { 0.0 });
                        k[packed_idx(3 * i + a, 3 * j + b)] += w * val;
                    }
                }
            }
        }
    }
}

/// The element kernel of one mesh: the mass's node-pair table and the
/// packed `K_e` of any of its elements, with the material table applied
/// by the element's material id. [`ElementMatrices::compute`] runs it
/// over every element; CRS assembly (`hetsolve_sparse::assemble_global`)
/// calls it once per element as it streams the mesh.
#[derive(Debug)]
pub struct ElementKernel<'a> {
    mesh: &'a TetMesh10,
    mats: &'a [Material],
    rule_m: Vec<TetQp>,
    rule_k: Vec<TetQp>,
}

impl<'a> ElementKernel<'a> {
    /// The kernel of `mesh` under the material table `mats`.
    pub fn new(mesh: &'a TetMesh10, mats: &'a [Material]) -> Self {
        ElementKernel {
            mesh,
            mats,
            rule_m: tet_rule_deg5(),
            rule_k: tet_rule_deg2(),
        }
    }

    /// Write the node-pair table `m` of element `e`'s mass `M_e = m ⊗ I₃`
    /// (packed 10 × 10 symmetric, [`MASS_PAIRS`] entries) and its packed
    /// `K_e` into `k`.
    pub fn compute(&self, e: usize, m: &mut [f64; MASS_PAIRS], k: &mut [f64; PACKED]) {
        let x = self.mesh.elem_coords(e);
        let mat = &self.mats[self.mesh.material[e] as usize];
        mass_pairs(&x, mat.rho, &self.rule_m, m);
        stiffness_matrix(&x, mat, &self.rule_k, k);
    }
}

/// Per-element matrices for an entire mesh, stored flat
/// (`me[e*PACKED..][..PACKED]`): the element kernel's output for every
/// element at once. No operator keeps them — the EBE operator reads
/// [`crate::CompactElements`] and CRS assembly streams the kernel — so
/// this array is what the storage ablation weighs and what the assembly
/// tests' builder oracle reads.
#[derive(Debug, Clone)]
pub struct ElementMatrices {
    pub me: Vec<f64>,
    pub ke: Vec<f64>,
    pub n_elems: usize,
}

impl ElementMatrices {
    /// Compute all element matrices of `mesh` with materials `mats`.
    pub fn compute(mesh: &TetMesh10, mats: &[Material]) -> Self {
        let kernel = ElementKernel::new(mesh, mats);
        let ne = mesh.n_elems();
        let mut me = vec![0.0; ne * PACKED];
        let mut ke = vec![0.0; ne * PACKED];
        let mut pairs = [0.0; MASS_PAIRS];
        // Serial (DESIGN.md §19): set-up stays off the pool.
        for (e, (me_e, ke_e)) in me
            .as_chunks_mut::<PACKED>()
            .0
            .iter_mut()
            .zip(ke.as_chunks_mut::<PACKED>().0)
            .enumerate()
        {
            kernel.compute(e, &mut pairs, ke_e);
            expand_mass(&pairs, me_e);
        }
        ElementMatrices {
            me,
            ke,
            n_elems: ne,
        }
    }

    /// Packed M_e of element `e`.
    #[inline]
    pub fn me_of(&self, e: usize) -> &[f64] {
        &self.me[e * PACKED..(e + 1) * PACKED]
    }

    /// Packed K_e of element `e`.
    #[inline]
    pub fn ke_of(&self, e: usize) -> &[f64] {
        &self.ke[e * PACKED..(e + 1) * PACKED]
    }

    /// Bytes used by the stored matrices.
    pub fn bytes(&self) -> usize {
        (self.me.len() + self.ke.len()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_mesh::TET_EDGES;
    use hetsolve_sparse::sym_matvec_add;

    fn unit_tet10_coords() -> [Vec3; 10] {
        let v = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let mut x = [Vec3::ZERO; 10];
        x[..4].copy_from_slice(&v);
        for (k, &(a, b)) in TET_EDGES.iter().enumerate() {
            x[4 + k] = v[a].midpoint(v[b]);
        }
        x
    }

    fn skewed_tet10_coords() -> [Vec3; 10] {
        let v = [
            Vec3::new(0.1, 0.0, -0.2),
            Vec3::new(1.3, 0.2, 0.1),
            Vec3::new(0.2, 1.1, 0.3),
            Vec3::new(-0.1, 0.3, 1.4),
        ];
        let mut x = [Vec3::ZERO; 10];
        x[..4].copy_from_slice(&v);
        for (k, &(a, b)) in TET_EDGES.iter().enumerate() {
            x[4 + k] = v[a].midpoint(v[b]);
        }
        x
    }

    fn mat() -> Material {
        Material::new(1800.0, 200.0, 700.0)
    }

    /// `mass_matrix` into a buffer that starts dirty: every entry is written.
    fn mass_of(x: &[Vec3; 10], rho: f64) -> Vec<f64> {
        let mut m = vec![f64::NAN; PACKED];
        mass_matrix(x, rho, &tet_rule_deg5(), &mut m);
        m
    }

    /// `stiffness_matrix` into a buffer that starts dirty.
    fn stiffness_of(x: &[Vec3; 10], mat: &Material) -> Vec<f64> {
        let mut k = vec![f64::NAN; PACKED];
        stiffness_matrix(x, mat, &tet_rule_deg2(), &mut k);
        k
    }

    #[test]
    fn mass_total_equals_rho_v() {
        let x = skewed_tet10_coords();
        let rho = 1800.0;
        let m = mass_of(&x, rho);
        let verts = [x[0], x[1], x[2], x[3]];
        let (_, vol) = tet_bary_gradients(&verts);
        // sum over all (i,j) of the x-component blocks = rho * V
        // (partition of unity: sum_i Ni = 1)
        let ones_x: Vec<f64> = (0..NDOF)
            .map(|d| if d % 3 == 0 { 1.0 } else { 0.0 })
            .collect();
        let mut y = vec![0.0; NDOF];
        sym_matvec_add(&m, &ones_x, &mut y, NDOF);
        let total: f64 = y.iter().zip(&ones_x).map(|(a, b)| a * b).sum();
        assert!((total - rho * vol).abs() < 1e-9 * rho * vol);
    }

    #[test]
    fn mass_is_positive_definite() {
        let x = skewed_tet10_coords();
        let m = mass_of(&x, 1000.0);
        // x^T M x > 0 for a few deterministic non-zero vectors
        for seed in 1..8u64 {
            let v: Vec<f64> = (0..NDOF)
                .map(|i| (((i as u64 + 1) * seed * 2654435761) % 1000) as f64 / 500.0 - 1.0)
                .collect();
            let mut y = vec![0.0; NDOF];
            sym_matvec_add(&m, &v, &mut y, NDOF);
            let q: f64 = y.iter().zip(&v).map(|(a, b)| a * b).sum();
            assert!(q > 0.0, "x^T M x = {q} for seed {seed}");
        }
    }

    #[test]
    fn stiffness_annihilates_rigid_translations() {
        let x = skewed_tet10_coords();
        let k = stiffness_of(&x, &mat());
        for a in 0..3 {
            let v: Vec<f64> = (0..NDOF)
                .map(|d| if d % 3 == a { 1.0 } else { 0.0 })
                .collect();
            let mut y = vec![0.0; NDOF];
            sym_matvec_add(&k, &v, &mut y, NDOF);
            let n: f64 = y.iter().map(|t| t * t).sum::<f64>().sqrt();
            assert!(n < 1e-6, "K * translation_{a} = {n}");
        }
    }

    #[test]
    fn stiffness_annihilates_rigid_rotations() {
        let x = skewed_tet10_coords();
        let k = stiffness_of(&x, &mat());
        // rotation about axis w: u(p) = w × p (linear field => representable)
        for w in [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.3, -0.5, 0.8),
        ] {
            let mut v = vec![0.0; NDOF];
            for i in 0..10 {
                let u = w.cross(x[i]);
                v[3 * i] = u.x;
                v[3 * i + 1] = u.y;
                v[3 * i + 2] = u.z;
            }
            let mut y = vec![0.0; NDOF];
            sym_matvec_add(&k, &v, &mut y, NDOF);
            let n: f64 = y.iter().map(|t| t * t).sum::<f64>().sqrt();
            let scale: f64 = k.iter().map(|t| t * t).sum::<f64>().sqrt();
            assert!(n < 1e-10 * scale, "K * rotation = {n} (scale {scale})");
        }
    }

    #[test]
    fn stiffness_is_positive_semidefinite() {
        let x = unit_tet10_coords();
        let k = stiffness_of(&x, &mat());
        for seed in 1..8u64 {
            let v: Vec<f64> = (0..NDOF)
                .map(|i| (((i as u64 + 3) * seed * 1099511628211) % 997) as f64 / 499.0 - 1.0)
                .collect();
            let mut y = vec![0.0; NDOF];
            sym_matvec_add(&k, &v, &mut y, NDOF);
            let q: f64 = y.iter().zip(&v).map(|(a, b)| a * b).sum();
            assert!(q > -1e-6, "x^T K x = {q}");
        }
    }

    #[test]
    fn uniform_strain_energy_matches_continuum() {
        // u(p) = eps * p_x e_x: uniform strain exx = eps. Strain energy =
        // 1/2 (lambda + 2 mu) eps^2 V.
        let x = skewed_tet10_coords();
        let m = mat();
        let k = stiffness_of(&x, &m);
        let verts = [x[0], x[1], x[2], x[3]];
        let (_, vol) = tet_bary_gradients(&verts);
        let eps = 1e-3;
        let mut v = vec![0.0; NDOF];
        for i in 0..10 {
            v[3 * i] = eps * x[i].x;
        }
        let mut y = vec![0.0; NDOF];
        sym_matvec_add(&k, &v, &mut y, NDOF);
        let energy: f64 = 0.5 * y.iter().zip(&v).map(|(a, b)| a * b).sum::<f64>();
        let expect = 0.5 * (m.lambda() + 2.0 * m.mu()) * eps * eps * vol;
        assert!(
            (energy - expect).abs() < 1e-9 * expect,
            "energy {energy} vs continuum {expect}"
        );
    }

    #[test]
    fn element_matrices_store_layout() {
        let gm = hetsolve_mesh::GroundModelSpec::small(hetsolve_mesh::InterfaceShape::Stratified)
            .build();
        let mats = gm.spec.materials();
        let em = ElementMatrices::compute(&gm.mesh, &mats);
        assert_eq!(em.n_elems, gm.mesh.n_elems());
        assert_eq!(em.me.len(), em.n_elems * PACKED);
        // element 0's stored mass equals a direct computation
        let x = gm.mesh.elem_coords(0);
        let rho = mats[gm.mesh.material[0] as usize].rho;
        assert_eq!(em.me_of(0), &mass_of(&x, rho)[..]);
        assert!(em.bytes() > 0);
    }
}
