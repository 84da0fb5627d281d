//! Absorbing-boundary dashpot matrices on quadratic boundary triangles.
//!
//! The paper applies absorbing boundary conditions on the four vertical
//! sides of the ground model to emulate the semi-infinite extent of the
//! ground. We implement the classic Lysmer–Kuhlemeyer viscous dashpot: the
//! boundary traction opposing motion is
//!
//! `t = −ρ [ V_p (v·n) n + V_s (v − (v·n) n) ]`
//!
//! which discretizes to a symmetric face damping matrix
//!
//! `C_b[(3i+a),(3j+b)] = ∫ N_i N_j ρ [ V_s δ_ab + (V_p − V_s) n_a n_b ] dS`
//!
//! over each boundary Tri6 face; it is added to the global damping matrix.

use hetsolve_mesh::{BoundaryFace, BoundaryKind, BoundarySet, Material, TetMesh10, Vec3};

use crate::quad::tri_rule_deg4;
use crate::shape::tri6_shape;
use hetsolve_sparse::{packed_idx, packed_len};

/// DOFs of a Tri6 face element.
pub(crate) const FACE_NDOF: usize = 18;
/// Packed length of an 18×18 symmetric matrix.
pub(crate) const FACE_PACKED: usize = packed_len(FACE_NDOF); // 171

/// Dashpot matrix of one boundary face (packed symmetric, 171 entries).
pub(crate) fn dashpot_matrix(face: &BoundaryFace, mat: &Material) -> Vec<f64> {
    let n = Vec3::from_array(face.normal).to_array();
    let rule = tri_rule_deg4();
    let mut c = vec![0.0; FACE_PACKED];
    let (vs, vp, rho) = (mat.vs, mat.vp, mat.rho);
    for qp in &rule {
        let sh = tri6_shape(qp.l);
        let w = qp.w * face.area * rho;
        for i in 0..6 {
            for j in 0..=i {
                let nn = w * sh[i] * sh[j];
                for a in 0..3 {
                    let bmax = if j == i { a + 1 } else { 3 };
                    for b in 0..bmax {
                        let val = (vp - vs) * n[a] * n[b] + if a == b { vs } else { 0.0 };
                        c[packed_idx(3 * i + a, 3 * j + b)] += nn * val;
                    }
                }
            }
        }
    }
    c
}

/// All absorbing-boundary face matrices of a mesh: the Tri6 connectivity
/// plus the packed dashpot matrices, stored flat. These participate in the
/// EBE operator as additional (smaller) elements and in CRS assembly as
/// extra contributions to `C`.
#[derive(Debug, Clone, Default)]
pub struct FaceDashpots {
    /// Global node ids of each face (Tri6 ordering).
    pub faces: Vec<[u32; 6]>,
    /// Packed 18×18 matrices, `cb[f*FACE_PACKED..][..FACE_PACKED]`.
    pub cb: Vec<f64>,
}

impl FaceDashpots {
    /// Build dashpots for every `Side` boundary face, using the material of
    /// the face's owning element.
    pub(crate) fn compute(mesh: &TetMesh10, boundary: &BoundarySet, mats: &[Material]) -> Self {
        let mut faces = Vec::new();
        let mut cb = Vec::new();
        for f in boundary.faces_of_kind(BoundaryKind::Side) {
            let mat = &mats[mesh.material[f.elem as usize] as usize];
            faces.push(f.nodes);
            cb.extend_from_slice(&dashpot_matrix(f, mat));
        }
        FaceDashpots { faces, cb }
    }

    pub fn n_faces(&self) -> usize {
        self.faces.len()
    }

    /// Packed dashpot matrix of face `f`.
    #[inline]
    pub fn cb_of(&self, f: usize) -> &[f64] {
        &self.cb[f * FACE_PACKED..(f + 1) * FACE_PACKED]
    }

    /// Bytes stored.
    pub fn bytes(&self) -> usize {
        self.cb.len() * 8 + self.faces.len() * 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_mesh::{box_tet10, extract_boundary, BoxGrid};
    use hetsolve_sparse::sym_matvec_add;

    fn setup() -> (TetMesh10, BoundarySet, Material) {
        let m = box_tet10(&BoxGrid::new(2, 2, 2, 1.0, 1.0, 1.0));
        let b = extract_boundary(&m, 1.0, 1.0, 1.0, 1e-9);
        (m, b, Material::new(1800.0, 200.0, 700.0))
    }

    #[test]
    fn dashpot_is_positive_semidefinite() {
        let (_, b, mat) = setup();
        let f = b.faces_of_kind(BoundaryKind::Side).next().unwrap();
        let c = dashpot_matrix(f, &mat);
        for seed in 1..6u64 {
            let v: Vec<f64> = (0..FACE_NDOF)
                .map(|i| {
                    let h = (i as u64 + 1)
                        .wrapping_mul(seed)
                        .wrapping_mul(6364136223846793005);
                    (h % 211) as f64 / 105.0 - 1.0
                })
                .collect();
            let mut y = vec![0.0; FACE_NDOF];
            sym_matvec_add(&c, &v, &mut y, FACE_NDOF);
            let q: f64 = y.iter().zip(&v).map(|(a, b)| a * b).sum();
            assert!(q >= -1e-10, "x^T C x = {q}");
        }
    }

    #[test]
    fn normal_rigid_motion_gets_rho_vp_area() {
        // v = n (rigid unit motion along the normal): total reaction force
        // along n is rho * Vp * area.
        let (_, b, mat) = setup();
        let f = b.faces_of_kind(BoundaryKind::Side).next().unwrap();
        let c = dashpot_matrix(f, &mat);
        let n = f.normal;
        let mut v = vec![0.0; FACE_NDOF];
        for i in 0..6 {
            v[3 * i] = n[0];
            v[3 * i + 1] = n[1];
            v[3 * i + 2] = n[2];
        }
        let mut y = vec![0.0; FACE_NDOF];
        sym_matvec_add(&c, &v, &mut y, FACE_NDOF);
        let total: f64 = y.iter().zip(&v).map(|(a, b)| a * b).sum();
        let expect = mat.rho * mat.vp * f.area;
        assert!(
            (total - expect).abs() < 1e-9 * expect,
            "{total} vs {expect}"
        );
    }

    #[test]
    fn tangential_rigid_motion_gets_rho_vs_area() {
        let (_, b, mat) = setup();
        let f = b.faces_of_kind(BoundaryKind::Side).next().unwrap();
        let c = dashpot_matrix(f, &mat);
        // build a tangent: normal is axis-aligned on the box sides
        let n = Vec3::from_array(f.normal);
        let t = if n.x.abs() > 0.5 {
            Vec3::new(0.0, 1.0, 0.0)
        } else {
            Vec3::new(1.0, 0.0, 0.0)
        };
        assert!(n.dot(t).abs() < 1e-12);
        let mut v = vec![0.0; FACE_NDOF];
        for i in 0..6 {
            v[3 * i] = t.x;
            v[3 * i + 1] = t.y;
            v[3 * i + 2] = t.z;
        }
        let mut y = vec![0.0; FACE_NDOF];
        sym_matvec_add(&c, &v, &mut y, FACE_NDOF);
        let total: f64 = y.iter().zip(&v).map(|(a, b)| a * b).sum();
        let expect = mat.rho * mat.vs * f.area;
        assert!(
            (total - expect).abs() < 1e-9 * expect,
            "{total} vs {expect}"
        );
    }

    #[test]
    fn compute_covers_all_side_faces() {
        let (m, b, _) = setup();
        let mats = vec![
            Material::new(1800.0, 200.0, 700.0),
            Material::new(2100.0, 800.0, 2000.0),
        ];
        let fd = FaceDashpots::compute(&m, &b, &mats);
        assert_eq!(fd.n_faces(), b.faces_of_kind(BoundaryKind::Side).count());
        assert_eq!(fd.cb.len(), fd.n_faces() * FACE_PACKED);
        assert!(fd.bytes() > 0);
    }
}
