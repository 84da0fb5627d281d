//! Property-based tests of the FEM substrate: element-matrix invariants on
//! random tetrahedron shapes and Newmark recurrence identities for random
//! parameters.

use hetsolve_fem::{
    mass_matrix, stiffness_matrix, tet_bary_gradients, tet_rule_deg2, tet_rule_deg5, Newmark, NDOF,
    PACKED,
};
use hetsolve_mesh::{Material, Vec3, TET_EDGES};
use hetsolve_sparse::sym_matvec_add;
use proptest::prelude::*;

/// A reasonably-shaped random tetrahedron: unit tet perturbed by bounded
/// vertex offsets (keeps the volume positive and conditioning sane).
fn tet10_from_offsets(off: [[f64; 3]; 4]) -> Option<[Vec3; 10]> {
    let base = [
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        Vec3::new(0.0, 0.0, 1.0),
    ];
    let mut v = [Vec3::ZERO; 4];
    for i in 0..4 {
        v[i] = base[i] + Vec3::new(off[i][0], off[i][1], off[i][2]);
    }
    let (_, vol) = tet_bary_gradients(&v);
    if vol < 0.02 {
        return None;
    }
    let mut x = [Vec3::ZERO; 10];
    x[..4].copy_from_slice(&v);
    for (k, &(a, b)) in TET_EDGES.iter().enumerate() {
        x[4 + k] = v[a].midpoint(v[b]);
    }
    Some(x)
}

fn offset_strategy() -> impl Strategy<Value = [[f64; 3]; 4]> {
    proptest::array::uniform4(proptest::array::uniform3(-0.2f64..0.2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Stiffness annihilates all 6 rigid-body modes on any element shape.
    #[test]
    fn rigid_modes_in_null_space(off in offset_strategy()) {
        let Some(x) = tet10_from_offsets(off) else { return Ok(()); };
        let mat = Material::new(1800.0, 200.0, 700.0);
        let mut k = vec![0.0; PACKED];
        stiffness_matrix(&x, &mat, &tet_rule_deg2(), &mut k);
        let scale: f64 = k.iter().map(|v| v * v).sum::<f64>().sqrt();
        // translations
        for a in 0..3 {
            let v: Vec<f64> = (0..NDOF).map(|d| if d % 3 == a { 1.0 } else { 0.0 }).collect();
            let mut y = vec![0.0; NDOF];
            sym_matvec_add(&k, &v, &mut y, NDOF);
            let n: f64 = y.iter().map(|t| t * t).sum::<f64>().sqrt();
            prop_assert!(n < 1e-9 * scale, "translation {a}: |Kv| = {n}");
        }
        // rotations
        for w in [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), Vec3::new(0.0, 0.0, 1.0)] {
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
            prop_assert!(n < 1e-8 * scale, "rotation: |Kv| = {n}");
        }
    }

    /// Total mass equals rho * V on any element shape, any density.
    #[test]
    fn mass_conservation(off in offset_strategy(), rho in 500.0f64..5000.0) {
        let Some(x) = tet10_from_offsets(off) else { return Ok(()); };
        let mut m = vec![0.0; PACKED];
        mass_matrix(&x, rho, &tet_rule_deg5(), &mut m);
        let verts = [x[0], x[1], x[2], x[3]];
        let (_, vol) = tet_bary_gradients(&verts);
        for a in 0..3 {
            let ones: Vec<f64> = (0..NDOF).map(|d| if d % 3 == a { 1.0 } else { 0.0 }).collect();
            let mut y = vec![0.0; NDOF];
            sym_matvec_add(&m, &ones, &mut y, NDOF);
            let total: f64 = y.iter().zip(&ones).map(|(u, v)| u * v).sum();
            prop_assert!((total - rho * vol).abs() < 1e-8 * rho * vol);
        }
    }

    /// Strain energy is non-negative for arbitrary nodal displacements
    /// (positive semi-definiteness on random shapes).
    #[test]
    fn stiffness_psd(off in offset_strategy(), seed in any::<u64>()) {
        let Some(x) = tet10_from_offsets(off) else { return Ok(()); };
        let mat = Material::new(2000.0, 400.0, 1000.0);
        let mut k = vec![0.0; PACKED];
        stiffness_matrix(&x, &mat, &tet_rule_deg2(), &mut k);
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) % 1000) as f64 / 500.0 - 1.0
        };
        let v: Vec<f64> = (0..NDOF).map(|_| next()).collect();
        let mut y = vec![0.0; NDOF];
        sym_matvec_add(&k, &v, &mut y, NDOF);
        let q: f64 = y.iter().zip(&v).map(|(a, b)| a * b).sum();
        let scale: f64 = k.iter().map(|t| t * t).sum::<f64>().sqrt();
        prop_assert!(q > -1e-9 * scale, "x^T K x = {q}");
    }

    /// The Newmark advance satisfies the trapezoidal identities for any
    /// dt and states: u' - u = dt/2 (v + v'), v' - v = dt/2 (a + a').
    #[test]
    fn newmark_trapezoid_identities(
        dt in 1e-5f64..1.0,
        u_old in proptest::collection::vec(-10.0f64..10.0, 3),
        du in proptest::collection::vec(-1.0f64..1.0, 3),
        v_old in proptest::collection::vec(-5.0f64..5.0, 3),
        a_old in proptest::collection::vec(-5.0f64..5.0, 3),
    ) {
        let nm = Newmark::new(dt);
        let u_new: Vec<f64> = u_old.iter().zip(&du).map(|(u, d)| u + d).collect();
        let mut v = v_old.clone();
        let mut a = a_old.clone();
        nm.advance(&u_new, &u_old, &mut v, &mut a);
        for i in 0..3 {
            let lhs = u_new[i] - u_old[i];
            let rhs = 0.5 * dt * (v_old[i] + v[i]);
            prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
            let lhs2 = v[i] - v_old[i];
            let rhs2 = 0.5 * dt * (a_old[i] + a[i]);
            prop_assert!((lhs2 - rhs2).abs() < 1e-7 * (1.0 + lhs2.abs()).max(a[i].abs() * dt));
        }
    }

    /// rhs_aux and the system coefficients are consistent: for the exact
    /// next state of a force-free single DOF, A u' == M m_aux + C c_aux.
    #[test]
    fn newmark_rhs_consistency(
        dt in 1e-4f64..0.5,
        m in 0.5f64..10.0,
        c in 0.0f64..2.0,
        k in 0.5f64..50.0,
        u0 in -2.0f64..2.0,
        v0 in -2.0f64..2.0,
    ) {
        let nm = Newmark::new(dt);
        let a0 = -(c * v0 + k * u0) / m;
        let (u, v, a) = (vec![u0], vec![v0], vec![a0]);
        let mut m_aux = vec![0.0];
        let mut c_aux = vec![0.0];
        nm.rhs_aux(&u, &v, &a, &mut m_aux, &mut c_aux);
        let rhs = m * m_aux[0] + c * c_aux[0];
        let a_sys = nm.cm * m + nm.cc * c + k;
        let u_new = rhs / a_sys;
        // advancing and re-evaluating the dynamic equation at t_new must
        // balance: m a' + c v' + k u' ≈ 0
        let mut vv = vec![v0];
        let mut aa = vec![a0];
        nm.advance(&[u_new], &u, &mut vv, &mut aa);
        let resid = m * aa[0] + c * vv[0] + k * u_new;
        let scale = (m * aa[0].abs() + c * vv[0].abs() + k * u_new.abs()).max(1e-12);
        prop_assert!(resid.abs() < 1e-8 * scale, "dynamic residual {resid}");
    }
}
