//! Shape functions for the 10-node tetrahedron (Tet10) and the 6-node
//! triangle (Tri6), in barycentric coordinates.
//!
//! Node ordering matches `hetsolve-mesh`:
//!
//! * Tet10: vertices 0–3 ↔ barycentric L0–L3; mid-edge nodes 4=(0,1),
//!   5=(1,2), 6=(0,2), 7=(0,3), 8=(1,3), 9=(2,3).
//! * Tri6: vertices 0–2 ↔ L0–L2; mid-edge nodes 3=(0,1), 4=(1,2), 5=(2,0).

use hetsolve_mesh::Vec3;
use hetsolve_mesh::TET_EDGES;

/// Tet10 shape function values at barycentric point `l`.
pub(crate) fn tet10_shape(l: [f64; 4]) -> [f64; 10] {
    let mut n = [0.0; 10];
    for i in 0..4 {
        n[i] = l[i] * (2.0 * l[i] - 1.0);
    }
    for (k, &(a, b)) in TET_EDGES.iter().enumerate() {
        n[4 + k] = 4.0 * l[a] * l[b];
    }
    n
}

/// Gradients of the Tet10 shape functions with respect to the barycentric
/// coordinates, contracted with given gradients `dl[i]` of the barycentric
/// coordinates themselves (i.e. returns ∇Nᵢ in physical space when `dl` are
/// the physical barycentric gradients).
pub(crate) fn tet10_grad(l: [f64; 4], dl: &[Vec3; 4]) -> [Vec3; 10] {
    let mut g = [Vec3::ZERO; 10];
    for i in 0..4 {
        g[i] = dl[i] * (4.0 * l[i] - 1.0);
    }
    for (k, &(a, b)) in TET_EDGES.iter().enumerate() {
        g[4 + k] = 4.0 * (dl[a] * l[b] + dl[b] * l[a]);
    }
    g
}

/// Physical gradients of the barycentric coordinates of a straight-sided
/// tetrahedron with vertices `x`, together with its (signed) volume.
///
/// For vertex i with opposite face (j,k,l): ∇Lᵢ = (face normal) / (3V) with
/// orientation chosen so ∇Lᵢ points from the face toward vertex i.
pub fn tet_bary_gradients(x: &[Vec3; 4]) -> ([Vec3; 4], f64) {
    let v6 = (x[1] - x[0]).cross(x[2] - x[0]).dot(x[3] - x[0]);
    let vol = v6 / 6.0;
    // Opposite faces (ordered so the cross product points inward, toward i).
    let d0 = (x[3] - x[1]).cross(x[2] - x[1]) / v6;
    let d1 = (x[2] - x[0]).cross(x[3] - x[0]) / v6;
    let d2 = (x[3] - x[0]).cross(x[1] - x[0]) / v6;
    let d3 = (x[1] - x[0]).cross(x[2] - x[0]) / v6;
    ([d0, d1, d2, d3], vol)
}

/// Tri6 shape function values at barycentric point `l`.
pub(crate) fn tri6_shape(l: [f64; 3]) -> [f64; 6] {
    [
        l[0] * (2.0 * l[0] - 1.0),
        l[1] * (2.0 * l[1] - 1.0),
        l[2] * (2.0 * l[2] - 1.0),
        4.0 * l[0] * l[1],
        4.0 * l[1] * l[2],
        4.0 * l[2] * l[0],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quad::{tet_rule_deg2, tet_rule_deg5};

    fn unit_tet() -> [Vec3; 4] {
        [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ]
    }

    /// Barycentric coordinates of the 10 conventional nodes.
    fn node_bary() -> [[f64; 4]; 10] {
        let mut b = [[0.0; 4]; 10];
        for i in 0..4 {
            b[i][i] = 1.0;
        }
        for (k, &(a, c)) in TET_EDGES.iter().enumerate() {
            b[4 + k][a] = 0.5;
            b[4 + k][c] = 0.5;
        }
        b
    }

    #[test]
    fn kronecker_delta_property() {
        let nodes = node_bary();
        for (i, &l) in nodes.iter().enumerate() {
            let n = tet10_shape(l);
            for (j, &nj) in n.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((nj - expect).abs() < 1e-14, "N{j} at node {i} = {nj}");
            }
        }
    }

    #[test]
    fn partition_of_unity() {
        for qp in tet_rule_deg5() {
            let n = tet10_shape(qp.l);
            let s: f64 = n.iter().sum();
            assert!((s - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn gradients_sum_to_zero() {
        let (dl, _) = tet_bary_gradients(&unit_tet());
        for qp in tet_rule_deg2() {
            let g = tet10_grad(qp.l, &dl);
            let s = g.iter().fold(Vec3::ZERO, |acc, &v| acc + v);
            assert!(s.norm() < 1e-13);
        }
    }

    #[test]
    fn bary_gradients_of_unit_tet() {
        let (dl, vol) = tet_bary_gradients(&unit_tet());
        assert!((vol - 1.0 / 6.0).abs() < 1e-15);
        // L1 = x => grad = (1,0,0), etc.; L0 = 1-x-y-z.
        assert!((dl[1] - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-14);
        assert!((dl[2] - Vec3::new(0.0, 1.0, 0.0)).norm() < 1e-14);
        assert!((dl[3] - Vec3::new(0.0, 0.0, 1.0)).norm() < 1e-14);
        assert!((dl[0] - Vec3::new(-1.0, -1.0, -1.0)).norm() < 1e-14);
    }

    #[test]
    fn bary_gradients_delta_property() {
        // dLi/dxj evaluated by finite differences of barycentric coordinates.
        let x = [
            Vec3::new(0.2, 0.1, -0.3),
            Vec3::new(1.4, 0.3, 0.1),
            Vec3::new(0.3, 1.2, 0.2),
            Vec3::new(0.4, 0.2, 1.5),
        ];
        let (dl, vol) = tet_bary_gradients(&x);
        assert!(vol > 0.0);
        // Li is affine with Li(xj) = delta_ij, so dl[i] . (x[j] - x[k]) must
        // equal Li(xj) - Li(xk).
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    let lhs = dl[i].dot(x[j] - x[k]);
                    let rhs = (i == j) as i32 as f64 - (i == k) as i32 as f64;
                    assert!((lhs - rhs).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn linear_field_reproduced_exactly() {
        // u(x) = a + b.x must be interpolated exactly by Tet10.
        let x = unit_tet();
        let (dl, _) = tet_bary_gradients(&x);
        let b = Vec3::new(1.5, -2.0, 0.7);
        let field = |p: Vec3| 3.0 + b.dot(p);
        // nodal values at all 10 nodes
        let bary = node_bary();
        let mut pos10 = [Vec3::ZERO; 10];
        for (n, l) in bary.iter().enumerate() {
            pos10[n] = (0..4).fold(Vec3::ZERO, |acc, i| acc + x[i] * l[i]);
        }
        let vals: Vec<f64> = pos10.iter().map(|&p| field(p)).collect();
        for qp in tet_rule_deg5() {
            let n = tet10_shape(qp.l);
            let p = (0..4).fold(Vec3::ZERO, |acc, i| acc + x[i] * qp.l[i]);
            let interp: f64 = n.iter().zip(&vals).map(|(ni, vi)| ni * vi).sum();
            assert!((interp - field(p)).abs() < 1e-12);
            // gradient must equal b
            let g = tet10_grad(qp.l, &dl);
            let grad = g
                .iter()
                .zip(&vals)
                .fold(Vec3::ZERO, |acc, (gi, &vi)| acc + *gi * vi);
            assert!((grad - b).norm() < 1e-12);
        }
    }

    #[test]
    fn quadratic_field_reproduced_exactly() {
        // u(x) = x² is quadratic: Tet10 must reproduce it exactly.
        let x = unit_tet();
        let bary = node_bary();
        let mut vals = [0.0; 10];
        for (n, l) in bary.iter().enumerate() {
            let p = (0..4).fold(Vec3::ZERO, |acc, i| acc + x[i] * l[i]);
            vals[n] = p.x * p.x;
        }
        for qp in tet_rule_deg5() {
            let n = tet10_shape(qp.l);
            let p = (0..4).fold(Vec3::ZERO, |acc, i| acc + x[i] * qp.l[i]);
            let interp: f64 = n.iter().zip(&vals).map(|(ni, vi)| ni * vi).sum();
            assert!((interp - p.x * p.x).abs() < 1e-12);
        }
    }

    #[test]
    fn tri6_kronecker_and_unity() {
        let nodes = [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
        ];
        for (i, &l) in nodes.iter().enumerate() {
            let n = tri6_shape(l);
            for (j, &nj) in n.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((nj - expect).abs() < 1e-14);
            }
        }
        let n = tri6_shape([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
        assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-14);
    }
}
