//! Quadrature rules on the reference tetrahedron and reference triangle.
//!
//! Points are given in barycentric coordinates; weights are relative to the
//! simplex measure (they sum to 1) and must be multiplied by the element
//! volume/area. All rules have strictly positive weights so that consistent
//! mass and dashpot matrices stay positive (semi-)definite.

/// A quadrature point on the reference tetrahedron: 4 barycentric
/// coordinates plus a relative weight.
#[derive(Debug, Clone, Copy)]
pub struct TetQp {
    pub l: [f64; 4],
    pub w: f64,
}

/// 4-point rule, exact for polynomials of total degree ≤ 2.
/// Used for stiffness integrands (∇N·∇N is degree 2 on straight tets).
pub fn tet_rule_deg2() -> Vec<TetQp> {
    let a = 0.585_410_196_624_968_5; // (5 + 3*sqrt(5)) / 20
    let b = 0.138_196_601_125_010_5; // (5 - sqrt(5)) / 20
    let w = 0.25;
    (0..4)
        .map(|i| {
            let mut l = [b; 4];
            l[i] = a;
            TetQp { l, w }
        })
        .collect()
}

/// 14-point rule, exact for polynomials of total degree ≤ 5, all weights
/// positive. Used for mass integrands (N·N is degree 4).
pub fn tet_rule_deg5() -> Vec<TetQp> {
    let mut qps = Vec::with_capacity(14);
    // orbit 1: (a, b, b, b), 4 permutations
    let a1 = 0.067_342_242_210_098_3;
    let b1 = 0.310_885_919_263_300_5;
    let w1 = 0.112_687_925_718_015_5;
    for i in 0..4 {
        let mut l = [b1; 4];
        l[i] = a1;
        qps.push(TetQp { l, w: w1 });
    }
    // orbit 2: (a, b, b, b), 4 permutations
    let a2 = 0.721_794_249_067_326_3;
    let b2 = 0.092_735_250_310_891_2;
    let w2 = 0.073_493_043_116_361_95;
    for i in 0..4 {
        let mut l = [b2; 4];
        l[i] = a2;
        qps.push(TetQp { l, w: w2 });
    }
    // orbit 3: (a, a, b, b), 6 permutations
    let a3 = 0.454_496_295_874_350_4;
    let b3 = 0.045_503_704_125_649_6;
    let w3 = 0.042_546_020_777_081_47;
    for i in 0..4 {
        for j in (i + 1)..4 {
            let mut l = [b3; 4];
            l[i] = a3;
            l[j] = a3;
            qps.push(TetQp { l, w: w3 });
        }
    }
    qps
}

/// A quadrature point on the reference triangle: 3 barycentric coordinates
/// plus a relative weight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TriQp {
    pub l: [f64; 3],
    pub w: f64,
}

/// 6-point rule, exact for polynomials of total degree ≤ 4, all weights
/// positive. Used for quadratic-triangle dashpot matrices (N·N degree 4).
pub(crate) fn tri_rule_deg4() -> Vec<TriQp> {
    let mut qps = Vec::with_capacity(6);
    let a1 = 0.445_948_490_915_965;
    let w1 = 0.223_381_589_678_011;
    let a2 = 0.091_576_213_509_771;
    let w2 = 0.109_951_743_655_322;
    for (a, w) in [(a1, w1), (a2, w2)] {
        for i in 0..3 {
            let mut l = [a; 3];
            l[i] = 1.0 - 2.0 * a;
            qps.push(TriQp { l, w });
        }
    }
    qps
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ∫ L1^p L2^q L3^r L4^s dV over the reference tet (volume 1/6... here
    /// relative measure 1) = p! q! r! s! 3! / (p+q+r+s+3)!
    fn tet_monomial_exact(p: u32, q: u32, r: u32, s: u32) -> f64 {
        fn fact(n: u32) -> f64 {
            (1..=n).map(|k| k as f64).product()
        }
        fact(p) * fact(q) * fact(r) * fact(s) * fact(3) / fact(p + q + r + s + 3)
    }

    fn tet_integrate(rule: &[TetQp], p: u32, q: u32, r: u32, s: u32) -> f64 {
        rule.iter()
            .map(|qp| {
                qp.w * qp.l[0].powi(p as i32)
                    * qp.l[1].powi(q as i32)
                    * qp.l[2].powi(r as i32)
                    * qp.l[3].powi(s as i32)
            })
            .sum()
    }

    #[test]
    fn tet_deg2_weights_sum_to_one() {
        let s: f64 = tet_rule_deg2().iter().map(|q| q.w).sum();
        assert!((s - 1.0).abs() < 1e-14);
    }

    #[test]
    fn tet_deg5_weights_sum_to_one() {
        let s: f64 = tet_rule_deg5().iter().map(|q| q.w).sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(tet_rule_deg5().len(), 14);
    }

    #[test]
    fn tet_deg2_exact_to_degree_2() {
        let rule = tet_rule_deg2();
        for (p, q, r, s) in [
            (0, 0, 0, 0),
            (1, 0, 0, 0),
            (2, 0, 0, 0),
            (1, 1, 0, 0),
            (0, 1, 1, 0),
        ] {
            let num = tet_integrate(&rule, p, q, r, s);
            let ex = tet_monomial_exact(p, q, r, s);
            assert!(
                (num - ex).abs() < 1e-14,
                "L^({p},{q},{r},{s}): {num} vs {ex}"
            );
        }
    }

    #[test]
    fn tet_deg5_exact_to_degree_5() {
        let rule = tet_rule_deg5();
        // exhaustively test all monomials of total degree <= 5
        for p in 0..=5u32 {
            for q in 0..=(5 - p) {
                for r in 0..=(5 - p - q) {
                    for s in 0..=(5 - p - q - r) {
                        let num = tet_integrate(&rule, p, q, r, s);
                        let ex = tet_monomial_exact(p, q, r, s);
                        assert!(
                            (num - ex).abs() < 1e-12,
                            "L^({p},{q},{r},{s}): {num} vs {ex}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tet_deg5_not_exact_at_degree_6() {
        // sanity: the rule must NOT integrate L1^6 exactly (otherwise the
        // exactness test above proves nothing).
        let rule = tet_rule_deg5();
        let num = tet_integrate(&rule, 6, 0, 0, 0);
        let ex = tet_monomial_exact(6, 0, 0, 0);
        assert!((num - ex).abs() > 1e-9);
    }

    /// ∫ L1^p L2^q L3^r dA over the reference triangle (relative measure) =
    /// p! q! r! 2! / (p+q+r+2)!
    fn tri_monomial_exact(p: u32, q: u32, r: u32) -> f64 {
        fn fact(n: u32) -> f64 {
            (1..=n).map(|k| k as f64).product()
        }
        fact(p) * fact(q) * fact(r) * fact(2) / fact(p + q + r + 2)
    }

    #[test]
    fn tri_deg4_exact_to_degree_4() {
        let rule = tri_rule_deg4();
        let s: f64 = rule.iter().map(|q| q.w).sum();
        assert!((s - 1.0).abs() < 1e-12);
        for p in 0..=4u32 {
            for q in 0..=(4 - p) {
                for r in 0..=(4 - p - q) {
                    let num: f64 = rule
                        .iter()
                        .map(|qp| {
                            qp.w * qp.l[0].powi(p as i32)
                                * qp.l[1].powi(q as i32)
                                * qp.l[2].powi(r as i32)
                        })
                        .sum();
                    let ex = tri_monomial_exact(p, q, r);
                    assert!((num - ex).abs() < 1e-12, "L^({p},{q},{r}): {num} vs {ex}");
                }
            }
        }
    }

    #[test]
    fn all_weights_positive() {
        assert!(tet_rule_deg2().iter().all(|q| q.w > 0.0));
        assert!(tet_rule_deg5().iter().all(|q| q.w > 0.0));
        assert!(tri_rule_deg4().iter().all(|q| q.w > 0.0));
    }
}
