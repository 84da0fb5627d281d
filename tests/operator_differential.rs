//! One operator, every path to it (ROADMAP 6(b)): `y = A x` through the
//! compact matrix-free block sweep, the assembled `Bcrs3`, the cached
//! element matrices and the 2/4/7-way partitioned operator, on the three
//! bench meshes (945 / 9,537 / 55,539 DOF).
//!
//! * The block sweep against itself is *bitwise*: `parallel` on or off,
//!   pools of 1–4 threads, and every lane of the fused `r = 4` apply against
//!   the `r = 1` apply of that lane's vector — the summation order is a
//!   function of the mesh and one constant (DESIGN.md §19).
//! * The other paths sum the same element contributions in other orders
//!   (or integrate the element matrices another way), so they agree to
//!   rounding: 1e-12 of the largest entry of `y`.

use hetsolve::core::{Backend, PartitionedProblem};
use hetsolve::fem::FemProblem;
use hetsolve::mesh::{color_elements, GroundModelSpec, InterfaceShape};
use hetsolve::pool::Pool;
use hetsolve::sparse::{EbeData, EbeOperator, LinearOperator, MultiOperator};

const R: usize = 4;

fn lane_vector(n: usize, lane: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (0.37 * i as f64 + 0.9 * lane as f64).sin())
        .collect()
}

fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!("{what}: slot {i} is {:e}, not {:e}", got[i], want[i]);
    }
}

fn assert_to_rounding(got: &[f64], want: &[f64], what: &str) {
    let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(scale > 0.0);
    let worst = got
        .iter()
        .zip(want)
        .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
    assert!(
        worst <= 1e-12 * scale,
        "{what}: off by {:e} of the largest entry",
        worst / scale
    );
}

fn differential(nx: usize, ny: usize, nz: usize, shape: InterfaceShape, dofs: usize) {
    let spec = GroundModelSpec::paper_like(nx, ny, nz, shape);
    let b = Backend::new(FemProblem::paper_like(&spec), true, true);
    let n = b.n_dofs();
    assert_eq!(n, dofs);

    // the reference: the sweep walked by the calling thread alone
    let lanes: Vec<Vec<f64>> = (0..R).map(|c| lane_vector(n, c)).collect();
    let mut serial = b.ebe_a(1);
    serial.parallel = false;
    let want: Vec<Vec<f64>> = lanes
        .iter()
        .map(|x| {
            let mut y = vec![0.0; n];
            serial.apply(x, &mut y);
            y
        })
        .collect();
    let x4: Vec<f64> = (0..n * R).map(|k| lanes[k % R][k / R]).collect();
    let want4: Vec<f64> = (0..n * R).map(|k| want[k % R][k / R]).collect();

    // the sweep against itself, bitwise
    let mut serial4 = b.ebe_a(R);
    serial4.parallel = false;
    let mut y4 = vec![f64::NAN; n * R];
    serial4.apply_multi(&x4, &mut y4);
    assert_bitwise(&y4, &want4, "r = 4 against r = 1, lane by lane");
    for threads in 1..=4 {
        Pool::with_threads(threads).install(|| {
            let mut y = vec![f64::NAN; n];
            b.ebe_a(1).apply(&lanes[0], &mut y);
            assert_bitwise(&y, &want[0], &format!("r = 1 on {threads} threads"));
            let mut y4 = vec![f64::NAN; n * R];
            b.ebe_a(R).apply_multi(&x4, &mut y4);
            assert_bitwise(&y4, &want4, &format!("r = 4 on {threads} threads"));
        });
    }

    // the other paths, to rounding
    let (x, want) = (&lanes[0], &want[0]);
    let mut y = vec![0.0; n];
    b.crs_a().apply(x, &mut y);
    assert_to_rounding(&y, want, "assembled Bcrs3");

    let (p, a) = (&b.problem, b.problem.a_coeffs());
    let coloring = color_elements(&p.model.mesh);
    let cached = EbeData {
        n_nodes: p.n_nodes(),
        elems: &p.model.mesh.elems,
        me: &p.elements().me,
        ke: &p.elements().ke,
        faces: &p.dashpots.faces,
        cb: &p.dashpots.cb,
        c_m: a.c_m,
        c_k: a.c_k,
        c_b: a.c_b,
        fixed: &b.fixed,
    };
    EbeOperator::new(cached, &coloring, true).apply(x, &mut y);
    assert_to_rounding(&y, want, "cached element matrices");

    for parts in [2, 4, 7] {
        PartitionedProblem::new(p, parts, true).apply_global(x, &mut y);
        assert_to_rounding(&y, want, &format!("{parts}-way partitioned"));
    }
}

#[test]
fn operator_paths_agree_at_945_dof() {
    differential(4, 3, 2, InterfaceShape::Stratified, 945);
}

#[test]
fn operator_paths_agree_at_9537_dof() {
    differential(8, 8, 5, InterfaceShape::Basin, 9537);
}

#[test]
fn operator_paths_agree_at_55539_dof() {
    differential(16, 16, 8, InterfaceShape::Stratified, 55539);
}
