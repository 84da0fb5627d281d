//! Safety-net tests for the color-parallel EBE scatter (see
//! `hetsolve_sparse::parcheck` and DESIGN.md "Safety argument"):
//!
//! * property test: on random small meshes with random operator data, the
//!   colored scatter agrees with the sequential element-loop reference,
//!   and repeated colored applies are bit-identical (the scatter order is
//!   fully determined by the coloring, never by thread timing);
//! * an intentionally corrupted coloring is rejected at operator
//!   construction by the mesh-side validator;
//! * a corrupted coloring smuggled *past* the constructor (struct
//!   literal) is caught by the parcheck claim table at the exact racing
//!   write — the dynamic half of the safety story.

use hetsolve_mesh::{box_tet10, color_elements, BoxGrid, Coloring};
use hetsolve_sparse::ebe::{EbeData, EbeOperator};
use hetsolve_sparse::op::{LinearOperator, MultiOperator};
use proptest::prelude::*;

const TP: usize = 465;
const FP: usize = 171;

struct Fixture {
    n_nodes: usize,
    elems: Vec<[u32; 10]>,
    me: Vec<f64>,
    ke: Vec<f64>,
    faces: Vec<[u32; 6]>,
    cb: Vec<f64>,
    fixed: Vec<bool>,
    coloring: Coloring,
}

/// Deterministic pseudo-random fixture over a real `nx × ny × nz` box mesh;
/// matrix values are arbitrary (the tests compare two applies of the same
/// operator, not physics).
fn fixture(nx: usize, ny: usize, nz: usize, seed: u64, with_fixed: bool) -> Fixture {
    let mesh = box_tet10(&BoxGrid::new(nx, ny, nz, 1.0, 1.0, 1.0));
    let coloring = color_elements(&mesh);
    let ne = mesh.n_elems();
    let n_nodes = mesh.n_nodes();
    let mut s = seed | 1;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) % 1000) as f64 / 500.0 - 1.0
    };
    let me: Vec<f64> = (0..ne * TP).map(|_| next()).collect();
    let ke: Vec<f64> = (0..ne * TP).map(|_| next()).collect();
    // fake dashpot faces over the first few elements' corner/edge nodes
    let n_faces = ne.min(3);
    let faces: Vec<[u32; 6]> = (0..n_faces)
        .map(|e| {
            let el = &mesh.elems[e];
            [el[0], el[1], el[2], el[4], el[5], el[6]]
        })
        .collect();
    let cb: Vec<f64> = (0..n_faces * FP).map(|_| next()).collect();
    let fixed: Vec<bool> = if with_fixed {
        (0..3 * n_nodes).map(|d| d % 11 == 0).collect()
    } else {
        Vec::new()
    };
    Fixture {
        n_nodes,
        elems: mesh.elems,
        me,
        ke,
        faces,
        cb,
        fixed,
        coloring,
    }
}

fn data(fx: &Fixture) -> EbeData<'_> {
    EbeData {
        n_nodes: fx.n_nodes,
        elems: &fx.elems,
        me: &fx.me,
        ke: &fx.ke,
        faces: &fx.faces,
        cb: &fx.cb,
        c_m: 1.5,
        c_k: 0.75,
        c_b: 0.25,
        fixed: &fx.fixed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Colored scatter ≡ sequential element loop on random meshes. The two
    /// sum the same per-element contributions in different orders, so
    /// agreement is to rounding (tight relative tolerance); the colored
    /// apply itself must be bit-for-bit reproducible run to run.
    #[test]
    fn colored_scatter_matches_serial_reference(
        nx in 1usize..=3,
        ny in 1usize..=3,
        nz in 1usize..=2,
        seed in any::<u64>(),
        with_fixed in any::<bool>(),
    ) {
        let fx = fixture(nx, ny, nz, seed, with_fixed);
        let seq = EbeOperator::new(data(&fx), &fx.coloring, false);
        let par = EbeOperator::new(data(&fx), &fx.coloring, true);
        let n = seq.n();
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) + (seed % 97) as f64).sin()).collect();
        let mut y_seq = vec![0.0; n];
        let mut y_par = vec![0.0; n];
        let mut y_par2 = vec![0.0; n];
        seq.apply(&x, &mut y_seq);
        par.apply(&x, &mut y_par);
        par.apply(&x, &mut y_par2);
        let scale = y_seq.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            prop_assert!(
                (y_par[i] - y_seq[i]).abs() <= 1e-12 * scale,
                "dof {} differs: colored {} vs serial {}", i, y_par[i], y_seq[i]
            );
            prop_assert_eq!(y_par[i].to_bits(), y_par2[i].to_bits(),
                "colored apply not deterministic at dof {}", i);
        }
    }

    /// Multi-RHS colored scatter ≡ R independent single-RHS applies.
    #[test]
    fn fused_rhs_matches_single(
        seed in any::<u64>(),
        r_pick in 0usize..=2,
    ) {
        let r = [2usize, 4, 8][r_pick];
        let fx = fixture(2, 2, 2, seed, true);
        let single = EbeOperator::new(data(&fx), &fx.coloring, false);
        let multi = EbeOperator::new(data(&fx), &fx.coloring, true).fused(r);
        let n = single.n();
        let mut x = vec![0.0; n * r];
        for c in 0..r {
            for i in 0..n {
                x[i * r + c] = ((i * (c + 2)) as f64 * 0.31).cos();
            }
        }
        let mut y = vec![0.0; n * r];
        multi.apply_multi(&x, &mut y);
        for c in 0..r {
            let xc: Vec<f64> = (0..n).map(|i| x[i * r + c]).collect();
            let mut yc = vec![0.0; n];
            single.apply(&xc, &mut yc);
            let scale = yc.iter().fold(1e-300f64, |m, v| m.max(v.abs()));
            for i in 0..n {
                prop_assert!(
                    (y[i * r + c] - yc[i]).abs() <= 1e-10 * scale,
                    "r={} case {} dof {}", r, c, i
                );
            }
        }
    }
}

/// Merge the first two color groups into one, producing a coloring whose
/// group 0 contains node-sharing elements (all Kuhn tets of one cell share
/// the cell diagonal).
fn corrupted_coloring() -> (Fixture, Coloring) {
    let fx = fixture(1, 1, 1, 42, false);
    let mut bad = fx.coloring.clone();
    assert!(bad.groups.len() >= 2, "need at least two colors to corrupt");
    let moved = bad.groups.remove(1);
    for &e in &moved {
        bad.color[e as usize] = 0;
    }
    bad.groups[0].extend(moved);
    bad.groups[0].sort_unstable();
    bad.n_colors = bad.groups.len() as u32;
    (fx, bad)
}

/// The constructor's mesh-side validator rejects a broken coloring before
/// any unsafe scatter can run.
#[test]
#[should_panic(expected = "would race")]
fn constructor_rejects_corrupted_coloring() {
    let (fx, bad) = corrupted_coloring();
    let _ = EbeOperator::new(data(&fx), &bad, true);
}

/// A broken coloring smuggled past the constructor (struct literal) is
/// caught by the parcheck claim table at the racing write, naming the
/// offending element pair. This is the dynamic backstop: it fires even for
/// colorings no static check ever saw. Racecheck is active here because
/// `cargo test` builds with `debug_assertions`.
#[test]
#[should_panic(expected = "parcheck: race on output slot")]
fn racecheck_catches_corrupted_coloring_past_constructor() {
    let (fx, bad) = corrupted_coloring();
    let op = EbeOperator {
        data: data(&fx),
        coloring: &bad,
        face_groups: Vec::new(),
        parallel: true,
        r: 1,
    };
    let n = 3 * fx.n_nodes;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut y = vec![0.0; n];
    op.apply(&x, &mut y);
}
