//! Element-by-Element (EBE) matrix-free operator — the paper's Eq. (2)/(8):
//!
//! `q = Σ_e Pᵉᵀ ( (c_M M_e + c_K K_e) (Pᵉ p) ) + Σ_f Pᶠᵀ ( c_B C_f (Pᶠ p) )`
//!
//! The global matrix is never assembled; each apply gathers the element's 30
//! (or face's 18) entries of `p` (a random access), applies the fused packed
//! symmetric kernel, and scatters back. With `R` fused right-hand sides
//! (Eq. (9), `EBE4` for R=4), each random access transaction serves `R`
//! values, cutting the random traffic per case by `1/R` — the effect the
//! paper measures as a further 1.91× kernel speedup.
//!
//! Parallel scatter uses element coloring: all elements of one color touch
//! disjoint node sets, so a color's scatters are race-free by construction
//! (validated by `mesh::coloring::verify_coloring`) and can run without
//! atomics — the standard strategy of GPU EBE kernels (paper ref. [4]).

use hetsolve_mesh::{validate_groups, Coloring};
use hetsolve_pool as pool;

use crate::dirichlet::FixedMask;
use crate::op::{KernelCounts, LinearOperator, MultiOperator};
use crate::parcheck::{ColorScatter, GROUP_CHUNK};
use crate::sym::{sym2_matvec_add, sym2_matvec_add_multi, sym_matvec_add};

/// Packed sizes.
const TP: usize = 465; // Tet10: 30x30
const FP: usize = 171; // Tri6: 18x18

/// Borrowed EBE data: connectivity + packed element/face matrices with the
/// linear-combination coefficients of the represented operator.
#[derive(Clone)]
pub struct EbeData<'a> {
    pub n_nodes: usize,
    pub elems: &'a [[u32; 10]],
    /// Flat packed M_e (stride 465).
    pub me: &'a [f64],
    /// Flat packed K_e (stride 465).
    pub ke: &'a [f64],
    /// Boundary dashpot faces (may be empty).
    pub faces: &'a [[u32; 6]],
    /// Flat packed C_f (stride 171).
    pub cb: &'a [f64],
    /// Operator = `c_m * M + c_k * K + c_b * C_b`.
    pub c_m: f64,
    pub c_k: f64,
    pub c_b: f64,
    /// Per-DOF Dirichlet mask (empty = unconstrained). Output rows of fixed
    /// DOFs are overwritten with the input value (identity on the fixed
    /// subspace), matching the assembled Dirichlet treatment.
    pub fixed: &'a [bool],
}

impl<'a> EbeData<'a> {
    fn n(&self) -> usize {
        3 * self.n_nodes
    }

    /// The shared Dirichlet semantics (`P A P + (I−P)`): inputs read as
    /// zero on fixed DOFs, outputs get the identity rows back. See
    /// [`crate::dirichlet`].
    fn mask(&self) -> FixedMask<'a> {
        FixedMask::new(self.fixed)
    }

    fn fix_output(&self, x: &[f64], y: &mut [f64]) {
        self.mask().fix_output(x, y);
    }

    fn fix_output_multi(&self, x: &[f64], y: &mut [f64], r: usize) {
        self.mask().fix_output_multi(x, y, r);
    }

    #[inline]
    fn masked(&self, dof: usize, v: f64) -> f64 {
        self.mask().masked(dof, v)
    }
}

/// The cached-matrix EBE operator on `r` interleaved right-hand sides
/// (`EBE-R`; every random access is amortized over the `r` cases). At
/// `r = 1` it is also a [`LinearOperator`]. This is the stored-matrix
/// reference the compact matrix-free kernel (`hetsolve-fem`) is checked
/// against.
pub struct EbeOperator<'a> {
    pub data: EbeData<'a>,
    /// Element coloring (same mesh as `data.elems`).
    pub coloring: &'a Coloring,
    /// Face coloring groups (computed for the dashpot faces).
    pub face_groups: Vec<Vec<u32>>,
    /// Split each color group over the host pool ([`GROUP_CHUNK`] entities
    /// to a chunk; same-color writes are disjoint, so same bits).
    pub parallel: bool,
    /// Fused right-hand sides: 1, 2, 4 or 8.
    pub r: usize,
}

/// Greedy coloring of faces by shared nodes (same invariant as element
/// coloring, for the dashpot scatter).
pub fn color_faces(n_nodes: usize, faces: &[[u32; 6]]) -> Vec<Vec<u32>> {
    let mut node_last: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
    for (f, fc) in faces.iter().enumerate() {
        for &n in fc {
            node_last[n as usize].push(f as u32);
        }
    }
    let mut color = vec![u32::MAX; faces.len()];
    let mut n_colors = 0u32;
    let mut forbidden: Vec<u32> = Vec::new();
    for f in 0..faces.len() {
        for &n in &faces[f] {
            for &o in &node_last[n as usize] {
                let c = color[o as usize];
                if c != u32::MAX {
                    if c as usize >= forbidden.len() {
                        forbidden.resize(c as usize + 1, u32::MAX);
                    }
                    forbidden[c as usize] = f as u32;
                }
            }
        }
        let c = (0..n_colors)
            .find(|&c| forbidden.get(c as usize).copied() != Some(f as u32))
            .unwrap_or_else(|| {
                n_colors += 1;
                n_colors - 1
            });
        color[f] = c;
    }
    let mut groups = vec![Vec::new(); n_colors as usize];
    for (f, &c) in color.iter().enumerate() {
        groups[c as usize].push(f as u32);
    }
    groups
}

impl<'a> EbeOperator<'a> {
    /// The single-RHS operator; widen it with [`EbeOperator::fused`].
    pub fn new(data: EbeData<'a>, coloring: &'a Coloring, parallel: bool) -> Self {
        assert_eq!(
            coloring.color.len(),
            data.elems.len(),
            "coloring does not match mesh"
        );
        // Race-freedom precondition of the colored scatter (see
        // `parcheck`): checked once per operator, O(node incidences).
        if let Err(c) = validate_groups(data.n_nodes, data.elems, &coloring.groups) {
            panic!("EbeOperator::new: element {c}");
        }
        let face_groups = color_faces(data.n_nodes, data.faces);
        if let Err(c) = validate_groups(data.n_nodes, data.faces, &face_groups) {
            panic!("EbeOperator::new: face {c}");
        }
        EbeOperator {
            data,
            coloring,
            face_groups,
            parallel,
            r: 1,
        }
    }

    /// The same operator on `r` fused right-hand sides.
    pub fn fused(mut self, r: usize) -> Self {
        assert!(
            matches!(r, 1 | 2 | 4 | 8),
            "fused RHS count must be 1, 2, 4 or 8 (got {r})"
        );
        self.r = r;
        self
    }

    /// Dimension (number of DOFs) — what both operator traits report.
    pub fn n(&self) -> usize {
        self.data.n()
    }

    /// Diagonal 3×3 blocks of the represented operator (for block-Jacobi),
    /// with identity blocks on fully-fixed nodes.
    pub fn diagonal_blocks(&self) -> Vec<[f64; 9]> {
        let d = &self.data;
        let mut out = vec![[0.0f64; 9]; d.n_nodes];
        let pidx = crate::sym::packed_idx;
        for (e, el) in d.elems.iter().enumerate() {
            let me = &d.me[e * TP..(e + 1) * TP];
            let ke = &d.ke[e * TP..(e + 1) * TP];
            for (k, &n) in el.iter().enumerate() {
                let blk = &mut out[n as usize];
                for a in 0..3 {
                    for b in 0..3 {
                        let p = pidx(3 * k + a, 3 * k + b);
                        blk[3 * a + b] += d.c_m * me[p] + d.c_k * ke[p];
                    }
                }
            }
        }
        for (f, fc) in d.faces.iter().enumerate() {
            let cb = &d.cb[f * FP..(f + 1) * FP];
            for (k, &n) in fc.iter().enumerate() {
                let blk = &mut out[n as usize];
                for a in 0..3 {
                    for b in 0..3 {
                        blk[3 * a + b] += d.c_b * cb[pidx(3 * k + a, 3 * k + b)];
                    }
                }
            }
        }
        // Dirichlet: identity block on fixed DOFs (off-diagonal couplings
        // within a partially fixed node are zeroed).
        if !d.fixed.is_empty() {
            for n in 0..d.n_nodes {
                for a in 0..3 {
                    if d.fixed[3 * n + a] {
                        let blk = &mut out[n];
                        for b in 0..3 {
                            blk[3 * a + b] = if a == b { 1.0 } else { 0.0 };
                            blk[3 * b + a] = if a == b { 1.0 } else { 0.0 };
                        }
                    }
                }
            }
        }
        out
    }

    /// Sequential reference apply (used by tests to validate the parallel
    /// colored scatter).
    pub fn apply_seq(&self, x: &[f64], y: &mut [f64]) {
        let d = &self.data;
        y.fill(0.0);
        let mut xg = [0.0f64; 30];
        let mut yl = [0.0f64; 30];
        for (e, el) in d.elems.iter().enumerate() {
            for (k, &n) in el.iter().enumerate() {
                for a in 0..3 {
                    xg[3 * k + a] = d.masked(3 * n as usize + a, x[3 * n as usize + a]);
                }
            }
            yl.fill(0.0);
            sym2_matvec_add(
                d.c_m,
                &d.me[e * TP..(e + 1) * TP],
                d.c_k,
                &d.ke[e * TP..(e + 1) * TP],
                &xg,
                &mut yl,
                30,
            );
            for (k, &n) in el.iter().enumerate() {
                for a in 0..3 {
                    y[3 * n as usize + a] += yl[3 * k + a];
                }
            }
        }
        let mut xf = [0.0f64; 18];
        let mut yf = [0.0f64; 18];
        for (f, fc) in d.faces.iter().enumerate() {
            if d.c_b == 0.0 {
                break;
            }
            for (k, &n) in fc.iter().enumerate() {
                for a in 0..3 {
                    xf[3 * k + a] = d.masked(3 * n as usize + a, x[3 * n as usize + a]);
                }
            }
            yf.fill(0.0);
            sym_matvec_add(&d.cb[f * FP..(f + 1) * FP], &xf, &mut yf, 18);
            for (k, &n) in fc.iter().enumerate() {
                for a in 0..3 {
                    y[3 * n as usize + a] += d.c_b * yf[3 * k + a];
                }
            }
        }
        d.fix_output(x, y);
    }

    fn apply_group<const R: usize>(&self, elems: &[u32], x: &[f64], scatter: &ColorScatter) {
        let d = &self.data;
        let body = move |&e: &u32| {
            let eid = e;
            let e = e as usize;
            let el = &d.elems[e];
            let mut xg = [0.0f64; 240]; // 30 * R_max
            let mut yl = [0.0f64; 240];
            let xg = &mut xg[..30 * R];
            let yl = &mut yl[..30 * R];
            for (k, &n) in el.iter().enumerate() {
                for a in 0..3 {
                    let dof = 3 * n as usize + a;
                    for c in 0..R {
                        xg[(3 * k + a) * R + c] = d.masked(dof, x[dof * R + c]);
                    }
                }
            }
            yl.fill(0.0);
            sym2_matvec_add_multi::<R>(
                d.c_m,
                &d.me[e * TP..(e + 1) * TP],
                d.c_k,
                &d.ke[e * TP..(e + 1) * TP],
                xg,
                yl,
                30,
            );
            // SAFETY: same-color elements share no nodes (validated at
            // construction), so per-pass writes are disjoint.
            unsafe {
                for (k, &n) in el.iter().enumerate() {
                    for a in 0..3 {
                        let dof = 3 * n as usize + a;
                        for c in 0..R {
                            scatter.add(eid, dof * R + c, yl[(3 * k + a) * R + c]);
                        }
                    }
                }
            }
        };
        if self.parallel {
            pool::for_each_chunk(elems, GROUP_CHUNK, |_, chunk| chunk.iter().for_each(body));
        } else {
            elems.iter().for_each(body);
        }
    }

    fn apply_face_group<const R: usize>(&self, faces: &[u32], x: &[f64], scatter: &ColorScatter) {
        let d = &self.data;
        let body = move |&f: &u32| {
            let fid = f;
            let f = f as usize;
            let fc = &d.faces[f];
            let mut xg = [0.0f64; 144]; // 18 * R_max
            let mut yl = [0.0f64; 144];
            let xg = &mut xg[..18 * R];
            let yl = &mut yl[..18 * R];
            for (k, &n) in fc.iter().enumerate() {
                for a in 0..3 {
                    let dof = 3 * n as usize + a;
                    for c in 0..R {
                        xg[(3 * k + a) * R + c] = d.masked(dof, x[dof * R + c]);
                    }
                }
            }
            yl.fill(0.0);
            // single-matrix fused kernel: use sym2 with zero second matrix
            sym2_matvec_add_multi::<R>(
                d.c_b,
                &d.cb[f * FP..(f + 1) * FP],
                0.0,
                &d.cb[f * FP..(f + 1) * FP],
                xg,
                yl,
                18,
            );
            // SAFETY: same-color faces share no nodes (validated at
            // construction), so per-pass writes are disjoint.
            unsafe {
                for (k, &n) in fc.iter().enumerate() {
                    for a in 0..3 {
                        let dof = 3 * n as usize + a;
                        for c in 0..R {
                            scatter.add(fid, dof * R + c, yl[(3 * k + a) * R + c]);
                        }
                    }
                }
            }
        };
        if self.parallel {
            pool::for_each_chunk(faces, GROUP_CHUNK, |_, chunk| chunk.iter().for_each(body));
        } else {
            faces.iter().for_each(body);
        }
    }

    /// Color-parallel apply on `R` interleaved right-hand sides — the one
    /// colored kernel: [`LinearOperator::apply`] is its `R = 1` instance.
    fn apply_r<const R: usize>(&self, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        let mut scatter = ColorScatter::new(y);
        for group in &self.coloring.groups {
            scatter.begin_phase();
            self.apply_group::<R>(group, x, &scatter);
        }
        if self.data.c_b != 0.0 {
            for group in &self.face_groups {
                scatter.begin_phase();
                self.apply_face_group::<R>(group, x, &scatter);
            }
        }
        drop(scatter);
        self.data.fix_output_multi(x, y, R);
    }
}

impl LinearOperator for EbeOperator<'_> {
    fn n(&self) -> usize {
        self.data.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(self.r, 1, "single-RHS apply on a fused operator");
        debug_assert_eq!(x.len(), self.n());
        debug_assert_eq!(y.len(), self.n());
        if self.parallel {
            self.apply_r::<1>(x, y);
        } else {
            self.apply_seq(x, y);
        }
    }

    fn counts(&self) -> KernelCounts {
        ebe_counts(
            self.data.elems.len(),
            self.data.faces.len(),
            self.data.n(),
            1,
        )
    }
}

/// Analytic cost of one cached-matrix EBE apply with `r` fused RHS.
///
/// `n_dofs` sizes the cache-filtered random traffic (gathers/scatters hit
/// the x/q footprint ~twice at DRAM level thanks to node reuse in cache).
pub fn ebe_counts(n_elems: usize, n_faces: usize, n_dofs: usize, r: usize) -> KernelCounts {
    let rf = r as f64;
    let (ne, nf) = (n_elems as f64, n_faces as f64);
    KernelCounts {
        // per element: 465 fused combines (2 mul + 1 add) + packed symmetric
        // matvec: off-diagonals used twice (4 flops each per RHS), diagonals
        // once (2 flops per RHS) => 1395 + (4*435 + 2*30) r = 1395 + 1800 r.
        // per face: 171 loads (no combine) -> 4*153 + 2*18 = 648 r flops.
        flops: ne * (1395.0 + 1800.0 * rf) + nf * 648.0 * rf,
        // element matrices streamed once per apply regardless of r.
        bytes_stream: ne * (2.0 * 465.0 * 8.0 + 40.0) + nf * (171.0 * 8.0 + 24.0),
        // x read + q written once per sweep at DRAM level (cache-filtered),
        // x2 miss factor.
        bytes_rand: 2.0 * 2.0 * n_dofs as f64 * 8.0 * rf,
        // one gather + one scatter transaction per nodal slot.
        rand_transactions: 2.0 * (ne * 30.0 + nf * 18.0),
        rhs_fused: r,
    }
}

impl MultiOperator for EbeOperator<'_> {
    fn n(&self) -> usize {
        self.data.n()
    }

    fn r(&self) -> usize {
        self.r
    }

    fn apply_multi(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n() * self.r);
        debug_assert_eq!(y.len(), self.n() * self.r);
        match self.r {
            1 => self.apply_r::<1>(x, y),
            2 => self.apply_r::<2>(x, y),
            4 => self.apply_r::<4>(x, y),
            8 => self.apply_r::<8>(x, y),
            r => unreachable!("fused RHS count {r} (validated in `fused`)"),
        }
    }

    fn counts(&self) -> KernelCounts {
        ebe_counts(
            self.data.elems.len(),
            self.data.faces.len(),
            self.data.n(),
            self.r,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::assemble_global;
    use hetsolve_mesh::{color_elements, GroundModelSpec, InterfaceShape};

    struct Fixture {
        n_nodes: usize,
        elems: Vec<[u32; 10]>,
        me: Vec<f64>,
        ke: Vec<f64>,
        faces: Vec<[u32; 6]>,
        cb: Vec<f64>,
        fixed: Vec<bool>,
        coloring: hetsolve_mesh::Coloring,
    }

    /// Deterministic synthetic element data on a real small ground mesh:
    /// we need valid connectivity + coloring, but the matrix values can be
    /// arbitrary symmetric data (tests compare EBE vs assembled CRS).
    fn fixture(with_fixed: bool) -> Fixture {
        fixture_on((3, 3, 2), with_fixed)
    }

    fn fixture_on((nx, ny, nz): (usize, usize, usize), with_fixed: bool) -> Fixture {
        let gm = GroundModelSpec::paper_like(nx, ny, nz, InterfaceShape::Stratified).build();
        let mesh = gm.mesh;
        let coloring = color_elements(&mesh);
        let ne = mesh.n_elems();
        let n_nodes = mesh.n_nodes();
        let mut me = vec![0.0; ne * TP];
        let mut ke = vec![0.0; ne * TP];
        let mut s: u64 = 12345;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) % 1000) as f64 / 500.0 - 1.0
        };
        for v in me.iter_mut() {
            *v = next();
        }
        for v in ke.iter_mut() {
            *v = next();
        }
        // a few fake faces over the first elements' first 6 nodes
        let mut faces = Vec::new();
        let mut cb = Vec::new();
        for e in 0..4usize {
            let el = &mesh.elems[e];
            faces.push([el[0], el[1], el[2], el[4], el[5], el[6]]);
            for _ in 0..FP {
                cb.push(next());
            }
        }
        let mut fixed = vec![false; 3 * n_nodes];
        if with_fixed {
            for (d, f) in fixed.iter_mut().enumerate() {
                *f = d % 17 == 0;
            }
        }
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

    fn data<'a>(fx: &'a Fixture, constrained: bool) -> EbeData<'a> {
        EbeData {
            n_nodes: fx.n_nodes,
            elems: &fx.elems,
            me: &fx.me,
            ke: &fx.ke,
            faces: &fx.faces,
            cb: &fx.cb,
            c_m: 2.5,
            c_k: 1.25,
            c_b: 0.5,
            fixed: if constrained { &fx.fixed } else { &[] },
        }
    }

    fn test_vec(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.618).sin()).collect()
    }

    #[test]
    fn seq_matches_assembled_crs() {
        let fx = fixture(false);
        let d = data(&fx, false);
        let op = EbeOperator::new(d.clone(), &fx.coloring, false);
        let crs = assemble_global(
            fx.n_nodes,
            &fx.elems,
            &fx.me,
            &fx.ke,
            d.c_m,
            d.c_k,
            &fx.faces,
            &fx.cb,
            d.c_b,
            &[],
            false,
        );
        let x = test_vec(op.n());
        let mut y1 = vec![0.0; op.n()];
        let mut y2 = vec![0.0; op.n()];
        op.apply(&x, &mut y1);
        crs.apply(&x, &mut y2);
        let scale = y2.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        for i in 0..y1.len() {
            assert!(
                (y1[i] - y2[i]).abs() < 1e-10 * scale,
                "dof {i}: {} vs {}",
                y1[i],
                y2[i]
            );
        }
    }

    /// The colored kernel against the element-order loop (a different
    /// summation order: to rounding), and against itself split over pools
    /// of one to four threads at every fused width (same order: to the
    /// bit) — on a mesh whose color groups are several chunks long.
    #[test]
    fn colored_parallel_matches_seq() {
        let fx = fixture_on((8, 8, 5), true);
        assert!(fx.coloring.groups.iter().any(|g| g.len() > 2 * GROUP_CHUNK));
        let d = data(&fx, true);
        let op_seq = EbeOperator::new(d.clone(), &fx.coloring, false);
        let op_par = EbeOperator::new(d.clone(), &fx.coloring, true);
        let n = op_seq.n();
        let x = test_vec(n);
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        op_seq.apply(&x, &mut y1);
        op_par.apply(&x, &mut y2);
        for i in 0..n {
            assert!((y1[i] - y2[i]).abs() < 1e-11, "dof {i}");
        }

        for r in [1usize, 2, 4, 8] {
            let x = test_vec(n * r);
            let mut y_seq = vec![0.0; n * r];
            EbeOperator::new(d.clone(), &fx.coloring, false)
                .fused(r)
                .apply_multi(&x, &mut y_seq);
            let par = EbeOperator::new(d.clone(), &fx.coloring, true).fused(r);
            for threads in 1..=4 {
                let mut y_par = vec![0.0; n * r];
                pool::Pool::with_threads(threads).install(|| par.apply_multi(&x, &mut y_par));
                assert!(
                    (0..n * r).all(|i| y_seq[i].to_bits() == y_par[i].to_bits()),
                    "r={r} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn constrained_matches_assembled_dirichlet() {
        let fx = fixture(true);
        let d = data(&fx, true);
        let op = EbeOperator::new(d.clone(), &fx.coloring, true);
        let crs = assemble_global(
            fx.n_nodes, &fx.elems, &fx.me, &fx.ke, d.c_m, d.c_k, &fx.faces, &fx.cb, d.c_b,
            &fx.fixed, false,
        );
        let x = test_vec(op.n());
        let mut y1 = vec![0.0; op.n()];
        let mut y2 = vec![0.0; op.n()];
        op.apply(&x, &mut y1);
        crs.apply(&x, &mut y2);
        let scale = y2.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        for i in 0..y1.len() {
            assert!(
                (y1[i] - y2[i]).abs() < 1e-10 * scale,
                "dof {i}: {} vs {}",
                y1[i],
                y2[i]
            );
        }
    }

    #[test]
    fn multi_rhs_matches_single_rhs() {
        let fx = fixture(true);
        let d = data(&fx, true);
        let single = EbeOperator::new(d.clone(), &fx.coloring, false);
        let n = single.n();
        for r in [1usize, 2, 4, 8] {
            let multi = EbeOperator::new(d.clone(), &fx.coloring, true).fused(r);
            let mut x = vec![0.0; n * r];
            for c in 0..r {
                for i in 0..n {
                    x[i * r + c] = ((i * (c + 2)) as f64 * 0.37).cos();
                }
            }
            let mut y = vec![0.0; n * r];
            multi.apply_multi(&x, &mut y);
            for c in 0..r {
                let xc: Vec<f64> = (0..n).map(|i| x[i * r + c]).collect();
                let mut yc = vec![0.0; n];
                single.apply(&xc, &mut yc);
                for i in 0..n {
                    assert!(
                        (y[i * r + c] - yc[i]).abs() < 1e-10,
                        "r={r} case {c} dof {i}: {} vs {}",
                        y[i * r + c],
                        yc[i]
                    );
                }
            }
        }
    }

    #[test]
    fn diagonal_blocks_match_assembled() {
        let fx = fixture(true);
        let d = data(&fx, true);
        let op = EbeOperator::new(d.clone(), &fx.coloring, false);
        let crs = assemble_global(
            fx.n_nodes, &fx.elems, &fx.me, &fx.ke, d.c_m, d.c_k, &fx.faces, &fx.cb, d.c_b,
            &fx.fixed, false,
        );
        let db_ebe = op.diagonal_blocks();
        let db_crs = crs.diagonal_blocks();
        let scale = db_crs
            .iter()
            .flat_map(|b| b.iter())
            .fold(0.0f64, |m, v| m.max(v.abs()));
        for n in 0..fx.n_nodes {
            for k in 0..9 {
                assert!(
                    (db_ebe[n][k] - db_crs[n][k]).abs() < 1e-10 * scale,
                    "node {n} entry {k}: {} vs {}",
                    db_ebe[n][k],
                    db_crs[n][k]
                );
            }
        }
    }

    #[test]
    fn face_coloring_valid() {
        let fx = fixture(false);
        let groups = color_faces(fx.n_nodes, &fx.faces);
        // all faces covered exactly once
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, fx.faces.len());
        // no two same-group faces share a node
        for g in &groups {
            for (i, &a) in g.iter().enumerate() {
                for &b in &g[i + 1..] {
                    let fa = &fx.faces[a as usize];
                    let fb = &fx.faces[b as usize];
                    assert!(fa.iter().all(|n| !fb.contains(n)));
                }
            }
        }
    }

    #[test]
    fn counts_scale_with_r() {
        let c1 = ebe_counts(100, 10, 3000, 1);
        let c4 = ebe_counts(100, 10, 3000, 4);
        // stream bytes identical (matrices read once), random bytes 4x
        assert_eq!(c1.bytes_stream, c4.bytes_stream);
        assert!((c4.bytes_rand / c1.bytes_rand - 4.0).abs() < 1e-12);
        // transactions are independent of r: the amortization effect
        assert_eq!(c1.rand_transactions, c4.rand_transactions);
        // per-case flops drop (the combine is shared across RHS)
        assert!(c4.flops < 4.0 * c1.flops);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_r() {
        let fx = fixture(false);
        let d = data(&fx, false);
        let _ = EbeOperator::new(d, &fx.coloring, false).fused(3);
    }
}
