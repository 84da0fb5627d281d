//! Solver backend: owns the discretized problem and builds the operators
//! each method needs (assembled BCRS for the CRS-CG baselines, compact
//! matrix-free EBE for the proposed method), plus the exact Newmark
//! right-hand side.
//!
//! All methods produce *identical numerics*: the RHS is always evaluated
//! with the exact matrix-free operators, so the four methods differ only in
//! which operator drives the CG iteration (assembled CRS vs. matrix-free
//! EBE — themselves equal to rounding) and in the modeled execution
//! timeline. This realizes the paper's "accuracy is guaranteed" property
//! and is verified by the cross-method equivalence tests.

use hetsolve_fem::{CompactEbe, CompactElements, ElementKernel, FemProblem, ScatterPlan};
use hetsolve_sparse::{assemble_global, Bcrs3, BlockJacobi, KernelCounts, LinearOperator};

/// Owned problem + every precomputed structure the methods share.
pub struct Backend {
    pub problem: FemProblem,
    /// The block sweep of the mesh (element and face runs, coloured into
    /// phases) and the proof that it is race-free: validated once here, so
    /// every operator over this mesh is built without re-validating.
    plan: ScatterPlan,
    pub compact: CompactElements,
    /// Dirichlet mask as a bool slice.
    pub fixed: Vec<bool>,
    /// Assembled system matrix `A` (built on demand by CRS methods).
    pub crs_a: Option<Bcrs3>,
    /// Block-Jacobi preconditioner of `A`.
    pub precond: BlockJacobi,
    /// The switch for host threads: `true` hands the operators this
    /// backend builds (`ebe_a`, the RHS's `M` and `C`, the assembled
    /// matrices) and its preconditioner to the host pool, `false` keeps
    /// every one of them on the calling thread. Same bits either way
    /// (DESIGN.md §19).
    pub parallel: bool,
}

impl Backend {
    /// Build the backend; `with_crs` assembles the global system matrix
    /// `A` (the CRS-CG baselines need it; EBE-MCG does not).
    pub fn new(problem: FemProblem, with_crs: bool, parallel: bool) -> Self {
        let compact = CompactElements::compute(&problem.model.mesh, &problem.materials);
        let fixed: Vec<bool> = problem.mask.as_slice().to_vec();
        let a = problem.a_coeffs();
        // assembly streams the element kernel: an element's matrices live
        // only until the last row that reads them is merged
        let crs_a = with_crs.then(|| {
            let mesh = &problem.model.mesh;
            let kernel = ElementKernel::new(mesh, &problem.materials);
            assemble_global(
                mesh.n_nodes(),
                &mesh.elems,
                |e, m, k| kernel.compute(e, m, k),
                a.c_m,
                a.c_k,
                &problem.dashpots.faces,
                &problem.dashpots.cb,
                a.c_b,
                &fixed,
                parallel,
            )
        });
        let plan = ScatterPlan::validate(
            problem.n_nodes(),
            &problem.model.mesh.elems,
            &problem.dashpots.faces,
        );
        // preconditioner blocks from the matrix-free diagonal (identical to
        // the assembled diagonal; see fem::ebe_compact tests)
        let op = compact_op(
            &problem,
            &plan,
            &compact,
            (a.c_m, a.c_k, a.c_b),
            &fixed,
            parallel,
            1,
        );
        let precond = BlockJacobi::from_blocks(&op.diagonal_blocks(), parallel);
        if parallel {
            // start the host pool's workers in set-up: started by a run's
            // first fork-join, they would be that run's allocations only
            hetsolve_pool::threads();
        }
        Backend {
            problem,
            plan,
            compact,
            fixed,
            crs_a,
            precond,
            parallel,
        }
    }

    /// A matrix-free operator `c_m M + c_k K + c_b C_b` over this backend's
    /// mesh with element data `data` (the backend's own, or a copy whose
    /// moduli a nonlinear run updates), under the plan validated in
    /// [`Self::new`].
    pub(crate) fn compact_op<'a>(
        &'a self,
        data: &'a CompactElements,
        coeffs: (f64, f64, f64),
        fixed: &'a [bool],
        r: usize,
    ) -> CompactEbe<'a> {
        compact_op(
            &self.problem,
            &self.plan,
            data,
            coeffs,
            fixed,
            self.parallel,
            r,
        )
    }

    /// Matrix-free system operator `A` with `r` fused RHS.
    pub fn ebe_a(&self, r: usize) -> CompactEbe<'_> {
        let a = self.problem.a_coeffs();
        self.compact_op(&self.compact, (a.c_m, a.c_k, a.c_b), &self.fixed, r)
    }

    /// Was the assembled (CRS) matrix built? The run drivers check
    /// this at entry and return [`crate::recovery::RunError::Config`]
    /// for CRS methods on a matrix-free backend.
    pub fn has_crs(&self) -> bool {
        self.crs_a.is_some()
    }

    /// Assembled system matrix (panics if built without CRS).
    #[allow(
        clippy::expect_used,
        reason = "drivers reject CRS methods on matrix-free backends at entry \
                  (`has_crs` precheck → RunError::Config); direct callers own \
                  the documented panic contract"
    )]
    pub fn crs_a(&self) -> &Bcrs3 {
        self.crs_a
            .as_ref()
            .expect("backend built without CRS matrices")
    }

    /// Newmark RHS for one case:
    /// `rhs = f + M (c_m u + 4/dt v + a) + C (c_c u + v)`, with fixed DOFs
    /// zeroed.
    pub fn newmark_rhs(
        &self,
        f: &[f64],
        u: &[f64],
        v: &[f64],
        a: &[f64],
        rhs: &mut [f64],
        scratch: &mut RhsScratch,
    ) {
        self.newmark_rhs_with(&self.compact, f, u, v, a, rhs, scratch);
    }

    /// The element-data-`data` operators `M` (coefficients `(1, 0, 0)`,
    /// no Dirichlet identity) and `C = α M + β K + C_b` of the Newmark RHS,
    /// at width `r`.
    pub(crate) fn rhs_ops<'a>(
        &'a self,
        data: &'a CompactElements,
        r: usize,
    ) -> (CompactEbe<'a>, CompactEbe<'a>) {
        let c = self.problem.c_coeffs();
        (
            self.compact_op(data, (1.0, 0.0, 0.0), &[], r),
            self.compact_op(data, (c.c_m, c.c_k, c.c_b), &[], r),
        )
    }

    /// [`Self::newmark_rhs`] with the matrix-free `M` (no Dirichlet
    /// identity: fixed rows are projected to zero afterwards) and
    /// `C = α M + β K + C_b` over element data `data` — the backend's own,
    /// or the copy whose secant moduli a nonlinear run updates.
    #[allow(clippy::too_many_arguments, reason = "the Newmark state and output")]
    pub(crate) fn newmark_rhs_with(
        &self,
        data: &CompactElements,
        f: &[f64],
        u: &[f64],
        v: &[f64],
        a: &[f64],
        rhs: &mut [f64],
        scratch: &mut RhsScratch,
    ) {
        rhs.copy_from_slice(f);
        self.newmark_rhs_onto(data, u, v, a, rhs, scratch);
    }

    /// [`Self::newmark_rhs_with`] with the force already in `rhs`: the
    /// same sums in the same order, `(f + M·m_aux) + C·c_aux`.
    pub(crate) fn newmark_rhs_onto(
        &self,
        data: &CompactElements,
        u: &[f64],
        v: &[f64],
        a: &[f64],
        rhs: &mut [f64],
        scratch: &mut RhsScratch,
    ) {
        let nm = &self.problem.newmark;
        nm.rhs_aux(u, v, a, &mut scratch.m_aux, &mut scratch.c_aux);
        let (op_m, op_c) = self.rhs_ops(data, 1);
        op_m.apply(&scratch.m_aux, &mut scratch.t1);
        op_c.apply(&scratch.c_aux, &mut scratch.t2);
        // `(f + t1) + t2`, not `f + (t1 + t2)`: the bits of every RHS
        for i in 0..rhs.len() {
            rhs[i] = rhs[i] + scratch.t1[i] + scratch.t2[i];
        }
        self.problem.mask.project(rhs);
    }

    /// Modeled cost of the RHS evaluation when performed with assembled
    /// matrices (charged to CRS methods): A·x-shaped + M·x-shaped SpMVs.
    /// `M` is never assembled: its block pattern is `A`'s (every face node
    /// is an element node), and an SpMV's counts read only the pattern.
    pub(crate) fn rhs_counts_crs(&self) -> KernelCounts {
        let a = self.crs_a().counts();
        a.merged(a)
    }

    /// Modeled cost of the RHS evaluation with matrix-free operators
    /// (charged to EBE methods), for `r` fused cases.
    pub fn rhs_counts_ebe(&self, r: usize) -> KernelCounts {
        use hetsolve_fem::compact_ebe_counts;
        let p = &self.problem;
        compact_ebe_counts(p.model.mesh.n_elems(), p.dashpots.n_faces(), p.n_dofs(), r).scaled(2.0)
    }

    pub fn n_dofs(&self) -> usize {
        self.problem.n_dofs()
    }
}

/// The operator over `problem`'s mesh that `plan` was validated for.
fn compact_op<'a>(
    problem: &'a FemProblem,
    plan: &'a ScatterPlan,
    data: &'a CompactElements,
    coeffs: (f64, f64, f64),
    fixed: &'a [bool],
    parallel: bool,
    r: usize,
) -> CompactEbe<'a> {
    CompactEbe::with_plan(
        problem.n_nodes(),
        &problem.model.mesh.elems,
        data,
        &problem.dashpots.faces,
        &problem.dashpots.cb,
        coeffs,
        fixed,
        plan,
        parallel,
        r,
    )
}

/// Scratch vectors reused across RHS evaluations.
pub struct RhsScratch {
    pub m_aux: Vec<f64>,
    pub c_aux: Vec<f64>,
    pub t1: Vec<f64>,
    pub t2: Vec<f64>,
}

impl RhsScratch {
    pub fn new(n: usize) -> Self {
        RhsScratch {
            m_aux: vec![0.0; n],
            c_aux: vec![0.0; n],
            t1: vec![0.0; n],
            t2: vec![0.0; n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_fem::ElementMatrices;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};
    use hetsolve_sparse::{pcg, CgConfig};

    fn backend() -> Backend {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        Backend::new(FemProblem::paper_like(&spec), true, false)
    }

    #[test]
    fn ebe_and_crs_systems_agree() {
        let b = backend();
        let n = b.n_dofs();
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.21).sin()).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        b.ebe_a(1).apply(&x, &mut y1);
        b.crs_a().apply(&x, &mut y2);
        let scale = y2.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        for i in 0..n {
            assert!((y1[i] - y2[i]).abs() < 1e-9 * scale, "dof {i}");
        }
    }

    #[test]
    fn cg_converges_with_both_operators_to_same_solution() {
        let b = backend();
        let n = b.n_dofs();
        let mut f: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.13).cos()).collect();
        b.problem.mask.project(&mut f);
        let cfg = CgConfig {
            tol: 1e-10,
            max_iter: 2000,
            ..Default::default()
        };
        let mut x1 = vec![0.0; n];
        let s1 = pcg(&b.ebe_a(1), &b.precond, &f, &mut x1, &cfg);
        let mut x2 = vec![0.0; n];
        let s2 = pcg(b.crs_a(), &b.precond, &f, &mut x2, &cfg);
        assert!(
            s1.converged && s2.converged,
            "{} {}",
            s1.final_rel_res,
            s2.final_rel_res
        );
        let scale = x2.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        for i in 0..n {
            assert!((x1[i] - x2[i]).abs() < 1e-6 * scale, "dof {i}");
        }
        // iteration counts should be essentially identical
        assert!((s1.iterations as i64 - s2.iterations as i64).abs() <= 2);
    }

    #[test]
    fn rhs_is_zero_at_fixed_dofs() {
        let b = backend();
        let n = b.n_dofs();
        let mut scratch = RhsScratch::new(n);
        let f: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).cos() * 1e-3).collect();
        let v = vec![1e-4; n];
        let a = vec![1e-5; n];
        let mut rhs = vec![0.0; n];
        b.newmark_rhs(&f, &u, &v, &a, &mut rhs, &mut scratch);
        for d in b.problem.mask.fixed_dofs() {
            assert_eq!(rhs[d], 0.0);
        }
        // and nonzero somewhere free
        assert!(rhs.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn rhs_cost_models_exist() {
        let b = backend();
        let crs = b.rhs_counts_crs();
        let ebe = b.rhs_counts_ebe(4);
        assert!(crs.flops > 0.0 && ebe.flops > 0.0);
        assert!(crs.bytes_stream > ebe.bytes_stream);
    }

    /// `M` assembled on its own (elements only, no mask) and `A` differ in
    /// values but not in pattern, so the RHS counts charged without `M`
    /// are the ones charged with it.
    #[test]
    fn rhs_counts_crs_are_a_and_m() {
        let b = backend();
        let (p, mesh) = (&b.problem, &b.problem.model.mesh);
        let kernel = ElementKernel::new(mesh, &p.materials);
        let m = assemble_global(
            mesh.n_nodes(),
            &mesh.elems,
            |e, m, k| kernel.compute(e, m, k),
            1.0,
            0.0,
            &[],
            &[],
            0.0,
            &[],
            false,
        );
        assert_eq!(m.row_ptr, b.crs_a().row_ptr);
        assert_eq!(m.cols, b.crs_a().cols);
        assert_eq!(b.rhs_counts_crs(), b.crs_a().counts().merged(m.counts()));
    }

    /// The row-streamed `assemble_global` is the global element loop into a
    /// `BcrsBuilder` bit for bit, at 9,537 DOF: `A` with its faces and the
    /// Dirichlet mask, and `M` with neither. `A` is also the matrix
    /// `Backend::new` keeps.
    #[test]
    fn assembly_is_the_builder_bitwise() {
        use hetsolve_fem::MASS_PAIRS;
        use hetsolve_sparse::{add_packed_element, apply_dirichlet, packed_idx, BcrsBuilder};

        let spec = GroundModelSpec::paper_like(8, 8, 5, InterfaceShape::Basin);
        let b = Backend::new(FemProblem::paper_like(&spec), true, false);
        let (p, mesh) = (&b.problem, &b.problem.model.mesh);
        assert_eq!(p.n_dofs(), 9537);
        let el = ElementMatrices::compute(mesh, &p.materials);
        // the node-pair table of a packed `M_e = m ⊗ I₃`
        let pairs_of = |me: &[f64]| -> [f64; MASS_PAIRS] {
            let mut m = [0.0; MASS_PAIRS];
            for i in 0..10 {
                for j in 0..=i {
                    m[packed_idx(i, j)] = me[packed_idx(3 * i, 3 * j)];
                }
            }
            m
        };
        let (a, n) = (p.a_coeffs(), mesh.n_nodes());
        let (faces, cb) = (&p.dashpots.faces, &p.dashpots.cb);
        let builder = |c_m: f64, c_k: f64, c_b: f64, fixed: &[bool]| {
            let mut bl = BcrsBuilder::new(n);
            for (e, nodes) in mesh.elems.iter().enumerate() {
                add_packed_element(&mut bl, nodes, el.me_of(e), c_m);
                add_packed_element(&mut bl, nodes, el.ke_of(e), c_k);
            }
            for (f, nodes) in faces.iter().enumerate() {
                add_packed_element(&mut bl, nodes, &cb[f * 171..(f + 1) * 171], c_b);
            }
            let mut m = bl.finish(false);
            if !fixed.is_empty() {
                apply_dirichlet(&mut m, fixed);
            }
            m
        };
        let same = |x: &Bcrs3, y: &Bcrs3, what: &str| {
            assert_eq!(x.row_ptr, y.row_ptr, "{what}: row_ptr");
            assert_eq!(x.cols, y.cols, "{what}: cols");
            for (k, (bx, by)) in x.blocks.iter().zip(&y.blocks).enumerate() {
                assert_eq!(
                    bx.map(f64::to_bits),
                    by.map(f64::to_bits),
                    "{what}: block {k}"
                );
            }
        };
        let streamed_a = assemble_global(
            n,
            &mesh.elems,
            |e, m, k| {
                m.copy_from_slice(&pairs_of(el.me_of(e)));
                k.copy_from_slice(el.ke_of(e));
            },
            a.c_m,
            a.c_k,
            faces,
            cb,
            a.c_b,
            &b.fixed,
            false,
        );
        let built_a = builder(a.c_m, a.c_k, a.c_b, &b.fixed);
        same(&streamed_a, &built_a, "A");
        same(b.crs_a(), &built_a, "Backend::crs_a");
        let streamed_m = assemble_global(
            n,
            &mesh.elems,
            |e, m, k| {
                m.copy_from_slice(&pairs_of(el.me_of(e)));
                k.copy_from_slice(el.ke_of(e));
            },
            1.0,
            0.0,
            &[],
            &[],
            0.0,
            &[],
            false,
        );
        same(&streamed_m, &builder(1.0, 0.0, 0.0, &[]), "M");
    }

    #[test]
    fn backend_without_crs_skips_assembly() {
        let spec = GroundModelSpec::small(InterfaceShape::Stratified);
        let b = Backend::new(FemProblem::paper_like(&spec), false, false);
        assert!(b.crs_a.is_none());
        // EBE operator still available
        let n = b.n_dofs();
        let mut y = vec![0.0; n];
        b.ebe_a(1).apply(&vec![1.0; n], &mut y);
    }
}
