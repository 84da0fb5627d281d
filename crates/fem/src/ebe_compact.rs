//! Compact (fully matrix-free) EBE operator — the kernel the paper actually
//! runs on the GPU.
//!
//! Table 2 shows the EBE kernel moving only ~0.2–0.6 TB/s while sustaining
//! 9.5–18 TFLOPS: the element matrices are *not* streamed from memory but
//! recomputed on the fly from ~170 bytes of per-element geometry+material
//! data (the paper: EBE "prevents the storage of the matrix in memory and
//! the construction of the matrix at each time step"). Two structural
//! facts about straight-sided Tet10 elements make this cheap:
//!
//! * the consistent mass matrix is `ρV · M̂ ⊗ I₃` with a *universal*
//!   10×10 reference matrix `M̂ = Σ_qp w N Nᵀ`;
//! * physical shape gradients factor as `∇Nᵢ(qp) = Σ_a Ĝ[qp][i][a] ∇L_a`
//!   with universal tables `Ĝ` and per-element constant barycentric
//!   gradients `∇L_a`, so `K_e p` reduces to a 4-quadrature-point
//!   strain/stress loop (~3 kflop per element per RHS — matching the
//!   paper's measured ≈3.8 kflop/element).
//!
//! Stored per element: 4 barycentric gradients (96 B), volume + ρ, λ, μ
//! (32 B) + 40 B of node ids ≈ 168 B — versus 7.4 KB for its packed M_e
//! and K_e, a ~44× traffic reduction that turns the kernel compute-bound.

use std::ops::Range;
use std::sync::Arc;

use hetsolve_mesh::TET_EDGES;
use hetsolve_mesh::{color_runs, validate_runs, Material, RunColoring, TetMesh10};
use hetsolve_pool as pool;
use hetsolve_sparse::{
    packed_idx, packed_len, ColorScatter, FixedMask, KernelCounts, LinearOperator, MultiOperator,
};

use crate::quad::{tet_rule_deg2, tet_rule_deg5, TetQp};
use crate::shape::{tet10_shape, tet_bary_gradients};

/// f64 slots per element in the geometry table: 12 (∇L) + 1 (V) + 3 (ρ,λ,μ).
pub(crate) const GEO_STRIDE: usize = 16;

/// Packed entries of one 18×18 symmetric face dashpot matrix.
const FACE_PACKED: usize = packed_len(18);

/// Universal reference tables shared by all elements (computed once).
#[derive(Debug, Clone)]
pub struct RefTables {
    /// `Σ_qp w N_i N_j` over the degree-5 rule, row-major 10×10.
    pub mhat: [f64; 100],
    /// Stiffness rule (degree 2). `dN_i/dL_a` at a point is universal:
    /// `4L_a − 1` for vertex `a`, `4L_b` / `4L_a` for the mid-node of edge
    /// `(a, b)`, zero otherwise (see `dn_dl`).
    pub stiff_rule: Vec<TetQp>,
}

/// dN_i/dL_a at barycentric point `l` (Tet10), row-major 10×4.
fn dn_dl(l: [f64; 4]) -> [f64; 40] {
    let mut g = [0.0; 40];
    for i in 0..4 {
        g[4 * i + i] = 4.0 * l[i] - 1.0;
    }
    for (k, &(a, b)) in TET_EDGES.iter().enumerate() {
        g[4 * (4 + k) + a] = 4.0 * l[b];
        g[4 * (4 + k) + b] = 4.0 * l[a];
    }
    g
}

impl RefTables {
    pub(crate) fn build() -> Self {
        let mut mhat = [0.0; 100];
        for qp in tet_rule_deg5() {
            let n = tet10_shape(qp.l);
            for i in 0..10 {
                for j in 0..10 {
                    mhat[10 * i + j] += qp.w * n[i] * n[j];
                }
            }
        }
        RefTables {
            mhat,
            stiff_rule: tet_rule_deg2(),
        }
    }
}

/// Per-element compact data: geometry + material, plus cached boundary
/// dashpot face matrices (faces are few — surface-only — so caching them
/// adds negligible memory).
#[derive(Debug, Clone)]
pub struct CompactElements {
    pub geo: Vec<f64>,
    pub n_elems: usize,
    pub tables: RefTables,
}

impl CompactElements {
    pub fn compute(mesh: &TetMesh10, mats: &[Material]) -> Self {
        let ne = mesh.n_elems();
        let mut geo = vec![0.0; ne * GEO_STRIDE];
        // serial, like `ElementMatrices::compute`: set-up stays off the pool
        for (e, g) in geo.chunks_exact_mut(GEO_STRIDE).enumerate() {
            let verts = mesh.vertices(e);
            let (dl, vol) = tet_bary_gradients(&verts);
            assert!(vol > 0.0, "element {e} has non-positive volume");
            for a in 0..4 {
                let v = dl[a].to_array();
                g[3 * a] = v[0];
                g[3 * a + 1] = v[1];
                g[3 * a + 2] = v[2];
            }
            let m = &mats[mesh.material[e] as usize];
            g[12] = vol;
            g[13] = m.rho;
            g[14] = m.lambda();
            g[15] = m.mu();
        }
        CompactElements {
            geo,
            n_elems: ne,
            tables: RefTables::build(),
        }
    }

    /// Bytes of the compact representation (the EBE memory-usage story of
    /// Table 3: geometry + ids instead of matrices).
    pub fn bytes(&self) -> usize {
        self.geo.len() * 8
    }
}

/// Address and length of a slice: which buffer a [`ScatterPlan`] was
/// validated against.
fn slice_id<T>(s: &[T]) -> (usize, usize) {
    (s.as_ptr() as usize, s.len())
}

/// Elements (and faces) per block of the sweep: one thread walks a block in
/// stored order, a phase is one fork-join over its blocks. Chosen by
/// measurement on the 9,537- and 55,539-DOF meshes (EXPERIMENTS.md, "After
/// PR 23"); a function of nothing — not of the mesh, never of the thread
/// count — so the summation order it fixes is the same everywhere.
const RUN_LEN: usize = 64;

/// Values per piece of the pooled zero-fill that opens an apply.
const ZERO_PIECE: usize = 1 << 13;

/// Proof that the block sweep of one mesh is race-free and in bounds, so
/// that operators over it need not re-derive it: the stored element order
/// and the dashpot faces were each cut into runs, the runs coloured into
/// phases, and both colourings passed [`validate_runs`]. Only
/// [`ScatterPlan::validate`] and `ScatterPlan::with_runs` build one (the
/// fields are private), and an operator accepts it only for the very
/// buffers it was validated against ([`CompactEbe::with_plan`]) — owners
/// that build many operators over one mesh (`Backend`) validate once.
/// Cloning shares the plan.
#[derive(Debug, Clone)]
pub struct ScatterPlan(Arc<Sweep>);

#[derive(Debug, Clone)]
struct Sweep {
    n_nodes: usize,
    elems: (usize, usize),
    faces: (usize, usize),
    elem_runs: RunColoring,
    face_runs: RunColoring,
}

impl ScatterPlan {
    /// Cut `elems` and `faces` into runs of `RUN_LEN`, colour the runs
    /// and validate both colourings.
    pub fn validate(n_nodes: usize, elems: &[[u32; 10]], faces: &[[u32; 6]]) -> Self {
        Self::with_runs(
            n_nodes,
            elems,
            faces,
            color_runs(n_nodes, elems, RUN_LEN),
            color_runs(n_nodes, faces, RUN_LEN),
        )
    }

    /// Validate the given run colourings. Panics with the offending pair of
    /// runs on one that would race (see `hetsolve_sparse::parcheck`).
    pub(crate) fn with_runs(
        n_nodes: usize,
        elems: &[[u32; 10]],
        faces: &[[u32; 6]],
        elem_runs: RunColoring,
        face_runs: RunColoring,
    ) -> Self {
        if let Err(c) = validate_runs(n_nodes, elems, &elem_runs) {
            panic!("ScatterPlan: element runs: {c}");
        }
        if let Err(c) = validate_runs(n_nodes, faces, &face_runs) {
            panic!("ScatterPlan: face runs: {c}");
        }
        ScatterPlan(Arc::new(Sweep {
            n_nodes,
            elems: slice_id(elems),
            faces: slice_id(faces),
            elem_runs,
            face_runs,
        }))
    }

    /// Phases of the element and of the face sweep: the fork-joins of one
    /// apply (faces only when `c_b ≠ 0`).
    pub fn n_phases(&self) -> (usize, usize) {
        (self.0.elem_runs.phases.len(), self.0.face_runs.phases.len())
    }

    /// Panic unless this plan was validated against exactly these buffers.
    /// (Editing a validated buffer in place afterwards is not detected;
    /// owners keep plan and buffers together and immutable.)
    fn assert_covers(&self, n_nodes: usize, elems: &[[u32; 10]], faces: &[[u32; 6]]) {
        assert!(
            self.0.n_nodes == n_nodes
                && self.0.elems == slice_id(elems)
                && self.0.faces == slice_id(faces),
            "ScatterPlan was validated against a different mesh"
        );
    }
}

/// The compact matrix-free operator `c_m M + c_k K + c_b C_b` over a Tet10
/// mesh with optional boundary dashpots and Dirichlet mask.
///
/// The connectivity, plan and fused width are private: the unsafe scatter
/// relies on the validation they passed at construction.
pub struct CompactEbe<'a> {
    elems: &'a [[u32; 10]],
    pub data: &'a CompactElements,
    faces: &'a [[u32; 6]],
    /// Flat packed face dashpot matrices (stride 171).
    pub cb: &'a [f64],
    pub c_m: f64,
    pub c_k: f64,
    pub c_b: f64,
    pub fixed: &'a [bool],
    n_nodes: usize,
    plan: ScatterPlan,
    /// Run the blocks of each phase on the host pool; `false` walks them in
    /// order on the calling thread. Blocks of one phase write disjoint
    /// rows, so the bits are the same.
    pub parallel: bool,
    /// Fused right-hand sides (1, 2, 4, or 8).
    r: usize,
    /// Write `y[fixed] = x[fixed]` after the apply (the Dirichlet identity
    /// block). Partitioned (multi-node) operators disable this so the
    /// identity is not double-counted when shared-node sums are taken; the
    /// driver re-applies it once after the halo exchange.
    pub identity_on_fixed: bool,
}

impl<'a> CompactEbe<'a> {
    /// Build the operator, planning and validating the sweep on the spot.
    /// Owners that build many operators over one mesh validate once and
    /// use [`Self::with_plan`].
    #[allow(clippy::too_many_arguments, reason = "mesh buffers and settings")]
    pub fn new(
        n_nodes: usize,
        elems: &'a [[u32; 10]],
        data: &'a CompactElements,
        faces: &'a [[u32; 6]],
        cb: &'a [f64],
        coeffs: (f64, f64, f64),
        fixed: &'a [bool],
        parallel: bool,
        r: usize,
    ) -> Self {
        let plan = ScatterPlan::validate(n_nodes, elems, faces);
        Self::build(elems, data, faces, cb, coeffs, fixed, plan, parallel, r)
    }

    /// [`Self::new`] without re-validating: `plan` is the proof that these
    /// very buffers were validated (anything else panics).
    #[allow(clippy::too_many_arguments, reason = "mesh buffers and settings")]
    pub fn with_plan(
        n_nodes: usize,
        elems: &'a [[u32; 10]],
        data: &'a CompactElements,
        faces: &'a [[u32; 6]],
        cb: &'a [f64],
        coeffs: (f64, f64, f64),
        fixed: &'a [bool],
        plan: &ScatterPlan,
        parallel: bool,
        r: usize,
    ) -> Self {
        plan.assert_covers(n_nodes, elems, faces);
        Self::build(
            elems,
            data,
            faces,
            cb,
            coeffs,
            fixed,
            plan.clone(),
            parallel,
            r,
        )
    }

    #[allow(clippy::too_many_arguments, reason = "mesh buffers and settings")]
    fn build(
        elems: &'a [[u32; 10]],
        data: &'a CompactElements,
        faces: &'a [[u32; 6]],
        cb: &'a [f64],
        coeffs: (f64, f64, f64),
        fixed: &'a [bool],
        plan: ScatterPlan,
        parallel: bool,
        r: usize,
    ) -> Self {
        assert!(
            matches!(r, 1 | 2 | 4 | 8),
            "fused RHS count must be 1, 2, 4 or 8 (got {r})"
        );
        assert_eq!(elems.len(), data.n_elems);
        CompactEbe {
            elems,
            data,
            faces,
            cb,
            c_m: coeffs.0,
            c_k: coeffs.1,
            c_b: coeffs.2,
            fixed,
            n_nodes: plan.0.n_nodes,
            plan,
            parallel,
            r,
            identity_on_fixed: true,
        }
    }

    /// Disable the Dirichlet identity rows (see `identity_on_fixed`).
    pub fn without_fixed_identity(mut self) -> Self {
        self.identity_on_fixed = false;
        self
    }

    /// `y = A x` for `R` fused right-hand sides: zero `y`, sweep the element
    /// and face blocks through the widest kernel instance this CPU runs,
    /// then the Dirichlet identity. The zero-fill is cut over the pool too:
    /// filled by the caller alone, half of `y` would sit modified in its
    /// cache when the other threads' blocks come to add into it.
    fn apply_r<const R: usize>(&self, x: &[f64], y: &mut [f64]) {
        // The scatter writes `y` unchecked: its length is part of the
        // safety argument, so it is checked in every build.
        assert_eq!(x.len(), 3 * self.n_nodes * R, "input multi-vector length");
        assert_eq!(y.len(), 3 * self.n_nodes * R, "output multi-vector length");
        if self.parallel {
            pool::for_each_mut([(&mut *y, ZERO_PIECE)], |_, [piece]| piece.fill(0.0));
        } else {
            y.fill(0.0);
        }
        // The scatter is a temporary: its borrow of `y` ends with the sweep.
        block_sweep_widest::<R>(self, x, &mut ColorScatter::new(y));
        // Dirichlet: identity on fixed DOFs
        if self.identity_on_fixed {
            FixedMask::new(self.fixed).fix_output_multi(x, y, R);
        }
    }

    fn dispatch(&self, x: &[f64], y: &mut [f64]) {
        match self.r {
            1 => self.apply_r::<1>(x, y),
            2 => self.apply_r::<2>(x, y),
            4 => self.apply_r::<4>(x, y),
            8 => self.apply_r::<8>(x, y),
            _ => unreachable!("validated in constructor"),
        }
    }

    /// Diagonal 3×3 blocks (block-Jacobi setup): computed by probing the
    /// reference tables per element, plus face and Dirichlet contributions.
    pub fn diagonal_blocks(&self) -> Vec<[f64; 9]> {
        let t = &self.data.tables;
        let grad_table: Vec<([f64; 40], f64)> =
            t.stiff_rule.iter().map(|qp| (dn_dl(qp.l), qp.w)).collect();
        let mut out = vec![[0.0f64; 9]; self.n_nodes];
        for (e, el) in self.elems.iter().enumerate() {
            let g = &self.data.geo[e * GEO_STRIDE..(e + 1) * GEO_STRIDE];
            let dl = [
                [g[0], g[1], g[2]],
                [g[3], g[4], g[5]],
                [g[6], g[7], g[8]],
                [g[9], g[10], g[11]],
            ];
            let (vol, rho, lam, mu) = (g[12], g[13], g[14], g[15]);
            for (k, &n) in el.iter().enumerate() {
                let blk = &mut out[n as usize];
                // mass diagonal block: c_m rho V Mhat_kk I
                let md = self.c_m * rho * vol * t.mhat[10 * k + k];
                blk[0] += md;
                blk[4] += md;
                blk[8] += md;
                // stiffness diagonal block via the quadrature loop
                for (gt, w) in &grad_table {
                    let mut gi = [0.0f64; 3];
                    for a in 0..4 {
                        let c = gt[4 * k + a];
                        gi[0] += c * dl[a][0];
                        gi[1] += c * dl[a][1];
                        gi[2] += c * dl[a][2];
                    }
                    let wv = self.c_k * vol * w;
                    let dot = gi[0] * gi[0] + gi[1] * gi[1] + gi[2] * gi[2];
                    for a in 0..3 {
                        for b in 0..3 {
                            blk[3 * a + b] += wv
                                * (lam * gi[a] * gi[b]
                                    + mu * (gi[b] * gi[a] + if a == b { dot } else { 0.0 }));
                        }
                    }
                }
            }
        }
        for (f, fc) in self.faces.iter().enumerate() {
            let cb = &self.cb[f * FACE_PACKED..(f + 1) * FACE_PACKED];
            for (k, &n) in fc.iter().enumerate() {
                let blk = &mut out[n as usize];
                for a in 0..3 {
                    for b in 0..3 {
                        blk[3 * a + b] += self.c_b * cb[packed_idx(3 * k + a, 3 * k + b)];
                    }
                }
            }
        }
        if !self.fixed.is_empty() {
            for n in 0..self.n_nodes {
                for a in 0..3 {
                    if self.fixed[3 * n + a] {
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
}

// ---------------------------------------------------------------------------
// The host kernel. Every flop works on `[f64; R]` lane arrays (one lane per
// fused right-hand side) with the lane loop innermost, every multiply-add is
// `f64::mul_add`, and all of it is `#[inline(always)]` into the chunk
// closures of the two instances at the bottom. A closure has the target
// features of the function it is *written in* (rustc ≥ 1.86, checked on
// 1.95: a closure inside the `#[target_feature]` instance compiles to
// `vfmadd`, the same closure inside an `#[inline(always)]` helper that the
// instance calls does not — it stays a symbol of its own at the helper's
// baseline features). So the closures the pool runs are written in the
// instances, and everything they call is inlined into them. `mul_add`
// rounds once whether it is a `vfmadd` or libm's `fma`, so both instances
// return the same bits.
// ---------------------------------------------------------------------------

/// `acc += a · x`, lane by lane.
#[inline(always)]
fn lanes_fma<const R: usize>(a: f64, x: &[f64; R], acc: &mut [f64; R]) {
    for c in 0..R {
        acc[c] = a.mul_add(x[c], acc[c]);
    }
}

/// Copy the lane arrays of a node list's DOFs out of `x`, fixed DOFs as
/// zero (the operator is `P A P`; one mask test per DOF serves all lanes).
#[inline(always)]
fn gather_lanes<const R: usize, const K: usize, const D: usize>(
    nodes: &[u32; K],
    x: &[[f64; R]],
    fixed: FixedMask<'_>,
) -> [[f64; R]; D] {
    let mut u = [[0.0f64; R]; D];
    for (k, &n) in nodes.iter().enumerate() {
        for a in 0..3 {
            let dof = 3 * n as usize + a;
            if !fixed.is_fixed(dof) {
                u[3 * k + a] = x[dof];
            }
        }
    }
    u
}

/// `y += (c_m M_e + c_k K_e) u` for one element, entirely from its compact
/// geometry record `g`; `u`, `y` are the element's 30 local DOFs.
///
/// Stiffness, per quadrature point (`∇L_a` the element's four barycentric
/// gradients, `u_ab` the mid-node of edge `(a, b)`):
/// `W_a = (4L_a−1) u_a + Σ_b 4L_b u_ab`, `H = Σ_a W_a ⊗ ∇L_a`,
/// `σ = w c_k V (λ tr ε I + 2μ ε)` with `ε = sym H`, `T_a = σ ∇L_a`,
/// `f_a += (4L_a−1) T_a`, `f_ab += 4L_b T_a + 4L_a T_b`. The ten physical
/// shape gradients `Σ_a dN_i/dL_a ∇L_a` are never formed: every
/// coefficient is a universal scalar or one of the element's 12 gradient
/// components, and every operand a lane array.
#[inline(always)]
fn element_lanes<const R: usize>(
    g: &[f64],
    t: &RefTables,
    c_m: f64,
    c_k: f64,
    u: &[[f64; R]; 30],
    y: &mut [[f64; R]; 30],
) {
    let dl = [
        [g[0], g[1], g[2]],
        [g[3], g[4], g[5]],
        [g[6], g[7], g[8]],
        [g[9], g[10], g[11]],
    ];
    let (vol, rho, lam, mu) = (g[12], g[13], g[14], g[15]);

    // --- mass: y += c_m rho V (Mhat ⊗ I3) u
    let mscale = c_m * rho * vol;
    if mscale != 0.0 {
        for i in 0..10 {
            let mut acc = [[0.0f64; R]; 3];
            for j in 0..10 {
                let mij = t.mhat[10 * i + j];
                for a in 0..3 {
                    lanes_fma(mij, &u[3 * j + a], &mut acc[a]);
                }
            }
            for a in 0..3 {
                lanes_fma(mscale, &acc[a], &mut y[3 * i + a]);
            }
        }
    }

    // --- stiffness
    let kscale = c_k * vol;
    if kscale != 0.0 {
        for qp in &t.stiff_rule {
            let wv = kscale * qp.w;
            let (lam_w, mu_w, mu2_w) = (wv * lam, wv * mu, 2.0 * (wv * mu));
            let mut cv = [0.0f64; 4]; // dN_a/dL_a = 4L_a − 1 (vertex a)
            let mut ce = [0.0f64; 4]; // 4L_a
            for a in 0..4 {
                cv[a] = 4.0 * qp.l[a] - 1.0;
                ce[a] = 4.0 * qp.l[a];
            }
            // W_a = Σ_i dN_i/dL_a u_i
            let mut w = [[[0.0f64; R]; 3]; 4];
            for a in 0..4 {
                for d in 0..3 {
                    for c in 0..R {
                        w[a][d][c] = cv[a] * u[3 * a + d][c];
                    }
                }
            }
            for (k, &(a, b)) in TET_EDGES.iter().enumerate() {
                for d in 0..3 {
                    let um = &u[3 * (4 + k) + d];
                    lanes_fma(ce[b], um, &mut w[a][d]);
                    lanes_fma(ce[a], um, &mut w[b][d]);
                }
            }
            // H[i][j] = Σ_a W_a[i] ∇L_a[j]
            let mut h = [[[0.0f64; R]; 3]; 3];
            for i in 0..3 {
                for j in 0..3 {
                    for c in 0..R {
                        h[i][j][c] = dl[0][j] * w[0][i][c];
                    }
                    for a in 1..4 {
                        lanes_fma(dl[a][j], &w[a][i], &mut h[i][j]);
                    }
                }
            }
            // σ (scaled by w c_k V), symmetric: s[i][j] for j ≥ i
            let mut s = [[[0.0f64; R]; 3]; 3];
            for c in 0..R {
                let lt = lam_w * (h[0][0][c] + h[1][1][c] + h[2][2][c]);
                s[0][0][c] = mu2_w.mul_add(h[0][0][c], lt);
                s[1][1][c] = mu2_w.mul_add(h[1][1][c], lt);
                s[2][2][c] = mu2_w.mul_add(h[2][2][c], lt);
                s[0][1][c] = mu_w * (h[0][1][c] + h[1][0][c]);
                s[0][2][c] = mu_w * (h[0][2][c] + h[2][0][c]);
                s[1][2][c] = mu_w * (h[1][2][c] + h[2][1][c]);
            }
            s[1][0] = s[0][1];
            s[2][0] = s[0][2];
            s[2][1] = s[1][2];
            // T_a = σ ∇L_a
            let mut ta = [[[0.0f64; R]; 3]; 4];
            for a in 0..4 {
                for i in 0..3 {
                    for c in 0..R {
                        ta[a][i][c] = dl[a][0] * s[i][0][c];
                    }
                    lanes_fma(dl[a][1], &s[i][1], &mut ta[a][i]);
                    lanes_fma(dl[a][2], &s[i][2], &mut ta[a][i]);
                }
            }
            // f_i += Σ_a dN_i/dL_a T_a
            for a in 0..4 {
                for i in 0..3 {
                    lanes_fma(cv[a], &ta[a][i], &mut y[3 * a + i]);
                }
            }
            for (k, &(a, b)) in TET_EDGES.iter().enumerate() {
                for i in 0..3 {
                    let ym = &mut y[3 * (4 + k) + i];
                    lanes_fma(ce[b], &ta[a][i], ym);
                    lanes_fma(ce[a], &ta[b][i], ym);
                }
            }
        }
    }
}

/// `y += c_b C_f u` for one face: the packed symmetric 18×18 product, each
/// stored entry applied to its row and its column.
#[inline(always)]
fn face_lanes<const R: usize>(c_b: f64, cb: &[f64], u: &[[f64; R]; 18], y: &mut [[f64; R]; 18]) {
    let mut idx = 0;
    for i in 0..18 {
        let mut acc = [0.0f64; R];
        for j in 0..i {
            let m = c_b * cb[idx];
            idx += 1;
            lanes_fma(m, &u[j], &mut acc);
            lanes_fma(m, &u[i], &mut y[j]);
        }
        lanes_fma(c_b * cb[idx], &u[i], &mut acc);
        idx += 1;
        for c in 0..R {
            y[i][c] += acc[c];
        }
    }
}

/// `y += A_e x` for the elements `elems` of block `block`, in stored order,
/// accumulated into `scatter`.
#[inline(always)]
fn element_chunk<const R: usize>(
    op: &CompactEbe<'_>,
    x: &[[f64; R]],
    scatter: &ColorScatter<'_>,
    block: u32,
    elems: Range<usize>,
) {
    let fixed = FixedMask::new(op.fixed);
    for e in elems {
        let el = &op.elems[e];
        let g = &op.data.geo[e * GEO_STRIDE..(e + 1) * GEO_STRIDE];
        let u: [[f64; R]; 30] = gather_lanes(el, x, fixed);
        let mut y = [[0.0f64; R]; 30];
        element_lanes(g, &op.data.tables, op.c_m, op.c_k, &u, &mut y);
        for (k, &n) in el.iter().enumerate() {
            for a in 0..3 {
                // SAFETY: `ScatterPlan` checked that the blocks of one
                // phase share no node and that every node id is below
                // `n_nodes`, and `apply_r` that the output holds
                // `3·n_nodes·R` slots: this DOF's `R` slots are in bounds,
                // no other block of this phase writes them, and this
                // block runs on this thread alone (`block_sweep`).
                #[allow(unsafe_code, reason = "the phased scatter of an element's lanes")]
                unsafe {
                    scatter.add_lanes(block, 3 * n as usize + a, &y[3 * k + a])
                };
            }
        }
    }
}

/// `y += c_b C_f x` for the dashpot faces `faces` of face block `block`.
#[inline(always)]
fn face_chunk<const R: usize>(
    op: &CompactEbe<'_>,
    x: &[[f64; R]],
    scatter: &ColorScatter<'_>,
    block: u32,
    faces: Range<usize>,
) {
    let fixed = FixedMask::new(op.fixed);
    for f in faces {
        let fc = &op.faces[f];
        let cb = &op.cb[f * FACE_PACKED..(f + 1) * FACE_PACKED];
        let u: [[f64; R]; 18] = gather_lanes(fc, x, fixed);
        let mut y = [[0.0f64; R]; 18];
        face_lanes(op.c_b, cb, &u, &mut y);
        for (k, &n) in fc.iter().enumerate() {
            for a in 0..3 {
                // SAFETY: as for the elements — the face runs passed the
                // same validation over `faces`.
                #[allow(unsafe_code, reason = "the phased scatter of a face's lanes")]
                unsafe {
                    scatter.add_lanes(block, 3 * n as usize + a, &y[3 * k + a])
                };
            }
        }
    }
}

/// One instance's block kernel: `(scatter, block id, entities of the block)`.
type BlockFn<'f> = &'f (dyn Fn(&ColorScatter<'_>, u32, Range<usize>) + Sync);

/// The sweep of one apply: the element phases in order, then (when
/// `c_b ≠ 0`) the face phases. A phase is one fork-join whose chunk `i` is
/// the phase's `i`-th block, walked front to back by whichever thread
/// claims it (`elems` / `faces`: an instance's `element_chunk` /
/// `face_chunk`); without `op.parallel` the calling thread walks the blocks
/// in the same order. Each row therefore sums its contributions in (phase,
/// block, entity) order whatever the thread count. The closure a phase
/// hands the pool borrows `&ColorScatter` until the pool's join returns, so
/// the next `begin_phase(&mut self)` is the point where one phase's writes
/// end and the next one's begin (DESIGN.md §8).
fn block_sweep(
    op: &CompactEbe<'_>,
    scatter: &mut ColorScatter<'_>,
    elems: BlockFn<'_>,
    faces: BlockFn<'_>,
) {
    let parallel = op.parallel;
    let mut sweep = |runs: &RunColoring, kernel: BlockFn<'_>| {
        for phase in &runs.phases {
            scatter.begin_phase();
            let scatter = &*scatter;
            let block = |i: usize| kernel(scatter, phase[i], runs.run(phase[i]));
            if parallel {
                pool::run(phase.len(), block);
            } else {
                (0..phase.len()).for_each(block);
            }
        }
    };
    sweep(&op.plan.0.elem_runs, elems);
    if op.c_b != 0.0 {
        sweep(&op.plan.0.face_runs, faces);
    }
}

/// [`block_sweep`] through the widest instance this CPU runs. `x` holds
/// `3·n_nodes·R` values (checked by the caller).
fn block_sweep_widest<const R: usize>(
    op: &CompactEbe<'_>,
    x: &[f64],
    scatter: &mut ColorScatter<'_>,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the CPU was just seen to support both features the
        // instance is compiled for.
        #[allow(unsafe_code, reason = "AVX2+FMA kernel after run-time detection")]
        return unsafe { block_sweep_avx2_fma::<R>(op, x, scatter) };
    }
    block_sweep_portable::<R>(op, x, scatter)
}

/// The kernel compiled for AVX2 + FMA: four lanes per register and
/// `mul_add` as one `vfmadd`. The block closures are written here so that
/// they carry these features onto whichever thread runs them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn block_sweep_avx2_fma<const R: usize>(
    op: &CompactEbe<'_>,
    x: &[f64],
    scatter: &mut ColorScatter<'_>,
) {
    let (x, _) = x.as_chunks::<R>();
    block_sweep(
        op,
        scatter,
        &|s, block, elems| element_chunk::<R>(op, x, s, block, elems),
        &|s, block, faces| face_chunk::<R>(op, x, s, block, faces),
    )
}

/// The kernel at the build's baseline features. Where those lack a fused
/// multiply-add (x86-64 before AVX2/FMA) `mul_add` is libm's `fma`: slow,
/// and the same bits.
fn block_sweep_portable<const R: usize>(
    op: &CompactEbe<'_>,
    x: &[f64],
    scatter: &mut ColorScatter<'_>,
) {
    let (x, _) = x.as_chunks::<R>();
    block_sweep(
        op,
        scatter,
        &|s, block, elems| element_chunk::<R>(op, x, s, block, elems),
        &|s, block, faces| face_chunk::<R>(op, x, s, block, faces),
    )
}

/// Analytic cost of one compact-EBE apply with `r` fused RHS over
/// `n_elems` elements, `n_faces` dashpot faces, and `n_dofs` unknowns.
pub fn compact_ebe_counts(n_elems: usize, n_faces: usize, n_dofs: usize, r: usize) -> KernelCounts {
    let rf = r as f64;
    let (ne, nf) = (n_elems as f64, n_faces as f64);
    KernelCounts {
        // mass ~600 r; stiffness: gradients 960 shared + (strain 180 +
        // stress 15 + forces 360) r per qp x 4 qps ≈ 2200 r; total per
        // element ≈ 960 + 2800 r (≈ paper's 3.8 kflop at r = 1).
        flops: ne * (960.0 + 2800.0 * rf) + nf * 648.0 * rf,
        // compact geometry (128 B) + ids (40 B) per element; faces cached.
        bytes_stream: ne * (GEO_STRIDE as f64 * 8.0 + 40.0) + nf * (171.0 * 8.0 + 24.0),
        // cache-filtered gather/scatter footprint (x read + q written).
        bytes_rand: 2.0 * 2.0 * n_dofs as f64 * 8.0 * rf,
        rand_transactions: 2.0 * (ne * 30.0 + nf * 18.0),
        rhs_fused: r,
    }
}

impl LinearOperator for CompactEbe<'_> {
    fn n(&self) -> usize {
        3 * self.n_nodes
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(self.r, 1, "use apply_multi for fused-RHS operators");
        self.dispatch(x, y);
    }

    fn counts(&self) -> KernelCounts {
        compact_ebe_counts(self.elems.len(), self.faces.len(), 3 * self.n_nodes, 1)
    }
}

impl MultiOperator for CompactEbe<'_> {
    fn n(&self) -> usize {
        3 * self.n_nodes
    }

    fn r(&self) -> usize {
        self.r
    }

    fn apply_multi(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), 3 * self.n_nodes * self.r);
        self.dispatch(x, y);
    }

    fn counts(&self) -> KernelCounts {
        compact_ebe_counts(self.elems.len(), self.faces.len(), 3 * self.n_nodes, self.r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{ElementKernel, ElementMatrices};
    use crate::model::FemProblem;
    use hetsolve_mesh::{box_tet10, BoxGrid, GroundModelSpec, InterfaceShape};
    use hetsolve_sparse::{assemble_global, Bcrs3};
    use proptest::prelude::*;

    fn problem() -> FemProblem {
        FemProblem::paper_like(&GroundModelSpec::paper_like(
            3,
            3,
            2,
            InterfaceShape::Stratified,
        ))
    }

    fn as_slice(mask: &crate::constraint::DofMask) -> Vec<bool> {
        (0..mask.n_dofs()).map(|d| mask.is_fixed(d)).collect()
    }

    /// Everything one test needs to build operators over the 3×3×2 mesh.
    struct Fixture {
        p: FemProblem,
        compact: CompactElements,
        fixed: Vec<bool>,
    }

    impl Fixture {
        fn new() -> Self {
            let p = problem();
            let compact = CompactElements::compute(&p.model.mesh, &p.materials);
            let fixed = as_slice(&p.mask);
            Fixture { p, compact, fixed }
        }

        fn op<'a>(
            &'a self,
            compact: &'a CompactElements,
            coeffs: (f64, f64, f64),
            fixed: &'a [bool],
            r: usize,
        ) -> CompactEbe<'a> {
            CompactEbe::new(
                self.p.n_nodes(),
                &self.p.model.mesh.elems,
                compact,
                &self.p.dashpots.faces,
                &self.p.dashpots.cb,
                coeffs,
                fixed,
                false,
                r,
            )
        }

        /// The full system operator `A` with the Dirichlet mask.
        fn op_a(&self, r: usize) -> CompactEbe<'_> {
            let a = self.p.a_coeffs();
            self.op(&self.compact, (a.c_m, a.c_k, a.c_b), &self.fixed, r)
        }

        /// Unmasked stiffness `K` alone.
        fn op_k<'a>(&'a self, compact: &'a CompactElements) -> CompactEbe<'a> {
            self.op(compact, (0.0, 1.0, 0.0), &[], 1)
        }

        /// The same operator `A` assembled from the packed element
        /// matrices (which integrate `∇N·∇N` products we do not factor),
        /// with the rows and columns of `fixed` eliminated.
        fn assembled(&self, fixed: &[bool]) -> Bcrs3 {
            let (p, a) = (&self.p, self.p.a_coeffs());
            let kernel = ElementKernel::new(&p.model.mesh, &p.materials);
            assemble_global(
                p.n_nodes(),
                &p.model.mesh.elems,
                |e, m, k| kernel.compute(e, m, k),
                a.c_m,
                a.c_k,
                &p.dashpots.faces,
                &p.dashpots.cb,
                a.c_b,
                fixed,
                false,
            )
        }

        /// Nodal field `u(X)` as a DOF vector.
        fn field(&self, u: impl Fn([f64; 3]) -> [f64; 3]) -> Vec<f64> {
            self.p
                .model
                .mesh
                .coords
                .iter()
                .flat_map(|&x| u(x))
                .collect()
        }
    }

    fn max_abs(v: &[f64]) -> f64 {
        v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    fn multi_wave(n: usize, r: usize) -> Vec<f64> {
        (0..n * r)
            .map(|k| (0.37 * (k / r) as f64 + 0.9 * (k % r) as f64).sin())
            .collect()
    }

    /// The 9,537-DOF mesh of the `hetbench` 10k workloads.
    fn problem_10k() -> FemProblem {
        FemProblem::paper_like(&GroundModelSpec::paper_like(8, 8, 5, InterfaceShape::Basin))
    }

    /// Handing the blocks of a phase to the pool changes no bit: every
    /// fused width, pools of one to four threads, on the 9,537-DOF mesh
    /// whose phases hold several blocks each.
    #[test]
    fn parallel_matches_sequential() {
        let p = problem_10k();
        let compact = CompactElements::compute(&p.model.mesh, &p.materials);
        let fixed = as_slice(&p.mask);
        let a = p.a_coeffs();
        let plan = ScatterPlan::validate(p.n_nodes(), &p.model.mesh.elems, &p.dashpots.faces);
        assert!(plan.0.elem_runs.phases.iter().all(|ph| ph.len() > 2));
        let mk = |par: bool, r: usize| {
            CompactEbe::with_plan(
                p.n_nodes(),
                &p.model.mesh.elems,
                &compact,
                &p.dashpots.faces,
                &p.dashpots.cb,
                (a.c_m, a.c_k, a.c_b),
                &fixed,
                &plan,
                par,
                r,
            )
        };
        let n = p.n_dofs();
        for r in [1usize, 2, 4, 8] {
            let x = multi_wave(n, r);
            let mut y_seq = vec![0.0; n * r];
            mk(false, r).apply_multi(&x, &mut y_seq);
            assert!(y_seq.iter().any(|&v| v != 0.0));
            let par = mk(true, r);
            for threads in 1..=4 {
                // stale contents: the pooled zero-fill must reach every slot
                let mut y_par = vec![f64::NAN; n * r];
                pool::Pool::with_threads(threads).install(|| par.apply_multi(&x, &mut y_par));
                assert!(
                    (0..n * r).all(|i| y_seq[i].to_bits() == y_par[i].to_bits()),
                    "r={r} threads={threads}"
                );
            }
        }
    }

    /// What the issue sized the sweep for: a handful of fork-joins per
    /// apply on the three bench meshes, where the colour sweep made ≈ 36.
    #[test]
    fn bench_meshes_need_at_most_eight_element_phases() {
        for (nx, ny, nz, shape, dofs) in [
            (4, 3, 2, InterfaceShape::Stratified, 945),
            (8, 8, 5, InterfaceShape::Basin, 9537),
            (16, 16, 8, InterfaceShape::Stratified, 55539),
        ] {
            let p = FemProblem::paper_like(&GroundModelSpec::paper_like(nx, ny, nz, shape));
            assert_eq!(p.n_dofs(), dofs);
            let plan = ScatterPlan::validate(p.n_nodes(), &p.model.mesh.elems, &p.dashpots.faces);
            let (elem_phases, face_phases) = plan.n_phases();
            assert!(elem_phases <= 8, "{dofs} DOF: {elem_phases} element phases");
            assert!(
                elem_phases + face_phases <= 12,
                "{dofs} DOF: {elem_phases} + {face_phases} phases"
            );
        }
    }

    /// Lane `c` of a width-`r` apply is bitwise the width-1 apply of
    /// column `c`: every flop of the kernel is lane-wise, so nothing
    /// crosses lanes. The set step's fused Newmark RHS rests on this. On
    /// the 9,537-DOF mesh, for `r` in {2, 4, 8}, the system operator `A`,
    /// the mass `M` and the damping `C` of the RHS, masked and unmasked,
    /// `parallel` on and off.
    #[test]
    fn multi_rhs_matches_single() {
        let p = problem_10k();
        let compact = CompactElements::compute(&p.model.mesh, &p.materials);
        let fixed = as_slice(&p.mask);
        let plan = ScatterPlan::validate(p.n_nodes(), &p.model.mesh.elems, &p.dashpots.faces);
        let (a, c) = (p.a_coeffs(), p.c_coeffs());
        let n = p.n_dofs();
        let ops = [
            ("A", (a.c_m, a.c_k, a.c_b)),
            ("M", (1.0, 0.0, 0.0)),
            ("C", (c.c_m, c.c_k, c.c_b)),
        ];
        for (name, coeffs) in ops {
            for mask in [&fixed[..], &[]] {
                for par in [false, true] {
                    let mk = |r: usize| {
                        CompactEbe::with_plan(
                            p.n_nodes(),
                            &p.model.mesh.elems,
                            &compact,
                            &p.dashpots.faces,
                            &p.dashpots.cb,
                            coeffs,
                            mask,
                            &plan,
                            par,
                            r,
                        )
                    };
                    let single = mk(1);
                    for r in [2usize, 4, 8] {
                        let x = multi_wave(n, r);
                        let mut y = vec![0.0; n * r];
                        mk(r).apply_multi(&x, &mut y);
                        let (mut xc, mut yc) = (vec![0.0; n], vec![0.0; n]);
                        for c in 0..r {
                            for i in 0..n {
                                xc[i] = x[i * r + c];
                            }
                            single.apply(&xc, &mut yc);
                            assert!(yc.iter().any(|&v| v != 0.0));
                            let masked = !mask.is_empty();
                            assert!(
                                (0..n).all(|i| y[i * r + c].to_bits() == yc[i].to_bits()),
                                "{name} masked={masked} parallel={par} r={r} lane {c}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn diagonal_blocks_match_assembled_matrix() {
        let fx = Fixture::new();
        let d1 = fx.op_a(1).diagonal_blocks();
        let d2 = fx.assembled(&fx.fixed).diagonal_blocks();
        let scale = d2
            .iter()
            .flat_map(|b| b.iter())
            .fold(0.0f64, |m, v| m.max(v.abs()));
        for n in 0..fx.p.n_nodes() {
            for k in 0..9 {
                assert!(
                    (d1[n][k] - d2[n][k]).abs() < 1e-9 * scale,
                    "node {n} entry {k}: {} vs {}",
                    d1[n][k],
                    d2[n][k]
                );
            }
        }
    }

    /// Rigid-body motions carry no strain: translations and infinitesimal
    /// rotations `ω × X` lie in the null space of `K`.
    #[test]
    fn rigid_motions_are_in_the_null_space_of_k() {
        let fx = Fixture::new();
        let k = fx.op_k(&fx.compact);
        let n = fx.p.n_dofs();
        // what K does to a displacement of the same size that does strain
        let sheared = fx.field(|x| [x[1], 0.0, 0.0]);
        let mut y = vec![0.0; n];
        k.apply(&sheared, &mut y);
        let scale = max_abs(&y);
        assert!(scale > 0.0);
        let motions: [&dyn Fn([f64; 3]) -> [f64; 3]; 6] = [
            &|_| [950.0, 0.0, 0.0],
            &|_| [0.0, 950.0, 0.0],
            &|_| [0.0, 0.0, 950.0],
            &|x| [0.0, -x[2], x[1]],
            &|x| [x[2], 0.0, -x[0]],
            &|x| [-x[1], x[0], 0.0],
        ];
        for (m, motion) in motions.iter().enumerate() {
            k.apply(&fx.field(motion), &mut y);
            assert!(
                max_abs(&y) < 1e-11 * scale,
                "rigid motion {m}: |K u| = {:e} against {scale:e}",
                max_abs(&y)
            );
        }
    }

    /// A linear displacement field in a homogeneous body has constant
    /// stress, so the internal forces cancel at every interior node.
    #[test]
    fn linear_field_gives_zero_force_on_interior_nodes() {
        let fx = Fixture::new();
        let homogeneous = vec![fx.p.materials[0]; fx.p.materials.len()];
        let compact = CompactElements::compute(&fx.p.model.mesh, &homogeneous);
        let k = fx.op_k(&compact);
        let u = fx.field(|x| {
            [
                1e-3 * x[0] + 2e-3 * x[1] - 1e-3 * x[2],
                -3e-3 * x[0] + 1e-3 * x[1] + 2e-3 * x[2],
                2e-3 * x[0] - 1e-3 * x[1] + 3e-3 * x[2],
            ]
        });
        let mut y = vec![0.0; fx.p.n_dofs()];
        k.apply(&u, &mut y);
        let scale = max_abs(&y); // the boundary tractions
        assert!(scale > 0.0);
        let coords = &fx.p.model.mesh.coords;
        let (mut lo, mut hi) = ([f64::MAX; 3], [f64::MIN; 3]);
        for x in coords {
            for d in 0..3 {
                lo[d] = lo[d].min(x[d]);
                hi[d] = hi[d].max(x[d]);
            }
        }
        let mut interior = 0;
        for (n, x) in coords.iter().enumerate() {
            if (0..3).all(|d| x[d] > lo[d] + 1e-6 && x[d] < hi[d] - 1e-6) {
                interior += 1;
                for d in 0..3 {
                    assert!(
                        y[3 * n + d].abs() < 1e-11 * scale,
                        "interior node {n} dir {d}: {:e} against {scale:e}",
                        y[3 * n + d]
                    );
                }
            }
        }
        assert!(interior > 0, "the mesh has no interior node");
    }

    /// The consistent mass matrix carries the body's mass:
    /// `1ᵀ M 1 = Σ_e ρ_e V_e` in each direction, nothing across directions.
    #[test]
    fn mass_matrix_sums_to_the_total_mass() {
        let fx = Fixture::new();
        let m = fx.op(&fx.compact, (1.0, 0.0, 0.0), &[], 1);
        let total: f64 = fx
            .compact
            .geo
            .chunks_exact(GEO_STRIDE)
            .map(|g| g[13] * g[12])
            .sum();
        let n = fx.p.n_dofs();
        let mut y = vec![0.0; n];
        for d in 0..3 {
            let ones: Vec<f64> = (0..n).map(|i| if i % 3 == d { 1.0 } else { 0.0 }).collect();
            m.apply(&ones, &mut y);
            for e in 0..3 {
                let sum: f64 = y.iter().skip(e).step_by(3).sum();
                let expect = if e == d { total } else { 0.0 };
                assert!(
                    (sum - expect).abs() < 1e-12 * total,
                    "direction {d} onto {e}: {sum} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn operator_is_symmetric() {
        let fx = Fixture::new();
        let a = fx.op_a(1);
        let n = fx.p.n_dofs();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73).cos()).collect();
        let (mut ax, mut ay) = (vec![0.0; n], vec![0.0; n]);
        a.apply(&x, &mut ax);
        a.apply(&y, &mut ay);
        let dot = |u: &[f64], v: &[f64]| u.iter().zip(v).map(|(a, b)| a * b).sum::<f64>();
        let (xay, yax) = (dot(&x, &ay), dot(&y, &ax));
        let scale = max_abs(&ax) * n as f64;
        assert!((xay - yax).abs() < 1e-13 * scale, "{xay} vs {yax}");
    }

    /// `y = a x` for an interleaved `r`-lane multi-vector, lane by lane.
    fn apply_lanes(a: &Bcrs3, x: &[f64], r: usize) -> Vec<f64> {
        let n = a.n();
        let mut y = vec![0.0; n * r];
        let (mut xc, mut yc) = (vec![0.0; n], vec![0.0; n]);
        for c in 0..r {
            for i in 0..n {
                xc[i] = x[i * r + c];
            }
            a.apply(&xc, &mut yc);
            for i in 0..n {
                y[i * r + c] = yc[i];
            }
        }
        y
    }

    /// The compact kernel at every fused width against the assembled
    /// matrix applied lane by lane, with the Dirichlet identity and
    /// without it.
    #[test]
    fn compact_matches_assembled_matrix() {
        let fx = Fixture::new();
        let (masked, unmasked) = (fx.assembled(&fx.fixed), fx.assembled(&[]));
        let n = fx.p.n_dofs();
        for r in [1usize, 2, 4, 8] {
            let x = multi_wave(n, r);
            let mut y = vec![0.0; n * r];

            fx.op_a(r).apply_multi(&x, &mut y);
            let y_ref = apply_lanes(&masked, &x, r);
            let scale = max_abs(&y_ref);
            for i in 0..n * r {
                assert!((y[i] - y_ref[i]).abs() < 1e-9 * scale, "r={r} slot {i}");
            }

            // without the identity the fixed rows hold (A P x)[fixed]: the
            // matrix assembled without the mask applied to the masked input
            fx.op_a(r).without_fixed_identity().apply_multi(&x, &mut y);
            let mut px = x.clone();
            for (dof, _) in fx.fixed.iter().enumerate().filter(|(_, &f)| f) {
                px[dof * r..(dof + 1) * r].fill(0.0);
            }
            let y_ref = apply_lanes(&unmasked, &px, r);
            for i in 0..n * r {
                assert!(
                    (y[i] - y_ref[i]).abs() < 1e-9 * scale,
                    "r={r} slot {i} (no identity)"
                );
            }
        }
    }

    /// `mul_add` rounds once on every path, so the AVX2+FMA instance and the
    /// portable one agree to the bit (what keeps checkpoints portable).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dispatched_instance_matches_portable_bitwise() {
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            eprintln!("skipped: this CPU lacks AVX2 or FMA");
            return;
        }
        fn check<const R: usize>(fx: &Fixture) {
            // no identity rows: the output is exactly what the passes scatter
            let op = fx.op_a(R).without_fixed_identity();
            let n = fx.p.n_dofs();
            let x = multi_wave(n, R);
            let mut y = vec![0.0; n * R];
            op.apply_multi(&x, &mut y);
            let mut y_portable = vec![0.0; n * R];
            block_sweep_portable::<R>(&op, &x, &mut ColorScatter::new(&mut y_portable));
            assert!(y.iter().any(|&v| v != 0.0));
            for i in 0..n * R {
                assert_eq!(y[i].to_bits(), y_portable[i].to_bits(), "R={R} slot {i}");
            }
        }
        let fx = Fixture::new();
        check::<1>(&fx);
        check::<2>(&fx);
        check::<4>(&fx);
        check::<8>(&fx);
    }

    /// A plan stands for the buffers it was validated against, no others.
    #[test]
    #[should_panic(expected = "validated against a different mesh")]
    fn plan_is_rejected_for_other_buffers() {
        let fx = Fixture::new();
        let p = &fx.p;
        let plan = ScatterPlan::validate(p.n_nodes(), &p.model.mesh.elems, &p.dashpots.faces);
        let other = p.model.mesh.elems.clone();
        let _ = CompactEbe::with_plan(
            p.n_nodes(),
            &other,
            &fx.compact,
            &p.dashpots.faces,
            &p.dashpots.cb,
            (1.0, 1.0, 0.0),
            &[],
            &plan,
            false,
            1,
        );
    }

    #[test]
    fn planned_operator_equals_validating_one() {
        let fx = Fixture::new();
        let p = &fx.p;
        let a = p.a_coeffs();
        let plan = ScatterPlan::validate(p.n_nodes(), &p.model.mesh.elems, &p.dashpots.faces);
        let planned = CompactEbe::with_plan(
            p.n_nodes(),
            &p.model.mesh.elems,
            &fx.compact,
            &p.dashpots.faces,
            &p.dashpots.cb,
            (a.c_m, a.c_k, a.c_b),
            &fx.fixed,
            &plan,
            false,
            4,
        );
        let n = p.n_dofs();
        let x = multi_wave(n, 4);
        let (mut y1, mut y2) = (vec![0.0; 4 * n], vec![0.0; 4 * n]);
        planned.apply_multi(&x, &mut y1);
        fx.op_a(4).apply_multi(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    /// `runs` with its last phase's first run moved into the first phase
    /// that holds a run it shares a node with (`None` when every run sits
    /// alone on its nodes, e.g. a mesh of one run).
    fn corrupted<const K: usize>(
        connectivity: &[[u32; K]],
        runs: &RunColoring,
    ) -> Option<RunColoring> {
        let mut bad = runs.clone();
        let moved = bad.phases.last_mut()?.remove(0);
        let shares_a_node = |other: u32| {
            let mine = &connectivity[runs.run(moved)];
            connectivity[runs.run(other)]
                .iter()
                .flatten()
                .any(|n| mine.iter().flatten().any(|m| m == n))
        };
        let target = (0..bad.phases.len() - 1)
            .find(|&p| bad.phases[p].iter().any(|&other| shares_a_node(other)))?;
        bad.phases[target].push(moved);
        bad.phases.retain(|ph| !ph.is_empty());
        Some(bad)
    }

    /// The validator fires before any scatter: a run moved into a phase
    /// where it shares a node panics with the offending pair.
    #[test]
    #[should_panic(expected = "would race")]
    fn rejects_corrupted_coloring() {
        let p = problem_10k();
        let (n, elems) = (p.n_nodes(), &p.model.mesh.elems);
        let bad = corrupted(elems, &color_runs(n, elems, RUN_LEN)).expect("runs share nodes");
        let _ = ScatterPlan::with_runs(n, elems, &[], bad, color_runs::<6>(n, &[], RUN_LEN));
    }

    fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random box grids × run lengths × Dirichlet masks: the plan
        /// validates and covers every element exactly once, and its sweep
        /// on a two-thread pool returns the serial walk's bits, twice over.
        /// With a run moved into a phase where it shares a node,
        /// `with_runs` panics; where the claim table is on (debug builds,
        /// `--features racecheck`), a sweep under that plan (smuggled past
        /// the validator) panics at the offending write with both block ids.
        #[test]
        fn run_plans_validate_and_corrupted_ones_are_caught(
            nx in 1usize..=4,
            ny in 1usize..=3,
            nz in 1usize..=3,
            run_len in 1usize..=40,
            mask_seed in any::<u64>(),
        ) {
            let mesh = box_tet10(&BoxGrid::new(nx, ny, nz, 1.0, 1.0, 1.0));
            let (n, elems) = (mesh.n_nodes(), &mesh.elems);
            let runs = color_runs(n, elems, run_len);
            let no_faces = || color_runs::<6>(n, &[], run_len);
            let mut covered = vec![0u32; elems.len()];
            for &run in runs.phases.iter().flatten() {
                for e in runs.run(run) {
                    covered[e] += 1;
                }
            }
            prop_assert!(covered.iter().all(|&c| c == 1));
            let plan = ScatterPlan::with_runs(n, elems, &[], runs.clone(), no_faces());

            // about one DOF in four fixed
            let mut s = mask_seed | 1;
            let fixed: Vec<bool> = (0..3 * n)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    s >> 62 == 0
                })
                .collect();
            let data = CompactElements::compute(&mesh, &[Material::new(1800.0, 200.0, 700.0)]);
            let op = |parallel| {
                CompactEbe::with_plan(
                    n, elems, &data, &[], &[], (1.0, 1.0, 0.0), &fixed, &plan, parallel, 1,
                )
            };
            let x = multi_wave(3 * n, 1);
            let mut serial = vec![0.0; 3 * n];
            op(false).apply(&x, &mut serial);
            let (par, mut y1, mut y2) = (op(true), vec![f64::NAN; 3 * n], vec![f64::NAN; 3 * n]);
            pool::Pool::with_threads(2).install(|| {
                par.apply(&x, &mut y1);
                par.apply(&x, &mut y2);
            });
            for i in 0..3 * n {
                prop_assert_eq!(y1[i].to_bits(), serial[i].to_bits(), "pooled vs serial, DOF {}", i);
                prop_assert_eq!(y2[i].to_bits(), y1[i].to_bits(), "second apply, DOF {}", i);
            }

            let Some(bad) = corrupted(elems, &runs) else { return Ok(()) };
            let refused = catch(|| ScatterPlan::with_runs(n, elems, &[], bad.clone(), no_faces()));
            prop_assert!(refused.unwrap_err().contains("would race"));

            if ColorScatter::racecheck_enabled() {
                let smuggled = ScatterPlan(Arc::new(Sweep { elem_runs: bad, ..(*plan.0).clone() }));
                let op = CompactEbe::with_plan(
                    n, elems, &data, &[], &[], (1.0, 1.0, 0.0), &[], &smuggled, true, 1,
                );
                let x = multi_wave(3 * n, 1);
                let mut y = vec![0.0; 3 * n];
                let raced = catch(|| op.apply(&x, &mut y)).unwrap_err();
                prop_assert!(raced.contains("parcheck: race on output slot"), "{}", raced);
                prop_assert!(raced.contains("blocks "), "{}", raced);
            }
        }
    }

    #[test]
    fn compact_memory_is_much_smaller() {
        let p = problem();
        let compact = CompactElements::compute(&p.model.mesh, &p.materials);
        let elements = ElementMatrices::compute(&p.model.mesh, &p.materials);
        assert!(compact.bytes() * 20 < elements.bytes());
    }

    /// The paper's CRS-vs-EBE trade on one problem: the compact apply does
    /// more arithmetic than the assembled matrix's and streams far fewer
    /// bytes. On this mesh the ratios are 4.70× the flops, 1/4.72 of the
    /// streamed bytes and 17.9× the intensity (the compact apply streams
    /// each dashpot face's packed matrix, which on a mesh this small
    /// outweighs the elements' geometry); the thresholds sit just below.
    #[test]
    fn compact_counts_are_compute_heavy() {
        let fx = Fixture::new();
        let ebe = LinearOperator::counts(&fx.op_a(1));
        let crs = fx.assembled(&fx.fixed).counts();
        assert!(ebe.flops > 4.0 * crs.flops);
        assert!(ebe.bytes_stream * 4.0 < crs.bytes_stream);
        assert!(ebe.intensity() > 15.0 * crs.intensity());
    }
}
