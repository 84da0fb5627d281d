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
//! (32 B) + 40 B of node ids ≈ 168 B — versus 7.4 KB for cached packed
//! matrices, a ~44× traffic reduction that turns the kernel compute-bound.

use std::borrow::Cow;

use hetsolve_mesh::mesh::TET_EDGES;
use hetsolve_mesh::{validate_groups, Coloring, Material, TetMesh10};
use hetsolve_pool as pool;
use hetsolve_sparse::dirichlet::FixedMask;
use hetsolve_sparse::ebe::color_faces;
use hetsolve_sparse::op::{KernelCounts, LinearOperator, MultiOperator};
use hetsolve_sparse::parcheck::{ColorScatter, GROUP_CHUNK};
use hetsolve_sparse::sym::{packed_idx, packed_len};

use crate::quad::{tet_rule_deg2, tet_rule_deg5, TetQp};
use crate::shape::{tet10_shape, tet_bary_gradients};

/// f64 slots per element in the geometry table: 12 (∇L) + 1 (V) + 3 (ρ,λ,μ).
pub const GEO_STRIDE: usize = 16;

/// Packed entries of one 18×18 symmetric face dashpot matrix.
const FACE_PACKED: usize = packed_len(18);

/// Universal reference tables shared by all elements (computed once).
#[derive(Debug, Clone)]
pub struct RefTables {
    /// `Σ_qp w N_i N_j` over the degree-5 rule, row-major 10×10.
    pub mhat: [f64; 100],
    /// Stiffness rule (degree 2). `dN_i/dL_a` at a point is universal:
    /// `4L_a − 1` for vertex `a`, `4L_b` / `4L_a` for the mid-node of edge
    /// `(a, b)`, zero otherwise (see [`dn_dl`]).
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
    pub fn build() -> Self {
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

/// Proof that the colored scatter of one mesh is race-free and in bounds,
/// so that operators over it need not re-derive it: the element coloring
/// passed [`validate_groups`], and the dashpot faces were colored and that
/// coloring passed it too. Only [`ScatterPlan::validate`] builds one (the
/// fields are private), and an operator accepts it only for the very
/// buffers it was validated against ([`CompactEbe::with_plan`]) — owners
/// that build many operators over one mesh (`Backend`) validate once.
#[derive(Debug, Clone)]
pub struct ScatterPlan {
    n_nodes: usize,
    elems: (usize, usize),
    faces: (usize, usize),
    groups: (usize, usize),
    face_groups: Vec<Vec<u32>>,
}

impl ScatterPlan {
    /// Validate `coloring` over `elems`, color `faces` and validate that
    /// coloring. Panics with the offending pair on a coloring that would
    /// race (see `hetsolve_sparse::parcheck`).
    pub fn validate(
        n_nodes: usize,
        elems: &[[u32; 10]],
        faces: &[[u32; 6]],
        coloring: &Coloring,
    ) -> Self {
        assert_eq!(coloring.color.len(), elems.len());
        if let Err(c) = validate_groups(n_nodes, elems, &coloring.groups) {
            panic!("ScatterPlan::validate: element {c}");
        }
        let face_groups = color_faces(n_nodes, faces);
        if let Err(c) = validate_groups(n_nodes, faces, &face_groups) {
            panic!("ScatterPlan::validate: face {c}");
        }
        ScatterPlan {
            n_nodes,
            elems: slice_id(elems),
            faces: slice_id(faces),
            groups: slice_id(&coloring.groups),
            face_groups,
        }
    }

    /// Panic unless this plan was validated against exactly these buffers.
    /// (Editing a validated buffer in place afterwards is not detected;
    /// owners keep plan and buffers together and immutable.)
    fn assert_covers(
        &self,
        n_nodes: usize,
        elems: &[[u32; 10]],
        faces: &[[u32; 6]],
        coloring: &Coloring,
    ) {
        assert!(
            self.n_nodes == n_nodes
                && self.elems == slice_id(elems)
                && self.faces == slice_id(faces)
                && self.groups == slice_id(&coloring.groups),
            "ScatterPlan was validated against a different mesh or coloring"
        );
    }
}

/// The compact matrix-free operator `c_m M + c_k K + c_b C_b` over a Tet10
/// mesh with optional boundary dashpots and Dirichlet mask.
///
/// The connectivity, coloring and fused width are private: the unsafe
/// scatter relies on the validation they passed at construction.
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
    coloring: &'a Coloring,
    face_groups: Cow<'a, [Vec<u32>]>,
    /// Split each color group into [`GROUP_CHUNK`]-entity chunks on the
    /// host pool; `false` walks every group on the calling thread. Writes
    /// within a color are disjoint, so the bits are the same.
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
    /// Build the operator, validating the coloring (and coloring the
    /// faces) on the spot. Owners that build many operators over one mesh
    /// validate once and use [`Self::with_plan`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n_nodes: usize,
        elems: &'a [[u32; 10]],
        data: &'a CompactElements,
        faces: &'a [[u32; 6]],
        cb: &'a [f64],
        coeffs: (f64, f64, f64),
        fixed: &'a [bool],
        coloring: &'a Coloring,
        parallel: bool,
        r: usize,
    ) -> Self {
        let plan = ScatterPlan::validate(n_nodes, elems, faces, coloring);
        Self::build(
            n_nodes,
            elems,
            data,
            faces,
            cb,
            coeffs,
            fixed,
            coloring,
            Cow::Owned(plan.face_groups),
            parallel,
            r,
        )
    }

    /// [`Self::new`] without re-validating: `plan` is the proof that these
    /// very buffers were validated (anything else panics).
    #[allow(clippy::too_many_arguments)]
    pub fn with_plan(
        n_nodes: usize,
        elems: &'a [[u32; 10]],
        data: &'a CompactElements,
        faces: &'a [[u32; 6]],
        cb: &'a [f64],
        coeffs: (f64, f64, f64),
        fixed: &'a [bool],
        coloring: &'a Coloring,
        plan: &'a ScatterPlan,
        parallel: bool,
        r: usize,
    ) -> Self {
        plan.assert_covers(n_nodes, elems, faces, coloring);
        Self::build(
            n_nodes,
            elems,
            data,
            faces,
            cb,
            coeffs,
            fixed,
            coloring,
            Cow::Borrowed(&plan.face_groups),
            parallel,
            r,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        n_nodes: usize,
        elems: &'a [[u32; 10]],
        data: &'a CompactElements,
        faces: &'a [[u32; 6]],
        cb: &'a [f64],
        coeffs: (f64, f64, f64),
        fixed: &'a [bool],
        coloring: &'a Coloring,
        face_groups: Cow<'a, [Vec<u32>]>,
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
            n_nodes,
            coloring,
            face_groups,
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

    /// `y = A x` for `R` fused right-hand sides: zero `y`, run the colored
    /// element and face passes through the widest kernel instance this CPU
    /// runs, then the Dirichlet identity. (Zero-fill and identity stay on
    /// the calling thread: ≈ 2 % of the apply.)
    fn apply_r<const R: usize>(&self, x: &[f64], y: &mut [f64]) {
        // The scatter writes `y` unchecked: its length is part of the
        // safety argument, so it is checked in every build.
        assert_eq!(x.len(), 3 * self.n_nodes * R, "input multi-vector length");
        assert_eq!(y.len(), 3 * self.n_nodes * R, "output multi-vector length");
        y.fill(0.0);
        let mut scatter = ColorScatter::new(y);
        colored_passes_widest::<R>(self, x, &mut scatter);
        drop(scatter);
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

/// `y += A_e x` for the elements `elems` of one color group (a whole group
/// or one chunk of it), accumulated into `scatter`.
#[inline(always)]
fn element_chunk<const R: usize>(
    op: &CompactEbe<'_>,
    x: &[[f64; R]],
    scatter: &ColorScatter<'_>,
    elems: &[u32],
) {
    let fixed = FixedMask::new(op.fixed);
    for &e in elems {
        let el = &op.elems[e as usize];
        let g = &op.data.geo[e as usize * GEO_STRIDE..(e as usize + 1) * GEO_STRIDE];
        let u: [[f64; R]; 30] = gather_lanes(el, x, fixed);
        let mut y = [[0.0f64; R]; 30];
        element_lanes(g, &op.data.tables, op.c_m, op.c_k, &u, &mut y);
        for (k, &n) in el.iter().enumerate() {
            for a in 0..3 {
                // SAFETY: `ScatterPlan::validate` checked that the
                // elements of one color group share no node and that
                // every node id is below `n_nodes`, and `apply_r` that
                // the output holds `3·n_nodes·R` slots: this DOF's `R`
                // slots are in bounds and no other element of this
                // pass — on this thread or another — writes them.
                unsafe { scatter.add_lanes(e, 3 * n as usize + a, &y[3 * k + a]) };
            }
        }
    }
}

/// `y += c_b C_f x` for the dashpot faces `faces` of one face color group.
#[inline(always)]
fn face_chunk<const R: usize>(
    op: &CompactEbe<'_>,
    x: &[[f64; R]],
    scatter: &ColorScatter<'_>,
    faces: &[u32],
) {
    let fixed = FixedMask::new(op.fixed);
    for &f in faces {
        let fc = &op.faces[f as usize];
        let cb = &op.cb[f as usize * FACE_PACKED..(f as usize + 1) * FACE_PACKED];
        let u: [[f64; R]; 18] = gather_lanes(fc, x, fixed);
        let mut y = [[0.0f64; R]; 18];
        face_lanes(op.c_b, cb, &u, &mut y);
        for (k, &n) in fc.iter().enumerate() {
            for a in 0..3 {
                // SAFETY: as for the elements — the face coloring
                // passed the same validation over `faces`.
                unsafe { scatter.add_lanes(f, 3 * n as usize + a, &y[3 * k + a]) };
            }
        }
    }
}

/// All colored passes of one apply: elements color by color, then (when
/// `c_b ≠ 0`) the dashpot faces color by color. `elems` / `faces` run one
/// chunk of a group (an instance's `element_chunk` / `face_chunk`); with
/// `op.parallel` a group's chunks run on the host pool. The closure a pass
/// hands the pool borrows `&ColorScatter` until the pool's join returns, so
/// the next `begin_color(&mut self)` is still the point where one color's
/// writes end and the next one's begin (DESIGN.md §8).
fn colored_passes(
    op: &CompactEbe<'_>,
    scatter: &mut ColorScatter<'_>,
    elems: impl Fn(&ColorScatter<'_>, &[u32]) + Sync,
    faces: impl Fn(&ColorScatter<'_>, &[u32]) + Sync,
) {
    let parallel = op.parallel;
    let pass = |scatter: &ColorScatter<'_>,
                group: &[u32],
                chunk: &(dyn Fn(&ColorScatter<'_>, &[u32]) + Sync)| {
        if parallel {
            pool::for_each_chunk(group, GROUP_CHUNK, |_, part| chunk(scatter, part));
        } else {
            chunk(scatter, group);
        }
    };
    for group in &op.coloring.groups {
        scatter.begin_color();
        pass(scatter, group, &elems);
    }
    if op.c_b != 0.0 {
        for group in op.face_groups.iter() {
            scatter.begin_color();
            pass(scatter, group, &faces);
        }
    }
}

/// [`colored_passes`] through the widest instance this CPU runs. `x` holds
/// `3·n_nodes·R` values (checked by the caller).
fn colored_passes_widest<const R: usize>(
    op: &CompactEbe<'_>,
    x: &[f64],
    scatter: &mut ColorScatter<'_>,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the CPU was just seen to support both features the
        // instance is compiled for.
        return unsafe { colored_passes_avx2_fma::<R>(op, x, scatter) };
    }
    colored_passes_portable::<R>(op, x, scatter)
}

/// The kernel compiled for AVX2 + FMA: four lanes per register and
/// `mul_add` as one `vfmadd`. The chunk closures are written here so that
/// they carry these features onto whichever thread runs them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn colored_passes_avx2_fma<const R: usize>(
    op: &CompactEbe<'_>,
    x: &[f64],
    scatter: &mut ColorScatter<'_>,
) {
    let (x, _) = x.as_chunks::<R>();
    colored_passes(
        op,
        scatter,
        |s, elems| element_chunk::<R>(op, x, s, elems),
        |s, faces| face_chunk::<R>(op, x, s, faces),
    )
}

/// The kernel at the build's baseline features. Where those lack a fused
/// multiply-add (x86-64 before AVX2/FMA) `mul_add` is libm's `fma`: slow,
/// and the same bits.
fn colored_passes_portable<const R: usize>(
    op: &CompactEbe<'_>,
    x: &[f64],
    scatter: &mut ColorScatter<'_>,
) {
    let (x, _) = x.as_chunks::<R>();
    colored_passes(
        op,
        scatter,
        |s, elems| element_chunk::<R>(op, x, s, elems),
        |s, faces| face_chunk::<R>(op, x, s, faces),
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
    use crate::model::FemProblem;
    use hetsolve_mesh::{color_elements, GroundModelSpec, InterfaceShape};
    use hetsolve_sparse::ebe::{EbeData, EbeOperator};

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
        coloring: Coloring,
        compact: CompactElements,
        fixed: Vec<bool>,
    }

    impl Fixture {
        fn new() -> Self {
            let p = problem();
            let coloring = color_elements(&p.model.mesh);
            let compact = CompactElements::compute(&p.model.mesh, &p.materials);
            let fixed = as_slice(&p.mask);
            Fixture {
                p,
                coloring,
                compact,
                fixed,
            }
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
                &self.coloring,
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

        /// The same operator `A` as cached element matrices.
        fn cached<'a>(&'a self, fixed: &'a [bool]) -> EbeData<'a> {
            let (p, a) = (&self.p, self.p.a_coeffs());
            EbeData {
                n_nodes: p.n_nodes(),
                elems: &p.model.mesh.elems,
                me: &p.elements().me,
                ke: &p.elements().ke,
                faces: &p.dashpots.faces,
                cb: &p.dashpots.cb,
                c_m: a.c_m,
                c_k: a.c_k,
                c_b: a.c_b,
                fixed,
            }
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

    /// Splitting the color groups over the pool changes no bit: every
    /// fused width, pools of one to four threads, on the 9,537-DOF mesh
    /// whose groups are up to four chunks long.
    #[test]
    fn parallel_matches_sequential() {
        let p =
            FemProblem::paper_like(&GroundModelSpec::paper_like(8, 8, 5, InterfaceShape::Basin));
        let coloring = color_elements(&p.model.mesh);
        assert!(coloring.groups.iter().any(|g| g.len() > 2 * GROUP_CHUNK));
        let compact = CompactElements::compute(&p.model.mesh, &p.materials);
        let fixed = as_slice(&p.mask);
        let a = p.a_coeffs();
        let mk = |par: bool, r: usize| {
            CompactEbe::new(
                p.n_nodes(),
                &p.model.mesh.elems,
                &compact,
                &p.dashpots.faces,
                &p.dashpots.cb,
                (a.c_m, a.c_k, a.c_b),
                &fixed,
                &coloring,
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
    fn multi_rhs_matches_single() {
        let fx = Fixture::new();
        let n = fx.p.n_dofs();
        let single = fx.op_a(1);
        for r in [2usize, 4, 8] {
            let x = multi_wave(n, r);
            let mut y = vec![0.0; n * r];
            fx.op_a(r).apply_multi(&x, &mut y);
            for c in 0..r {
                let xc: Vec<f64> = (0..n).map(|i| x[i * r + c]).collect();
                let mut yc = vec![0.0; n];
                single.apply(&xc, &mut yc);
                let scale = max_abs(&yc);
                for i in 0..n {
                    assert!(
                        (y[i * r + c] - yc[i]).abs() < 1e-9 * scale,
                        "r={r} case {c} dof {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn diagonal_blocks_match_cached_ebe() {
        let fx = Fixture::new();
        let d1 = fx.op_a(1).diagonal_blocks();
        let d2 = EbeOperator::new(fx.cached(&fx.fixed), &fx.coloring, false).diagonal_blocks();
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

    /// The compact kernel against the cached-matrix operator (which
    /// integrates `∇N·∇N` element matrices we do not factor) at every fused
    /// width, with the Dirichlet identity and without it.
    #[test]
    fn compact_matches_cached_matrices() {
        let fx = Fixture::new();
        let n = fx.p.n_dofs();
        for r in [1usize, 2, 4, 8] {
            let x = multi_wave(n, r);
            let (mut y, mut y_ref) = (vec![0.0; n * r], vec![0.0; n * r]);

            fx.op_a(r).apply_multi(&x, &mut y);
            EbeOperator::new(fx.cached(&fx.fixed), &fx.coloring, false)
                .fused(r)
                .apply_multi(&x, &mut y_ref);
            let scale = max_abs(&y_ref);
            for i in 0..n * r {
                assert!((y[i] - y_ref[i]).abs() < 1e-9 * scale, "r={r} slot {i}");
            }

            // without the identity the fixed rows hold (A P x)[fixed]: the
            // unmasked cached operator applied to the masked input
            fx.op_a(r).without_fixed_identity().apply_multi(&x, &mut y);
            let mut px = x.clone();
            for (dof, _) in fx.fixed.iter().enumerate().filter(|(_, &f)| f) {
                px[dof * r..(dof + 1) * r].fill(0.0);
            }
            EbeOperator::new(fx.cached(&[]), &fx.coloring, false)
                .fused(r)
                .apply_multi(&px, &mut y_ref);
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
            let mut scatter = ColorScatter::new(&mut y_portable);
            colored_passes_portable::<R>(&op, &x, &mut scatter);
            drop(scatter);
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
    #[should_panic(expected = "validated against a different mesh or coloring")]
    fn plan_is_rejected_for_other_buffers() {
        let fx = Fixture::new();
        let p = &fx.p;
        let plan = ScatterPlan::validate(
            p.n_nodes(),
            &p.model.mesh.elems,
            &p.dashpots.faces,
            &fx.coloring,
        );
        let other = fx.coloring.clone();
        let _ = CompactEbe::with_plan(
            p.n_nodes(),
            &p.model.mesh.elems,
            &fx.compact,
            &p.dashpots.faces,
            &p.dashpots.cb,
            (1.0, 1.0, 0.0),
            &[],
            &other,
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
        let plan = ScatterPlan::validate(
            p.n_nodes(),
            &p.model.mesh.elems,
            &p.dashpots.faces,
            &fx.coloring,
        );
        let planned = CompactEbe::with_plan(
            p.n_nodes(),
            &p.model.mesh.elems,
            &fx.compact,
            &p.dashpots.faces,
            &p.dashpots.cb,
            (a.c_m, a.c_k, a.c_b),
            &fx.fixed,
            &fx.coloring,
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

    /// The constructor's coloring validator fires before any scatter: a
    /// coloring whose first group holds node-sharing elements panics with
    /// the offending pair.
    #[test]
    #[should_panic(expected = "would race")]
    fn rejects_corrupted_coloring() {
        let p = problem();
        let mut coloring = color_elements(&p.model.mesh);
        let moved = coloring.groups.remove(1);
        for &e in &moved {
            coloring.color[e as usize] = 0;
        }
        coloring.groups[0].extend(moved);
        coloring.n_colors -= 1;
        let compact = CompactElements::compute(&p.model.mesh, &p.materials);
        let _ = CompactEbe::new(
            p.n_nodes(),
            &p.model.mesh.elems,
            &compact,
            &p.dashpots.faces,
            &p.dashpots.cb,
            (1.0, 1.0, 0.0),
            &[],
            &coloring,
            true,
            1,
        );
    }

    #[test]
    fn compact_memory_is_much_smaller() {
        let p = problem();
        let compact = CompactElements::compute(&p.model.mesh, &p.materials);
        assert!(compact.bytes() * 20 < p.elements().bytes());
    }

    #[test]
    fn compact_counts_are_compute_heavy() {
        let c = compact_ebe_counts(10_000, 500, 45_000, 1);
        let cached = hetsolve_sparse::ebe::ebe_counts(10_000, 500, 45_000, 1);
        // same flop magnitude, far less streaming
        assert!(c.bytes_stream * 10.0 < cached.bytes_stream);
        assert!(c.intensity() > 5.0 * cached.intensity());
    }
}
