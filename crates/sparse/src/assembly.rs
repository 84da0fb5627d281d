//! Assembly of packed symmetric element matrices into [`Bcrs3`] global
//! matrices — the "store the matrix in memory" path of the baseline
//! CRS-CG methods.

use hetsolve_mesh::Incidence;

use crate::bcrs::{merge_row, Bcrs3, BcrsBuilder};
use crate::sym::{packed_idx as pidx, packed_len};

/// Packed length of a Tet10 element matrix (30 × 30 symmetric).
const TP: usize = packed_len(30);
/// Packed length of a Tri6 dashpot face matrix (18 × 18 symmetric).
const FP: usize = packed_len(18);

/// The blocks `(nodes[b], coeff · E[a, b])`, `b` ascending, that row `a` of
/// the packed symmetric element matrix `E` adds to block row `nodes[a]`.
fn row_blocks<'a>(
    nodes: &'a [u32],
    packed: &'a [f64],
    coeff: f64,
    a: usize,
) -> impl Iterator<Item = (u32, [f64; 9])> + 'a {
    nodes.iter().enumerate().map(move |(b, &nb)| {
        let mut blk = [0.0f64; 9];
        for da in 0..3 {
            for db in 0..3 {
                blk[3 * da + db] = coeff * packed[pidx(3 * a + da, 3 * b + db)];
            }
        }
        (nb, blk)
    })
}

/// Accumulate `coeff * E` into the builder, where `E` is the packed
/// symmetric matrix of an element with node list `nodes` (node-major DOFs:
/// element DOF `3k + d` belongs to node `nodes[k]`).
pub fn add_packed_element(builder: &mut BcrsBuilder, nodes: &[u32], packed: &[f64], coeff: f64) {
    let ln = nodes.len();
    debug_assert_eq!(packed.len(), (3 * ln) * (3 * ln + 1) / 2);
    if coeff == 0.0 {
        return;
    }
    for (a, &na) in nodes.iter().enumerate() {
        for (nb, blk) in row_blocks(nodes, packed, coeff, a) {
            builder.add_block(na, nb, &blk);
        }
    }
}

/// Assemble a global matrix `Σ_e c_M M_e + c_K K_e + Σ_f c_B C_f` with
/// Dirichlet elimination: rows/columns of fixed DOFs are zeroed and unit
/// diagonal entries inserted, preserving symmetry and positive
/// definiteness (the standard "zero row/col + 1 on diagonal" treatment).
///
/// * `n_nodes` — global node count,
/// * `elems` — Tet10 connectivity,
/// * `element` — the element source: `element(e, m, k)` writes element
///   `e`'s packed `M_e` into `m` and `K_e` into `k`; it is called once per
///   element, `e` ascending, and never when `c_M = c_K = 0`,
/// * `faces`/`cb` — Tri6 dashpot connectivity and flat packed matrices
///   (stride 171),
/// * `fixed` — per-DOF Dirichlet mask (length `3 * n_nodes`), or empty for
///   no constraints.
///
/// Count first, then fill, one block row at a time: a symbolic pass over
/// the node → element and node → face incidences fixes `row_ptr`, so
/// `cols` and `blocks` are allocated once at their final size. Row `i` is
/// then the sequence a [`BcrsBuilder`] fed by [`add_packed_element`] in a
/// global loop (every element's `c_M M_e`, then its `c_K K_e`, elements
/// ascending, then every face's `c_B C_f`) pushes to row `i`: its incident
/// elements ascending, each with its `M_e` blocks and then its `K_e`
/// blocks, then its incident faces ascending. `merge_row` sorts and sums
/// that sequence, so the matrix is the builder's bit for bit.
///
/// The element matrices are streamed, not stored: row `i` is merged as
/// soon as its highest incident element is computed, and an element's
/// slot is reused once the last row that reads it is merged. The symbolic
/// pass sizes that window, which grows with a layer of a layered mesh
/// rather than with its volume (444 of 1,920 elements at 9,537 DOF).
#[allow(clippy::too_many_arguments, reason = "mesh arrays and coefficients")]
pub fn assemble_global(
    n_nodes: usize,
    elems: &[[u32; 10]],
    element: impl FnMut(usize, &mut [f64; TP], &mut [f64; TP]),
    c_m: f64,
    c_k: f64,
    faces: &[[u32; 6]],
    cb: &[f64],
    c_b: f64,
    fixed: &[bool],
    parallel: bool,
) -> Bcrs3 {
    let (m, _) = assemble(
        n_nodes, elems, element, c_m, c_k, faces, cb, c_b, fixed, parallel,
    );
    m
}

/// The element matrices a streamed assembly holds: one `[M_e, K_e]` pair
/// per slot, allocated once at the capacity the symbolic pass computed,
/// and the slot of each live element.
struct Slab {
    pairs: Vec<[[f64; TP]; 2]>,
    free: Vec<u32>,
    slot: Vec<u32>,
    /// Most slots in use at once.
    peak: usize,
}

impl Slab {
    fn new(capacity: usize, n_elems: usize) -> Self {
        Slab {
            pairs: vec![[[0.0; TP]; 2]; capacity],
            free: (0..capacity as u32).rev().collect(),
            slot: vec![u32::MAX; n_elems],
            peak: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.pairs.len()
    }

    fn live(&self) -> usize {
        self.capacity() - self.free.len()
    }

    /// A free slot for element `e`, to compute its matrices into.
    fn take(&mut self, e: usize) -> &mut [[f64; TP]; 2] {
        let s = self
            .free
            .pop()
            .expect("the symbolic pass counts every live element");
        self.slot[e] = s;
        self.peak = self.peak.max(self.live());
        &mut self.pairs[s as usize]
    }

    /// The matrices of live element `e`.
    fn of(&self, e: usize) -> &[[f64; TP]; 2] {
        &self.pairs[self.slot[e] as usize]
    }

    /// Free element `e`'s slot.
    fn give(&mut self, e: usize) {
        self.free.push(self.slot[e]);
    }
}

/// [`assemble_global`], returning the slab it streamed through as well.
#[allow(clippy::too_many_arguments, reason = "mesh arrays and coefficients")]
fn assemble(
    n_nodes: usize,
    elems: &[[u32; 10]],
    mut element: impl FnMut(usize, &mut [f64; TP], &mut [f64; TP]),
    c_m: f64,
    c_k: f64,
    faces: &[[u32; 6]],
    cb: &[f64],
    c_b: f64,
    fixed: &[bool],
    parallel: bool,
) -> (Bcrs3, Slab) {
    debug_assert!(fixed.is_empty() || fixed.len() == 3 * n_nodes);
    // a zero coefficient adds no blocks, as in `add_packed_element`
    let elems_on = if c_m != 0.0 || c_k != 0.0 { elems } else { &[] };
    let faces_on = if c_b != 0.0 { faces } else { &[] };
    let n2e = Incidence::of(n_nodes, elems_on);
    let n2f = Incidence::of(n_nodes, faces_on);

    // symbolic pass: the distinct block columns of every row ...
    let mut seen = vec![u32::MAX; n_nodes];
    let mut row_ptr = Vec::with_capacity(n_nodes + 1);
    row_ptr.push(0);
    let mut nnz = 0;
    for i in 0..n_nodes {
        let elem_nodes = n2e.of_node(i).iter().map(|&e| &elems_on[e as usize][..]);
        let face_nodes = n2f.of_node(i).iter().map(|&f| &faces_on[f as usize][..]);
        for &j in elem_nodes.chain(face_nodes).flatten() {
            if seen[j as usize] != i as u32 {
                seen[j as usize] = i as u32;
                nnz += 1;
            }
        }
        row_ptr.push(nnz);
    }
    // ... and how long each element lives. Elements are computed in
    // ascending order, so row `i` can be merged at step `last(i)`, its
    // highest incident element, and element `e` is read last at step
    // `release[e]`, the highest `last` of its rows. At step `t` the live
    // elements are the `e ≤ t` with `release[e] ≥ t`; the most at once
    // sizes the slab.
    let last = |i: u32| {
        let incident = n2e.of_node(i as usize);
        *incident
            .last()
            .expect("an element's nodes list the element")
    };
    let release: Vec<[u32; 1]> = elems_on
        .iter()
        .map(|el| [el.iter().map(|&i| last(i)).fold(0, u32::max)])
        .collect();
    let released = Incidence::of(elems_on.len(), &release);
    let (mut live, mut capacity) = (0, 0);
    for t in 0..elems_on.len() {
        live += 1;
        capacity = usize::max(capacity, live);
        live -= released.of_node(t).len();
    }

    // numeric pass: each element computed once into a slot of the slab,
    // each row merged into its place by the builder's row sequence and
    // merge rule as soon as its last element is in
    let mut cols = vec![0u32; nnz];
    let mut blocks = vec![[0.0f64; 9]; nnz];
    let mut row = Vec::new();
    let mut merge = |i: usize, slab: &Slab| {
        row.clear();
        let at = |nodes: &[u32]| {
            let a = nodes.iter().position(|&n| n as usize == i);
            a.expect("the incidence of node i lists only cells of node i")
        };
        for &e in n2e.of_node(i) {
            let (el, [me, ke]) = (&elems_on[e as usize], slab.of(e as usize));
            let a = at(el);
            if c_m != 0.0 {
                row.extend(row_blocks(el, me, c_m, a));
            }
            if c_k != 0.0 {
                row.extend(row_blocks(el, ke, c_k, a));
            }
        }
        for &f in n2f.of_node(i) {
            let (f, fc) = (f as usize, &faces_on[f as usize]);
            row.extend(row_blocks(fc, &cb[f * FP..(f + 1) * FP], c_b, at(fc)));
        }
        let span = row_ptr[i]..row_ptr[i + 1];
        let mut out = cols[span.clone()].iter_mut().zip(&mut blocks[span]);
        merge_row(&mut row, |c, b| {
            let (col, blk) = out.next().expect("the symbolic pass counts every column");
            (*col, *blk) = (c, b);
        });
        debug_assert!(out.next().is_none());
    };
    let mut slab = Slab::new(capacity, elems_on.len());
    for (t, el) in elems_on.iter().enumerate() {
        let [me, ke] = slab.take(t);
        element(t, me, ke);
        for &i in el {
            if last(i) == t as u32 {
                merge(i as usize, &slab);
            }
        }
        for &e in released.of_node(t) {
            slab.give(e as usize);
        }
    }
    // the rows no element reaches (faces only, or nothing)
    for i in 0..n_nodes {
        if n2e.of_node(i).is_empty() {
            merge(i, &slab);
        }
    }
    // the symbolic pass sized the slab exactly, and every element was
    // released by the last row that read it
    debug_assert_eq!(slab.peak, slab.capacity());
    debug_assert_eq!(slab.live(), 0);

    let mut m = Bcrs3 {
        n_brows: n_nodes,
        row_ptr,
        cols,
        blocks,
        parallel,
    };
    if !fixed.is_empty() {
        apply_dirichlet(&mut m, fixed);
    }
    (m, slab)
}

/// Zero the rows and columns of fixed DOFs and set their diagonal to 1.
pub fn apply_dirichlet(m: &mut Bcrs3, fixed: &[bool]) {
    debug_assert_eq!(fixed.len(), m.n());
    for br in 0..m.n_brows {
        for k in m.row_ptr[br]..m.row_ptr[br + 1] {
            let bc = m.cols[k] as usize;
            let blk = &mut m.blocks[k];
            for da in 0..3 {
                for db in 0..3 {
                    let (gi, gj) = (3 * br + da, 3 * bc + db);
                    if fixed[gi] || fixed[gj] {
                        blk[3 * da + db] = if gi == gj { 1.0 } else { 0.0 };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::LinearOperator;

    /// A fake 2-node "element" with 6 DOFs for structural tests: packed
    /// symmetric 6x6 with value = i*10 + j on the lower triangle.
    fn packed6() -> Vec<f64> {
        let mut p = vec![0.0; 21];
        for i in 0..6 {
            for j in 0..=i {
                p[pidx(i, j)] = (i * 10 + j) as f64;
            }
        }
        p
    }

    #[test]
    fn packed_element_assembly_is_symmetric() {
        let nodes = [0u32, 2u32];
        let p = packed6();
        let mut b = BcrsBuilder::new(3);
        add_packed_element(&mut b, &nodes, &p, 1.0);
        let m = b.finish(false);
        // check global symmetry by applying to basis-like vectors
        let n = m.n();
        let mut cols_dense = vec![vec![0.0; n]; n];
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            m.apply(&e, &mut cols_dense[j]);
        }
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (cols_dense[j][i] - cols_dense[i][j]).abs() < 1e-12,
                    "asym at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn zero_coeff_adds_nothing() {
        let mut b = BcrsBuilder::new(2);
        add_packed_element(&mut b, &[0u32, 1u32], &packed6(), 0.0);
        let m = b.finish(false);
        assert_eq!(m.nnz_blocks(), 0);
    }

    /// A reproducible value in `[-1, 1)` scaled by `2^-8..2^7`: sums of
    /// these round differently in different orders.
    fn noise(seed: u64) -> f64 {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        unit * f64::powi(2.0, (z % 16) as i32 - 8)
    }

    /// Packed "matrix" number `id` of kind `kind`, of length `len`.
    fn packed_noise(kind: u64, id: usize, len: usize) -> Vec<f64> {
        let base = (kind << 56) ^ ((id as u64) << 16);
        (0..len).map(|k| noise(base + k as u64)).collect()
    }

    /// `assemble_global` against the `BcrsBuilder` oracle, bit for bit, on
    /// the small ground model's elements in the order `order` (element
    /// `k` of the call is mesh element `order[k]`, with that element's
    /// matrices), and the slab it streamed through.
    fn streamed_is_the_builder(order: &[usize], c: (f64, f64, f64), masked: bool) -> Slab {
        use hetsolve_mesh::{extract_boundary, GroundModelSpec, InterfaceShape};

        let gm = GroundModelSpec::small(InterfaceShape::Basin).build();
        let g = &gm.spec.grid;
        let boundary = extract_boundary(&gm.mesh, g.lx, g.ly, g.lz, 1e-6 * g.lz.max(g.lx));
        let n = gm.mesh.n_nodes();
        let elems: Vec<[u32; 10]> = order.iter().map(|&e| gm.mesh.elems[e]).collect();
        let me: Vec<Vec<f64>> = order.iter().map(|&e| packed_noise(1, e, TP)).collect();
        let ke: Vec<Vec<f64>> = order.iter().map(|&e| packed_noise(2, e, TP)).collect();
        let faces: Vec<[u32; 6]> = boundary.faces.iter().map(|f| f.nodes).collect();
        let cb: Vec<f64> = (0..faces.len())
            .flat_map(|f| packed_noise(3, f, FP))
            .collect();
        let mut fixed = vec![false; if masked { 3 * n } else { 0 }];
        for &i in boundary.fixed_nodes().iter().filter(|_| masked) {
            fixed[3 * i as usize..3 * i as usize + 3].fill(true);
        }
        let (c_m, c_k, c_b) = c;

        let mut bl = BcrsBuilder::new(n);
        for (e, nodes) in elems.iter().enumerate() {
            add_packed_element(&mut bl, nodes, &me[e], c_m);
            add_packed_element(&mut bl, nodes, &ke[e], c_k);
        }
        for (f, nodes) in faces.iter().enumerate() {
            add_packed_element(&mut bl, nodes, &cb[f * FP..(f + 1) * FP], c_b);
        }
        let mut built = bl.finish(false);
        if masked {
            apply_dirichlet(&mut built, &fixed);
        }

        let mut calls = Vec::new();
        let (streamed, slab) = assemble(
            n,
            &elems,
            |e, m, k| {
                calls.push(e);
                m.copy_from_slice(&me[e]);
                k.copy_from_slice(&ke[e]);
            },
            c_m,
            c_k,
            &faces,
            &cb,
            c_b,
            &fixed,
            false,
        );
        // each element computed once, in ascending order, or never
        let computed = if c_m != 0.0 || c_k != 0.0 {
            elems.len()
        } else {
            0
        };
        assert!(
            calls.iter().copied().eq(0..computed),
            "element source calls"
        );
        assert!(streamed.nnz_blocks() > 0);
        assert_eq!(streamed.row_ptr, built.row_ptr, "row_ptr");
        assert_eq!(streamed.cols, built.cols, "cols");
        for (k, (x, y)) in streamed.blocks.iter().zip(&built.blocks).enumerate() {
            assert_eq!(x.map(f64::to_bits), y.map(f64::to_bits), "block {k}");
        }
        // the slab held exactly as many elements at once as the symbolic
        // pass sized it for (a `take` past that panics), and every slot is
        // free again
        assert_eq!(slab.peak, slab.capacity());
        assert_eq!(slab.live(), 0);
        slab
    }

    /// Streamed assembly is the builder's matrix bit for bit whatever the
    /// element order, also where the window must hold most of the mesh:
    /// the mesh order, the reversed order and a pseudo-random order of the
    /// 6×6×4 basin model's 864 elements (the window holds 264, 264 and
    /// 771 of them), plus a faces-only call, which computes no element,
    /// and the `M`-only call.
    #[test]
    fn streamed_assembly_is_the_builder_bitwise_in_any_element_order() {
        let ne = 864;
        let mesh_order: Vec<usize> = (0..ne).collect();
        let reversed: Vec<usize> = (0..ne).rev().collect();
        let mut shuffled = reversed.clone();
        for k in (1..ne).rev() {
            let j = (noise(k as u64 ^ 0x5eed).abs() * 1e9) as usize % (k + 1);
            shuffled.swap(k, j);
        }
        let a = (1.0e3, 0.7, 0.3);
        let natural = streamed_is_the_builder(&mesh_order, a, true);
        assert!(natural.capacity() < ne / 3, "{}", natural.capacity());
        streamed_is_the_builder(&reversed, a, true);
        let scattered = streamed_is_the_builder(&shuffled, a, true);
        assert!(
            scattered.capacity() > ne * 8 / 10,
            "{}",
            scattered.capacity()
        );
        let faces_only = streamed_is_the_builder(&mesh_order, (0.0, 0.0, 0.3), false);
        assert_eq!(faces_only.capacity(), 0);
        streamed_is_the_builder(&shuffled, (1.0, 0.0, 0.0), false);
    }

    #[test]
    fn dirichlet_sets_identity_rows() {
        let mut b = BcrsBuilder::new(2);
        add_packed_element(&mut b, &[0u32, 1u32], &packed6(), 1.0);
        let mut m = b.finish(false);
        // fix node 0 entirely
        let mut fixed = vec![false; 6];
        for f in fixed.iter_mut().take(3) {
            *f = true;
        }
        apply_dirichlet(&mut m, &fixed);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut y = vec![0.0; 6];
        m.apply(&x, &mut y);
        // fixed rows: y = x
        assert_eq!(&y[..3], &x[..3]);
        // free rows must not see fixed-column contributions: recompute with
        // fixed entries zeroed and compare.
        let x0 = vec![0.0, 0.0, 0.0, 4.0, 5.0, 6.0];
        let mut y0 = vec![0.0; 6];
        m.apply(&x0, &mut y0);
        assert_eq!(&y[3..], &y0[3..]);
    }
}
