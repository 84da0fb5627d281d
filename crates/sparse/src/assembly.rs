//! Assembly of packed symmetric element matrices into [`Bcrs3`] global
//! matrices — the "store the matrix in memory" path of the baseline
//! CRS-CG methods.

use hetsolve_mesh::Incidence;

use crate::bcrs::{merge_row, Bcrs3, BcrsBuilder};
use crate::sym::packed_idx as pidx;

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
/// * `elems`/`me`/`ke` — Tet10 connectivity and flat packed matrices
///   (stride 465),
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
#[allow(clippy::too_many_arguments, reason = "mesh arrays and coefficients")]
pub fn assemble_global(
    n_nodes: usize,
    elems: &[[u32; 10]],
    me: &[f64],
    ke: &[f64],
    c_m: f64,
    c_k: f64,
    faces: &[[u32; 6]],
    cb: &[f64],
    c_b: f64,
    fixed: &[bool],
    parallel: bool,
) -> Bcrs3 {
    const TP: usize = 465;
    const FP: usize = 171;
    debug_assert!(fixed.is_empty() || fixed.len() == 3 * n_nodes);
    // a zero coefficient adds no blocks, as in `add_packed_element`
    let elems_on = if c_m != 0.0 || c_k != 0.0 { elems } else { &[] };
    let faces_on = if c_b != 0.0 { faces } else { &[] };
    let n2e = Incidence::of(n_nodes, elems_on);
    let n2f = Incidence::of(n_nodes, faces_on);

    // symbolic pass: the distinct block columns of every row
    let mut seen = vec![u32::MAX; n_nodes];
    let mut row_ptr = Vec::with_capacity(n_nodes + 1);
    row_ptr.push(0);
    let mut nnz = 0;
    for i in 0..n_nodes {
        let elem_nodes = n2e.of_node(i).iter().map(|&e| &elems[e as usize][..]);
        let face_nodes = n2f.of_node(i).iter().map(|&f| &faces[f as usize][..]);
        for &j in elem_nodes.chain(face_nodes).flatten() {
            if seen[j as usize] != i as u32 {
                seen[j as usize] = i as u32;
                nnz += 1;
            }
        }
        row_ptr.push(nnz);
    }

    // numeric pass: the builder's row sequence, merged by the builder's rule
    let mut cols = Vec::with_capacity(nnz);
    let mut blocks = Vec::with_capacity(nnz);
    let mut row = Vec::new();
    for i in 0..n_nodes {
        row.clear();
        let at = |nodes: &[u32]| {
            let a = nodes.iter().position(|&n| n as usize == i);
            a.expect("the incidence of node i lists only cells of node i")
        };
        for &e in n2e.of_node(i) {
            let (e, el) = (e as usize, &elems[e as usize]);
            let a = at(el);
            if c_m != 0.0 {
                row.extend(row_blocks(el, &me[e * TP..(e + 1) * TP], c_m, a));
            }
            if c_k != 0.0 {
                row.extend(row_blocks(el, &ke[e * TP..(e + 1) * TP], c_k, a));
            }
        }
        for &f in n2f.of_node(i) {
            let (f, fc) = (f as usize, &faces[f as usize]);
            row.extend(row_blocks(fc, &cb[f * FP..(f + 1) * FP], c_b, at(fc)));
        }
        merge_row(&mut row, &mut cols, &mut blocks);
        debug_assert_eq!(cols.len(), row_ptr[i + 1]);
    }
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
    m
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
