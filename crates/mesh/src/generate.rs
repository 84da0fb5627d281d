//! Structured mesh generation: a box `[0,lx]×[0,ly]×[0,lz]` is divided into
//! `nx×ny×nz` hexahedral cells, each split into six tetrahedra with the
//! Kuhn/Freudenthal triangulation (face-compatible across neighbouring
//! cells), then promoted to second-order Tet10 elements by inserting shared
//! mid-edge nodes.

use std::collections::HashMap;

use crate::mesh::{TetMesh10, TET_EDGES};
use crate::vec3::{tet_volume, Vec3};

/// Parameters of the structured box grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxGrid {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub lx: f64,
    pub ly: f64,
    pub lz: f64,
}

impl BoxGrid {
    pub fn new(nx: usize, ny: usize, nz: usize, lx: f64, ly: f64, lz: f64) -> Self {
        assert!(
            nx >= 1 && ny >= 1 && nz >= 1,
            "grid must have at least one cell per axis"
        );
        assert!(
            lx > 0.0 && ly > 0.0 && lz > 0.0,
            "box dimensions must be positive"
        );
        BoxGrid {
            nx,
            ny,
            nz,
            lx,
            ly,
            lz,
        }
    }

    /// Number of cells.
    pub(crate) fn n_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Number of corner (first-order) nodes.
    pub(crate) fn n_corner_nodes(&self) -> usize {
        (self.nx + 1) * (self.ny + 1) * (self.nz + 1)
    }

    /// Linear index of corner node (i, j, k).
    #[inline]
    fn node_id(&self, i: usize, j: usize, k: usize) -> u32 {
        (i + (self.nx + 1) * (j + (self.ny + 1) * k)) as u32
    }

    /// Coordinate of corner node (i, j, k). `z = 0` is the bottom of the
    /// domain and `z = lz` the (flat) ground surface.
    #[inline]
    fn node_coord(&self, i: usize, j: usize, k: usize) -> [f64; 3] {
        [
            self.lx * i as f64 / self.nx as f64,
            self.ly * j as f64 / self.ny as f64,
            self.lz * k as f64 / self.nz as f64,
        ]
    }
}

/// Kuhn triangulation of the unit cube: 6 tetrahedra, each a "staircase
/// path" from corner 0 = (0,0,0) to corner 7 = (1,1,1). Corner numbering is
/// `c = x + 2y + 4z`. Every tet contains the main diagonal (0,7), which makes
/// the pattern face-to-face compatible between adjacent cells.
const KUHN_TETS: [[usize; 4]; 6] = [
    [0, 1, 3, 7],
    [0, 3, 2, 7],
    [0, 2, 6, 7],
    [0, 6, 4, 7],
    [0, 4, 5, 7],
    [0, 5, 1, 7],
];

/// First-order tetrahedral mesh produced as an intermediate step.
#[derive(Debug, Clone, Default)]
pub(crate) struct TetMesh4 {
    pub coords: Vec<[f64; 3]>,
    pub elems: Vec<[u32; 4]>,
}

/// Generate the first-order (Tet4) Kuhn mesh of a box grid.
pub(crate) fn box_tet4(grid: &BoxGrid) -> TetMesh4 {
    let mut coords = Vec::with_capacity(grid.n_corner_nodes());
    for k in 0..=grid.nz {
        for j in 0..=grid.ny {
            for i in 0..=grid.nx {
                coords.push(grid.node_coord(i, j, k));
            }
        }
    }
    let mut elems = Vec::with_capacity(6 * grid.n_cells());
    for k in 0..grid.nz {
        for j in 0..grid.ny {
            for i in 0..grid.nx {
                // The 8 corner node ids of cell (i,j,k), numbered c = x+2y+4z.
                let c = [
                    grid.node_id(i, j, k),
                    grid.node_id(i + 1, j, k),
                    grid.node_id(i, j + 1, k),
                    grid.node_id(i + 1, j + 1, k),
                    grid.node_id(i, j, k + 1),
                    grid.node_id(i + 1, j, k + 1),
                    grid.node_id(i, j + 1, k + 1),
                    grid.node_id(i + 1, j + 1, k + 1),
                ];
                for t in KUHN_TETS {
                    let mut tet = [c[t[0]], c[t[1]], c[t[2]], c[t[3]]];
                    // Ensure positive orientation (right-handed vertex frame).
                    let v = tet_volume(
                        Vec3::from_array(coords[tet[0] as usize]),
                        Vec3::from_array(coords[tet[1] as usize]),
                        Vec3::from_array(coords[tet[2] as usize]),
                        Vec3::from_array(coords[tet[3] as usize]),
                    );
                    if v < 0.0 {
                        tet.swap(1, 2);
                    }
                    elems.push(tet);
                }
            }
        }
    }
    TetMesh4 { coords, elems }
}

/// Promote a Tet4 mesh to Tet10 by inserting one shared node at the midpoint
/// of every unique edge. Mid-edge nodes are appended after all corner nodes.
pub(crate) fn promote_tet10(t4: &TetMesh4) -> TetMesh10 {
    let mut coords = t4.coords.clone();
    let mut edge_nodes: HashMap<(u32, u32), u32> = HashMap::with_capacity(t4.elems.len() * 3);
    let mut elems = Vec::with_capacity(t4.elems.len());
    for tet in &t4.elems {
        let mut el = [0u32; 10];
        el[..4].copy_from_slice(tet);
        for (k, &(a, b)) in TET_EDGES.iter().enumerate() {
            let (na, nb) = (tet[a], tet[b]);
            let key = if na < nb { (na, nb) } else { (nb, na) };
            let id = *edge_nodes.entry(key).or_insert_with(|| {
                let m = Vec3::from_array(t4.coords[na as usize])
                    .midpoint(Vec3::from_array(t4.coords[nb as usize]));
                coords.push(m.to_array());
                (coords.len() - 1) as u32
            });
            el[4 + k] = id;
        }
        elems.push(el);
    }
    let n_elems = elems.len();
    TetMesh10 {
        coords,
        elems,
        material: vec![0; n_elems],
    }
}

/// Convenience: generate a Tet10 box mesh directly.
pub fn box_tet10(grid: &BoxGrid) -> TetMesh10 {
    promote_tet10(&box_tet4(grid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn single_cell_counts() {
        let g = BoxGrid::new(1, 1, 1, 1.0, 1.0, 1.0);
        let m4 = box_tet4(&g);
        assert_eq!(m4.coords.len(), 8);
        assert_eq!(m4.elems.len(), 6);
        let m10 = promote_tet10(&m4);
        // 8 corners + 19 unique edges (12 cube edges + 6 face diagonals + 1 body diagonal)
        assert_eq!(m10.n_nodes(), 8 + 19);
        m10.validate().unwrap();
    }

    #[test]
    fn volumes_sum_to_box() {
        let g = BoxGrid::new(3, 2, 4, 3.0, 1.5, 2.0);
        let m = box_tet10(&g);
        m.validate().unwrap();
        let vol = m.total_volume();
        assert!((vol - 3.0 * 1.5 * 2.0).abs() < 1e-9, "vol = {vol}");
    }

    #[test]
    fn all_volumes_positive() {
        let g = BoxGrid::new(2, 3, 2, 1.0, 2.0, 0.5);
        let m = box_tet10(&g);
        for e in 0..m.n_elems() {
            assert!(m.elem_volume(e) > 0.0);
        }
    }

    /// Face compatibility: every interior triangular face must be shared by
    /// exactly two tets; boundary faces by exactly one. If the Kuhn pattern
    /// were inconsistent between neighbouring cells, some faces would appear
    /// once while their area overlaps another face (leaving dangling faces).
    #[test]
    fn faces_are_conforming() {
        let g = BoxGrid::new(2, 2, 2, 1.0, 1.0, 1.0);
        let m4 = box_tet4(&g);
        let mut faces: BTreeMap<[u32; 3], u32> = BTreeMap::new();
        const F: [[usize; 3]; 4] = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]];
        for tet in &m4.elems {
            for f in F {
                let mut key = [tet[f[0]], tet[f[1]], tet[f[2]]];
                key.sort_unstable();
                *faces.entry(key).or_insert(0) += 1;
            }
        }
        // Each face shared by at most 2 tets.
        assert!(faces.values().all(|&c| c == 1 || c == 2));
        // Count of boundary faces: each of the 6 box faces is 2x2 cells,
        // each cell face is split into 2 triangles => 6*4*2 = 48.
        let boundary = faces.values().filter(|&&c| c == 1).count();
        assert_eq!(boundary, 48);
    }

    #[test]
    fn edge_nodes_are_shared() {
        let g = BoxGrid::new(2, 1, 1, 2.0, 1.0, 1.0);
        let m = box_tet10(&g);
        // Unique edge count must equal added nodes.
        let mut edges = std::collections::HashSet::new();
        for el in &m.elems {
            for &(a, b) in TET_EDGES.iter() {
                let (na, nb) = (el[a], el[b]);
                edges.insert(if na < nb { (na, nb) } else { (nb, na) });
            }
        }
        assert_eq!(m.n_nodes(), 12 + edges.len());
    }

    #[test]
    fn grid_node_count_formula() {
        let g = BoxGrid::new(4, 3, 2, 1.0, 1.0, 1.0);
        assert_eq!(g.n_corner_nodes(), 5 * 4 * 3);
        assert_eq!(g.n_cells(), 24);
        let m = box_tet10(&g);
        assert_eq!(m.n_elems(), 6 * 24);
    }

    #[test]
    #[should_panic]
    fn zero_cells_rejected() {
        BoxGrid::new(0, 1, 1, 1.0, 1.0, 1.0);
    }
}
