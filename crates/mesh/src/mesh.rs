//! Core mesh container for 10-node (second-order) tetrahedral meshes.
//!
//! Node ordering convention for a `Tet10` element follows the usual
//! hierarchical layout:
//!
//! * nodes 0–3: vertices,
//! * node 4 = mid(0,1), 5 = mid(1,2), 6 = mid(0,2),
//! * node 7 = mid(0,3), 8 = mid(1,3), 9 = mid(2,3).
//!
//! This is the ordering assumed by the shape functions in `hetsolve-fem`.

use crate::vec3::{tet_volume, Vec3};

/// Pairs of vertex-local indices defining the 6 tetrahedron edges, in the
/// order that produces mid-edge nodes 4..=9 of the convention above.
pub const TET_EDGES: [(usize, usize); 6] = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)];

/// The four faces of a tetrahedron as vertex-local index triples, oriented
/// so that their normal points out of the element (for positive-volume tets).
pub(crate) const TET_FACES: [[usize; 3]; 4] = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]];

/// Node → cell incidence in compressed rows: the cells that reference
/// node `n` are `elems[ptr[n]..ptr[n + 1]]`, in ascending cell order (a
/// cell lists each of its nodes once, [`TetMesh10::validate`]).
#[derive(Debug, Clone)]
pub struct Incidence {
    /// Row pointers, `n_nodes + 1` entries.
    pub ptr: Vec<usize>,
    /// Cell ids, row by row.
    pub elems: Vec<u32>,
}

impl Incidence {
    /// The incidence of `cells` (each a list of `K` node ids below
    /// `n_nodes`): one counting pass sizes the rows, a second fills them.
    pub fn of<const K: usize>(n_nodes: usize, cells: &[[u32; K]]) -> Self {
        let mut ptr = vec![0usize; n_nodes + 1];
        for &n in cells.as_flattened() {
            ptr[n as usize + 1] += 1;
        }
        for i in 0..n_nodes {
            ptr[i + 1] += ptr[i];
        }
        let mut next = ptr[..n_nodes].to_vec();
        let mut elems = vec![0u32; ptr[n_nodes]];
        for (c, cell) in cells.iter().enumerate() {
            for &n in cell {
                elems[next[n as usize]] = c as u32;
                next[n as usize] += 1;
            }
        }
        Incidence { ptr, elems }
    }

    /// The cells of node `n`, ascending.
    #[inline]
    pub fn of_node(&self, n: usize) -> &[u32] {
        &self.elems[self.ptr[n]..self.ptr[n + 1]]
    }
}

/// A second-order tetrahedral mesh.
///
/// Coordinates are stored per node; elements store the 10 node ids in the
/// conventional ordering; `material` stores one material id per element.
#[derive(Debug, Clone, Default)]
pub struct TetMesh10 {
    /// Nodal coordinates, `coords[n] = [x, y, z]`.
    pub coords: Vec<[f64; 3]>,
    /// Element connectivity (10 node indices per element).
    pub elems: Vec<[u32; 10]>,
    /// Material id per element (index into a material table owned elsewhere).
    pub material: Vec<u16>,
}

impl TetMesh10 {
    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of elements.
    #[inline]
    pub fn n_elems(&self) -> usize {
        self.elems.len()
    }

    /// Number of displacement unknowns (3 per node).
    #[inline]
    pub fn n_dofs(&self) -> usize {
        3 * self.coords.len()
    }

    /// Coordinate of node `n` as a [`Vec3`].
    #[inline]
    pub(crate) fn node(&self, n: u32) -> Vec3 {
        Vec3::from_array(self.coords[n as usize])
    }

    /// The 4 vertex coordinates of element `e`.
    pub fn vertices(&self, e: usize) -> [Vec3; 4] {
        let el = &self.elems[e];
        [
            self.node(el[0]),
            self.node(el[1]),
            self.node(el[2]),
            self.node(el[3]),
        ]
    }

    /// All 10 node coordinates of element `e`.
    pub fn elem_coords(&self, e: usize) -> [Vec3; 10] {
        let el = &self.elems[e];
        let mut out = [Vec3::ZERO; 10];
        for (i, &n) in el.iter().enumerate() {
            out[i] = self.node(n);
        }
        out
    }

    /// Signed volume of element `e` computed from its vertices (exact for
    /// straight-edged Tet10 elements, which is all this crate generates).
    pub(crate) fn elem_volume(&self, e: usize) -> f64 {
        let [a, b, c, d] = self.vertices(e);
        tet_volume(a, b, c, d)
    }

    /// Centroid of element `e` (vertex average).
    pub(crate) fn elem_centroid(&self, e: usize) -> Vec3 {
        let [a, b, c, d] = self.vertices(e);
        (a + b + c + d) / 4.0
    }

    /// Total mesh volume.
    pub fn total_volume(&self) -> f64 {
        (0..self.n_elems()).map(|e| self.elem_volume(e)).sum()
    }

    /// Node-to-element incidence: for each node, the elements that
    /// reference it (through any of their 10 nodes), ascending.
    pub(crate) fn node_to_elems(&self) -> Incidence {
        Incidence::of(self.n_nodes(), &self.elems)
    }

    /// Validate structural invariants; returns a description of the first
    /// violation found, if any. Used by tests and by generators in debug mode.
    pub fn validate(&self) -> Result<(), String> {
        if self.material.len() != self.elems.len() {
            return Err(format!(
                "material table length {} != element count {}",
                self.material.len(),
                self.elems.len()
            ));
        }
        let nn = self.n_nodes() as u32;
        for (e, el) in self.elems.iter().enumerate() {
            for &n in el {
                if n >= nn {
                    return Err(format!("element {e} references node {n} >= {nn}"));
                }
            }
            // all 10 nodes distinct
            let mut ids = *el;
            ids.sort_unstable();
            if ids.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("element {e} has duplicate nodes"));
            }
            let v = self.elem_volume(e);
            if v <= 0.0 {
                return Err(format!("element {e} has non-positive volume {v}"));
            }
            // mid-edge nodes must sit at edge midpoints (straight-edge mesh)
            let xs = self.elem_coords(e);
            for (k, &(i, j)) in TET_EDGES.iter().enumerate() {
                let mid = xs[i].midpoint(xs[j]);
                if mid.distance(xs[4 + k]) > 1e-9 * (1.0 + mid.norm()) {
                    return Err(format!("element {e} mid-edge node {} off midpoint", 4 + k));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single reference Tet10 element on the unit tetrahedron.
    pub(super) fn unit_tet10() -> TetMesh10 {
        let v = [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ];
        let mut coords: Vec<[f64; 3]> = v.to_vec();
        for &(i, j) in TET_EDGES.iter() {
            let m = Vec3::from_array(v[i]).midpoint(Vec3::from_array(v[j]));
            coords.push(m.to_array());
        }
        TetMesh10 {
            coords,
            elems: vec![[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]],
            material: vec![0],
        }
    }

    #[test]
    fn unit_tet_is_valid() {
        let m = unit_tet10();
        m.validate().unwrap();
        assert_eq!(m.n_nodes(), 10);
        assert_eq!(m.n_elems(), 1);
        assert_eq!(m.n_dofs(), 30);
        assert!((m.total_volume() - 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn validate_catches_negative_volume() {
        let mut m = unit_tet10();
        m.elems[0].swap(1, 2); // flips orientation
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_catches_duplicate_node() {
        let mut m = unit_tet10();
        m.elems[0][9] = m.elems[0][8];
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_catches_out_of_range() {
        let mut m = unit_tet10();
        m.elems[0][0] = 99;
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_catches_material_mismatch() {
        let mut m = unit_tet10();
        m.material.clear();
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_catches_off_midpoint() {
        let mut m = unit_tet10();
        m.coords[4] = [0.6, 0.0, 0.0]; // should be [0.5, 0, 0]
        assert!(m.validate().is_err());
    }

    #[test]
    fn node_to_elems_incidence() {
        let m = unit_tet10();
        let inc = m.node_to_elems();
        assert_eq!(inc.ptr.len(), 11);
        assert!((0..10).all(|n| inc.of_node(n) == [0u32]));
    }

    #[test]
    fn faces_point_outward() {
        let m = unit_tet10();
        let xs = m.vertices(0);
        let centroid = (xs[0] + xs[1] + xs[2] + xs[3]) / 4.0;
        for f in TET_FACES {
            let (a, b, c) = (xs[f[0]], xs[f[1]], xs[f[2]]);
            let n = (b - a).cross(c - a);
            let fc = (a + b + c) / 3.0;
            assert!(n.dot(fc - centroid) > 0.0, "face {f:?} normal not outward");
        }
    }
}
