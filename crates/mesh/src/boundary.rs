//! Boundary extraction and classification for ground models.
//!
//! The paper's problem fixes displacements at the domain bottom, applies
//! absorbing (Lysmer dashpot) boundary conditions on the four sides, and
//! leaves the top ground surface free (where the random impulse loads act
//! and responses are recorded).

use std::collections::HashMap;

use crate::mesh::{TetMesh10, TET_EDGES, TET_FACES};

/// Which part of the domain boundary a face/node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryKind {
    /// Bottom (`z = 0`): fixed displacement.
    Bottom,
    /// One of the four vertical sides: absorbing boundary.
    Side,
    /// Ground surface (`z = lz`): free, loaded, observed.
    Surface,
}

/// Local mid-edge node index (4..=9) for the edge between vertex-local
/// indices `a` and `b` of a Tet10 element.
pub(crate) fn mid_edge_local(a: usize, b: usize) -> usize {
    for (k, &(i, j)) in TET_EDGES.iter().enumerate() {
        if (i == a && j == b) || (i == b && j == a) {
            return 4 + k;
        }
    }
    panic!("({a},{b}) is not a tetrahedron edge");
}

/// A boundary triangle of a Tet10 mesh: a 6-node quadratic triangle
/// (3 vertex nodes followed by the 3 mid-edge nodes opposite them in the
/// usual Tri6 convention: node 3 = mid(0,1), 4 = mid(1,2), 5 = mid(2,0)).
#[derive(Debug, Clone, Copy)]
pub struct BoundaryFace {
    /// Element owning this face.
    pub elem: u32,
    /// Local face index (0..4) within the element.
    pub face: u8,
    /// Global node ids of the quadratic triangle.
    pub nodes: [u32; 6],
    /// Classification of the face.
    pub kind: BoundaryKind,
    /// Outward unit normal.
    pub normal: [f64; 3],
    /// Face area.
    pub area: f64,
}

/// All boundary information of a mesh.
#[derive(Debug, Clone, Default)]
pub struct BoundarySet {
    pub faces: Vec<BoundaryFace>,
    /// For each node: the boundary kinds it belongs to, as a bitmask
    /// (bit 0 = Bottom, bit 1 = Side, bit 2 = Surface). 0 = interior.
    pub node_kind_mask: Vec<u8>,
}

fn kind_bit(k: BoundaryKind) -> u8 {
    match k {
        BoundaryKind::Bottom => 1,
        BoundaryKind::Side => 2,
        BoundaryKind::Surface => 4,
    }
}

impl BoundarySet {
    /// Nodes flagged with the given kind.
    pub fn nodes_of_kind(&self, kind: BoundaryKind) -> Vec<u32> {
        let bit = kind_bit(kind);
        self.node_kind_mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m & bit != 0)
            .map(|(n, _)| n as u32)
            .collect()
    }

    /// Nodes that are fixed (bottom boundary).
    pub fn fixed_nodes(&self) -> Vec<u32> {
        self.nodes_of_kind(BoundaryKind::Bottom)
    }

    /// Surface nodes that are NOT also on a side or the bottom (interior of
    /// the free surface) — the observation/loading points.
    pub fn free_surface_nodes(&self) -> Vec<u32> {
        self.node_kind_mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == kind_bit(BoundaryKind::Surface))
            .map(|(n, _)| n as u32)
            .collect()
    }

    pub fn faces_of_kind(&self, kind: BoundaryKind) -> impl Iterator<Item = &BoundaryFace> {
        self.faces.iter().filter(move |f| f.kind == kind)
    }
}

/// Extract and classify the boundary of a mesh generated on the box
/// `[0,lx]×[0,ly]×[0,lz]`. A face is a boundary face iff it belongs to
/// exactly one element. Classification uses the face centroid against the
/// box extents with tolerance `tol` (absolute, in mesh length units).
pub fn extract_boundary(mesh: &TetMesh10, lx: f64, ly: f64, lz: f64, tol: f64) -> BoundarySet {
    // Count face occurrences by sorted vertex triple.
    let mut face_count: HashMap<[u32; 3], u32> = HashMap::new();
    for el in &mesh.elems {
        for f in TET_FACES {
            let mut key = [el[f[0]], el[f[1]], el[f[2]]];
            key.sort_unstable();
            *face_count.entry(key).or_insert(0) += 1;
        }
    }

    let mut faces = Vec::new();
    let mut node_kind_mask = vec![0u8; mesh.n_nodes()];

    for (e, el) in mesh.elems.iter().enumerate() {
        for (fi, f) in TET_FACES.iter().enumerate() {
            let mut key = [el[f[0]], el[f[1]], el[f[2]]];
            key.sort_unstable();
            if face_count[&key] != 1 {
                continue;
            }
            let a = mesh.node(el[f[0]]);
            let b = mesh.node(el[f[1]]);
            let c = mesh.node(el[f[2]]);
            let centroid = (a + b + c) / 3.0;
            let kind = if centroid.z < tol {
                BoundaryKind::Bottom
            } else if centroid.z > lz - tol {
                BoundaryKind::Surface
            } else if centroid.x < tol
                || centroid.x > lx - tol
                || centroid.y < tol
                || centroid.y > ly - tol
            {
                BoundaryKind::Side
            } else {
                // Interior hole faces cannot occur on generated box meshes.
                panic!("boundary face at {centroid:?} not on any box face");
            };
            let nv = (b - a).cross(c - a);
            let area = 0.5 * nv.norm();
            let normal = (nv / (2.0 * area)).to_array();
            // Quadratic triangle connectivity: vertices then opposite-edge mids.
            let nodes = [
                el[f[0]],
                el[f[1]],
                el[f[2]],
                el[mid_edge_local(f[0], f[1])],
                el[mid_edge_local(f[1], f[2])],
                el[mid_edge_local(f[2], f[0])],
            ];
            for &n in &nodes {
                node_kind_mask[n as usize] |= kind_bit(kind);
            }
            faces.push(BoundaryFace {
                elem: e as u32,
                face: fi as u8,
                nodes,
                kind,
                normal,
                area,
            });
        }
    }
    BoundarySet {
        faces,
        node_kind_mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{box_tet10, BoxGrid};
    use crate::vec3::Vec3;

    fn mesh222() -> (TetMesh10, BoundarySet) {
        let g = BoxGrid::new(2, 2, 2, 1.0, 1.0, 1.0);
        let m = box_tet10(&g);
        let b = extract_boundary(&m, 1.0, 1.0, 1.0, 1e-9);
        (m, b)
    }

    #[test]
    fn boundary_face_counts() {
        let (_, b) = mesh222();
        // 6 box faces * (2x2 cells) * 2 triangles = 48 boundary faces
        assert_eq!(b.faces.len(), 48);
        assert_eq!(b.faces_of_kind(BoundaryKind::Bottom).count(), 8);
        assert_eq!(b.faces_of_kind(BoundaryKind::Surface).count(), 8);
        assert_eq!(b.faces_of_kind(BoundaryKind::Side).count(), 32);
    }

    #[test]
    fn face_areas_sum_per_kind() {
        let (_, b) = mesh222();
        let sum = |k| -> f64 { b.faces_of_kind(k).map(|f| f.area).sum() };
        assert!((sum(BoundaryKind::Bottom) - 1.0).abs() < 1e-12);
        assert!((sum(BoundaryKind::Surface) - 1.0).abs() < 1e-12);
        assert!((sum(BoundaryKind::Side) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn normals_point_outward() {
        let (m, b) = mesh222();
        for f in &b.faces {
            let fc = (m.node(f.nodes[0]) + m.node(f.nodes[1]) + m.node(f.nodes[2])) / 3.0;
            let ec = m.elem_centroid(f.elem as usize);
            let n = Vec3::from_array(f.normal);
            assert!(n.dot(fc - ec) > 0.0, "inward normal on face {f:?}");
            assert!((n.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bottom_nodes_have_z_zero() {
        let (m, b) = mesh222();
        for n in b.fixed_nodes() {
            assert!(m.coords[n as usize][2].abs() < 1e-12);
        }
        // 2x2 grid quadratic bottom: 5x5 grid of points = 25
        assert_eq!(b.fixed_nodes().len(), 25);
    }

    #[test]
    fn free_surface_excludes_edges() {
        let (m, b) = mesh222();
        for n in b.free_surface_nodes() {
            let c = m.coords[n as usize];
            assert!((c[2] - 1.0).abs() < 1e-12);
            assert!(c[0] > 1e-12 && c[0] < 1.0 - 1e-12);
            assert!(c[1] > 1e-12 && c[1] < 1.0 - 1e-12);
        }
        // interior of 5x5 quadratic surface grid = 3x3 = 9
        assert_eq!(b.free_surface_nodes().len(), 9);
    }

    #[test]
    fn mid_edge_lookup() {
        assert_eq!(mid_edge_local(0, 1), 4);
        assert_eq!(mid_edge_local(1, 0), 4);
        assert_eq!(mid_edge_local(2, 3), 9);
        assert_eq!(mid_edge_local(3, 0), 7);
    }

    #[test]
    #[should_panic]
    fn mid_edge_rejects_non_edge() {
        mid_edge_local(0, 0);
    }

    #[test]
    fn quadratic_face_nodes_lie_on_face() {
        let (m, b) = mesh222();
        for f in &b.faces {
            let n = Vec3::from_array(f.normal);
            let p0 = m.node(f.nodes[0]);
            for &id in &f.nodes {
                let d = n.dot(m.node(id) - p0);
                assert!(d.abs() < 1e-12, "node off face plane by {d}");
            }
        }
    }
}
