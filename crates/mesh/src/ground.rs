//! Layered 3-D ground structure models.
//!
//! The paper's target problem (§3.1) is a `950 × 950 × 120 m` ground volume
//! with a flat surface and a sedimentary layer over bedrock, where the three
//! evaluated models differ only in the shape of the sediment/bedrock
//! interface (Fig. 1): (a) horizontally stratified, (b) inclined, and (c) a
//! basin-shaped depression. This module generates scaled versions of those
//! models on the structured Tet10 grid.
//!
//! Coordinates: `z = 0` is the domain bottom (fixed boundary), `z = lz` the
//! free ground surface. "Depth" below is measured down from the surface.

use crate::generate::{box_tet10, BoxGrid};
use crate::mesh::TetMesh10;
use crate::vec3::Vec3;

/// Isotropic elastic material described by wave speeds, as customary in
/// seismology: mass density `rho` (kg/m³), S-wave speed `vs` (m/s), and
/// P-wave speed `vp` (m/s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    pub rho: f64,
    pub vs: f64,
    pub vp: f64,
}

impl Material {
    pub fn new(rho: f64, vs: f64, vp: f64) -> Self {
        assert!(
            rho > 0.0 && vs > 0.0 && vp > vs * (4.0f64 / 3.0).sqrt() - 1e-12,
            "need rho > 0, vs > 0 and vp > sqrt(4/3) vs for a positive-definite material"
        );
        Material { rho, vs, vp }
    }

    /// Shear modulus `mu = rho vs²` (Pa).
    #[inline]
    pub fn mu(&self) -> f64 {
        self.rho * self.vs * self.vs
    }

    /// First Lamé parameter `lambda = rho (vp² − 2 vs²)` (Pa).
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.rho * (self.vp * self.vp - 2.0 * self.vs * self.vs)
    }
}

/// The three interface shapes of the paper's Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterfaceShape {
    /// (a) horizontally stratified: interface at a constant depth.
    Stratified,
    /// (b) inclined interface: depth grows linearly along +x.
    Inclined,
    /// (c) basin: a smooth bowl-shaped deepening at the domain centre.
    Basin,
}

/// Description of a two-layer ground model over a box grid.
#[derive(Debug, Clone)]
pub struct GroundModelSpec {
    pub grid: BoxGrid,
    pub shape: InterfaceShape,
    /// Sediment layer material (upper layer).
    pub sediment: Material,
    /// Bedrock material (lower layer).
    pub bedrock: Material,
    /// Reference depth of the interface below the surface (m).
    pub interface_depth: f64,
    /// Amplitude of the interface variation for `Inclined`/`Basin` (m).
    pub variation: f64,
}

/// Material ids used by generated ground meshes.
pub(crate) const MAT_SEDIMENT: u16 = 0;
pub(crate) const MAT_BEDROCK: u16 = 1;

impl GroundModelSpec {
    /// The paper-inspired default: soft sediment over stiff bedrock, scaled
    /// geometry. `nx × ny × nz` controls resolution; physical size defaults
    /// to 950 × 950 × 120 m like the paper's models.
    pub fn paper_like(nx: usize, ny: usize, nz: usize, shape: InterfaceShape) -> Self {
        GroundModelSpec {
            grid: BoxGrid::new(nx, ny, nz, 950.0, 950.0, 120.0),
            shape,
            sediment: Material::new(1800.0, 200.0, 700.0),
            bedrock: Material::new(2100.0, 800.0, 2000.0),
            interface_depth: 40.0,
            variation: 30.0,
        }
    }

    /// A small test-sized model (fast to build/solve in unit tests).
    pub fn small(shape: InterfaceShape) -> Self {
        Self::paper_like(6, 6, 4, shape)
    }

    /// Depth (m, below surface) of the sediment/bedrock interface at (x, y).
    pub(crate) fn interface_depth_at(&self, x: f64, y: f64) -> f64 {
        let d0 = self.interface_depth;
        match self.shape {
            InterfaceShape::Stratified => d0,
            InterfaceShape::Inclined => {
                // linear ramp along x from d0 - v/2 to d0 + v/2
                d0 + self.variation * (x / self.grid.lx - 0.5)
            }
            InterfaceShape::Basin => {
                // smooth gaussian bowl centred in the domain
                let cx = 0.5 * self.grid.lx;
                let cy = 0.5 * self.grid.ly;
                let r2 = ((x - cx).powi(2) + (y - cy).powi(2))
                    / (0.18 * (self.grid.lx * self.grid.lx + self.grid.ly * self.grid.ly));
                d0 + self.variation * (-r2).exp()
            }
        }
    }

    /// Material id at a physical point.
    pub(crate) fn material_at(&self, p: Vec3) -> u16 {
        let depth = self.grid.lz - p.z;
        if depth <= self.interface_depth_at(p.x, p.y) {
            MAT_SEDIMENT
        } else {
            MAT_BEDROCK
        }
    }

    /// Material table indexed by the material ids above.
    pub fn materials(&self) -> Vec<Material> {
        vec![self.sediment, self.bedrock]
    }

    /// Generate the Tet10 mesh with per-element materials assigned by
    /// element centroid.
    pub fn build(&self) -> GroundModel {
        let mut mesh = box_tet10(&self.grid);
        for e in 0..mesh.n_elems() {
            mesh.material[e] = self.material_at(mesh.elem_centroid(e));
        }
        GroundModel {
            spec: self.clone(),
            mesh,
        }
    }
}

/// A generated ground model: the spec plus its Tet10 mesh.
#[derive(Debug, Clone)]
pub struct GroundModel {
    pub spec: GroundModelSpec,
    pub mesh: TetMesh10,
}

impl GroundModel {
    /// 1-D layer theory estimate of the fundamental site frequency at (x,y):
    /// `f ≈ vs / (4 H)` for a soft layer of thickness `H` over stiff bedrock.
    /// Used to cross-check the FDD pipeline in integration tests.
    pub fn theoretical_site_frequency(&self, x: f64, y: f64) -> f64 {
        let h = self.spec.interface_depth_at(x, y);
        self.spec.sediment.vs / (4.0 * h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn material_properties() {
        let m = Material::new(1800.0, 200.0, 700.0);
        assert!((m.mu() - 1800.0 * 200.0 * 200.0).abs() < 1e-6);
        assert!(m.lambda() > 0.0);
        let (l, mu) = (m.lambda(), m.mu());
        let nu = l / (2.0 * (l + mu));
        assert!(nu > 0.0 && nu < 0.5, "Poisson's ratio {nu}");
        assert!(
            mu * (3.0 * l + 2.0 * mu) / (l + mu) > 0.0,
            "Young's modulus"
        );
    }

    #[test]
    #[should_panic]
    fn bad_material_rejected() {
        // vp too small relative to vs => negative lambda beyond limit
        Material::new(2000.0, 1000.0, 1000.0);
    }

    #[test]
    fn stratified_has_flat_interface() {
        let s = GroundModelSpec::small(InterfaceShape::Stratified);
        assert_eq!(
            s.interface_depth_at(0.0, 0.0),
            s.interface_depth_at(500.0, 700.0)
        );
    }

    #[test]
    fn inclined_interface_slopes_along_x() {
        let s = GroundModelSpec::small(InterfaceShape::Inclined);
        let d0 = s.interface_depth_at(0.0, 100.0);
        let d1 = s.interface_depth_at(s.grid.lx, 100.0);
        assert!((d1 - d0 - s.variation).abs() < 1e-12);
        // independent of y
        assert_eq!(
            s.interface_depth_at(10.0, 0.0),
            s.interface_depth_at(10.0, 900.0)
        );
    }

    #[test]
    fn basin_is_deepest_at_centre() {
        let s = GroundModelSpec::small(InterfaceShape::Basin);
        let dc = s.interface_depth_at(0.5 * s.grid.lx, 0.5 * s.grid.ly);
        let de = s.interface_depth_at(0.0, 0.0);
        assert!(dc > de);
        assert!((dc - s.interface_depth - s.variation).abs() < 1e-9);
    }

    #[test]
    fn built_model_has_both_materials() {
        let gm = GroundModelSpec::small(InterfaceShape::Stratified).build();
        gm.mesh.validate().unwrap();
        let n_sed = gm
            .mesh
            .material
            .iter()
            .filter(|&&m| m == MAT_SEDIMENT)
            .count();
        let n_rock = gm
            .mesh
            .material
            .iter()
            .filter(|&&m| m == MAT_BEDROCK)
            .count();
        assert!(n_sed > 0 && n_rock > 0);
        assert_eq!(n_sed + n_rock, gm.mesh.n_elems());
    }

    #[test]
    fn shallow_elements_are_sediment() {
        let gm = GroundModelSpec::small(InterfaceShape::Stratified).build();
        for e in 0..gm.mesh.n_elems() {
            let c = gm.mesh.elem_centroid(e);
            let depth = gm.spec.grid.lz - c.z;
            if depth < gm.spec.interface_depth - 1e-9 {
                assert_eq!(
                    gm.mesh.material[e], MAT_SEDIMENT,
                    "elem {e} at depth {depth}"
                );
            }
        }
    }

    #[test]
    fn theoretical_frequency_reasonable() {
        let gm = GroundModelSpec::small(InterfaceShape::Stratified).build();
        let f = gm.theoretical_site_frequency(100.0, 100.0);
        // vs=200, H=40 => f = 1.25 Hz
        assert!((f - 1.25).abs() < 1e-12);
    }
}
