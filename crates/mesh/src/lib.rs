//! # hetsolve-mesh
//!
//! Mesh substrate for the `hetsolve` reproduction of the SC24 paper
//! *"Heterogeneous computing in a strongly-connected CPU-GPU environment"*
//! (Ichimura et al.).
//!
//! Provides:
//!
//! * `vec3` — small geometric vector type,
//! * `mesh` — the second-order tetrahedral mesh container ([`mesh::TetMesh10`]),
//! * `generate` — structured box meshing (Kuhn 6-tet subdivision, Tet10
//!   promotion with shared mid-edge nodes),
//! * `ground` — the paper's three layered 3-D ground structure models
//!   (stratified / inclined / basin interface, Fig. 1),
//! * `boundary` — boundary extraction & classification (fixed bottom,
//!   absorbing sides, free loaded surface),
//! * `partition` — RCB / greedy graph partitioning with exact halo
//!   ("shared node") bookkeeping for multi-node runs (Fig. 2),
//! * `coloring` — run colouring of the stored element order and its
//!   validator, enabling the race-free parallel EBE scatter.

#![forbid(unsafe_code)]

mod boundary;
mod coloring;
mod generate;
mod ground;
mod io;
mod mesh;
mod partition;
mod vec3;

pub use boundary::{extract_boundary, BoundaryFace, BoundaryKind, BoundarySet};
pub use coloring::{color_runs, validate_runs, ColoringConflict, RunColoring};
pub use generate::{box_tet10, BoxGrid};
pub use ground::{GroundModel, GroundModelSpec, InterfaceShape, Material};
pub use io::{write_vtk_file, Field};
pub use mesh::{Incidence, TetMesh10, TET_EDGES};
pub use partition::{
    build_partition, edge_cut, halo_sum, partition_greedy, partition_rcb, Partition, SubMesh,
};
pub use vec3::Vec3;
