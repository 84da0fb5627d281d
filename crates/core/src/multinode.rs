//! Multi-node (partitioned) execution — the paper's Fig. 2 scheme.
//!
//! The mesh is graph-partitioned; each partition applies its local
//! matrix-free EBE operator and the shared (interface) nodal values are
//! summed across partitions every operator application — in the paper via
//! GPUDirect MPI, here via [`hetsolve_mesh::halo_sum`]. The result is
//! bitwise the work distribution of a distributed run while remaining
//! exactly consistent with the sequential operator (verified by tests),
//! which is what the paper means by "the computation becomes consistent
//! with a single CPU-GPU case".

use hetsolve_fem::{CompactEbe, CompactElements, FemProblem, ScatterPlan};
use hetsolve_mesh::{build_partition, partition_rcb, Partition, SubMesh};
use hetsolve_obs::Json;
use hetsolve_sparse::{KernelCounts, LinearOperator};

/// Partition-quality numbers for the bench snapshot: how well the RCB
/// decomposition balanced the work and how much halo it must exchange.
#[derive(Debug, Clone)]
pub struct PartitionMetrics {
    pub n_parts: usize,
    /// Owned elements of each part.
    pub elems_per_part: Vec<usize>,
    /// `max(elems) / mean(elems)` — 1.0 is a perfect balance.
    pub element_imbalance: f64,
    /// Worst-partition halo bytes per operator application at `r` = 1.
    pub max_halo_bytes: f64,
    /// Halo nodes summed over parts (shared nodes counted per sharer).
    pub total_halo_nodes: usize,
}

impl PartitionMetrics {
    /// JSON row for a `MetricsSink` section.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n_parts", Json::from(self.n_parts)),
            (
                "elems_per_part",
                Json::Arr(self.elems_per_part.iter().map(|&e| Json::from(e)).collect()),
            ),
            ("element_imbalance", Json::Num(self.element_imbalance)),
            ("max_halo_bytes", Json::Num(self.max_halo_bytes)),
            ("total_halo_nodes", Json::from(self.total_halo_nodes)),
        ])
    }
}

/// Everything one partition needs to apply its local operator.
pub struct LocalPart {
    pub sub: SubMesh,
    pub compact: CompactElements,
    /// The block sweep of the sub-mesh and its local faces, validated once.
    plan: ScatterPlan,
    /// Local dashpot faces (in local node ids) + packed matrices.
    pub faces: Vec<[u32; 6]>,
    pub cb: Vec<f64>,
    /// Local Dirichlet mask.
    pub fixed: Vec<bool>,
}

/// A partitioned problem ready for distributed application.
pub struct PartitionedProblem {
    pub parts: Vec<LocalPart>,
    pub partition: Partition,
    pub n_global_nodes: usize,
    /// Global Dirichlet mask.
    pub fixed_global: Vec<bool>,
    /// Operator coefficients `(c_m, c_k, c_b)`.
    pub coeffs: (f64, f64, f64),
    pub parallel: bool,
}

impl PartitionedProblem {
    /// Partition a built problem into `n_parts` RCB parts and set up local
    /// operators for the Newmark system matrix.
    pub fn new(problem: &FemProblem, n_parts: usize, parallel: bool) -> Self {
        let mesh = &problem.model.mesh;
        let elem_part = partition_rcb(mesh, n_parts);
        let partition = build_partition(mesh, &elem_part, n_parts);
        let a = problem.a_coeffs();
        let fixed_global: Vec<bool> = problem.mask.as_slice().to_vec();

        let parts = partition
            .parts
            .iter()
            .map(|sub| {
                let compact = CompactElements::compute(&sub.mesh, &problem.materials);
                // map global dashpot faces owned by this part's elements
                let g2l: std::collections::HashMap<u32, u32> = sub
                    .l2g
                    .iter()
                    .enumerate()
                    .map(|(l, &g)| (g, l as u32))
                    .collect();
                let in_part: std::collections::HashSet<u32> =
                    sub.global_elems.iter().copied().collect();
                let mut faces = Vec::new();
                let mut cb = Vec::new();
                for (f, fb) in problem.boundary.faces.iter().enumerate() {
                    let _ = f;
                    if fb.kind != hetsolve_mesh::BoundaryKind::Side || !in_part.contains(&fb.elem) {
                        continue;
                    }
                    // find this face in the dashpot store by connectivity
                    // (dashpots were built in boundary order over Side faces)
                    let mut local = [0u32; 6];
                    for (k, &g) in fb.nodes.iter().enumerate() {
                        local[k] = g2l[&g];
                    }
                    faces.push(local);
                    // locate matching stored matrix
                    #[allow(
                        clippy::expect_used,
                        reason = "boundary faces are enumerated from the same mesh the \
                                  dashpot store was built from, so every Side face has \
                                  a stored matrix by construction"
                    )]
                    let idx = problem
                        .dashpots
                        .faces
                        .iter()
                        .position(|fc| *fc == fb.nodes)
                        .expect("dashpot store mismatch");
                    cb.extend_from_slice(problem.dashpots.cb_of(idx));
                }
                let fg = &fixed_global;
                let fixed: Vec<bool> = sub
                    .l2g
                    .iter()
                    .flat_map(|&g| (0..3).map(move |d| fg[3 * g as usize + d]))
                    .collect();
                let sub = sub.clone();
                let plan = ScatterPlan::validate(sub.mesh.n_nodes(), &sub.mesh.elems, &faces);
                LocalPart {
                    sub,
                    compact,
                    plan,
                    faces,
                    cb,
                    fixed,
                }
            })
            .collect();

        PartitionedProblem {
            parts,
            partition,
            n_global_nodes: mesh.n_nodes(),
            fixed_global,
            coeffs: (a.c_m, a.c_k, a.c_b),
            parallel,
        }
    }

    fn local_op<'a>(&'a self, p: &'a LocalPart) -> CompactEbe<'a> {
        CompactEbe::with_plan(
            p.sub.mesh.n_nodes(),
            &p.sub.mesh.elems,
            &p.compact,
            &p.faces,
            &p.cb,
            self.coeffs,
            &p.fixed,
            &p.plan,
            self.parallel,
            1,
        )
        .without_fixed_identity()
    }

    /// Worst-partition halo bytes exchanged per operator application for
    /// `r` fused cases — the input of the weak-scaling model (Fig. 5).
    pub(crate) fn max_halo_bytes(&self, r: usize) -> f64 {
        self.parts
            .iter()
            .map(|p| (p.sub.halo_size() * 3 * 8 * r) as f64)
            .fold(0.0, f64::max)
    }

    /// Partition-quality metrics for the bench snapshot.
    pub fn metrics(&self) -> PartitionMetrics {
        let elems_per_part: Vec<usize> = self.parts.iter().map(|p| p.sub.mesh.n_elems()).collect();
        let mean = elems_per_part.iter().sum::<usize>() as f64 / elems_per_part.len().max(1) as f64;
        let max = elems_per_part.iter().copied().max().unwrap_or(0) as f64;
        PartitionMetrics {
            n_parts: self.parts.len(),
            element_imbalance: if mean > 0.0 { max / mean } else { 1.0 },
            max_halo_bytes: self.max_halo_bytes(1),
            total_halo_nodes: self.parts.iter().map(|p| p.sub.halo_size()).sum(),
            elems_per_part,
        }
    }

    /// Per-part neighbour byte lists for the cluster model.
    pub fn halo_pattern(&self, part: usize, r: usize) -> hetsolve_machine::HaloPattern {
        let p = &self.parts[part];
        hetsolve_machine::HaloPattern {
            neighbor_bytes: p
                .sub
                .neighbors
                .iter()
                .map(|(_, pairs)| (pairs.len() * 3 * 8 * r) as f64)
                .collect(),
        }
    }
}

/// The distributed operator on *global* vectors, so the one CG drives it
/// unchanged.
impl LinearOperator for PartitionedProblem {
    fn n(&self) -> usize {
        3 * self.n_global_nodes
    }

    /// Scatter to locals, apply the local operators, halo-sum the shared
    /// nodes, gather back, then apply the Dirichlet identity once.
    /// Numerically identical to the global operator (tests check to
    /// rounding).
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), 3 * self.n_global_nodes);
        let mut locals: Vec<Vec<f64>> = Vec::with_capacity(self.parts.len());
        for p in &self.parts {
            let nl = p.sub.mesh.n_nodes();
            let mut xl = vec![0.0; 3 * nl];
            for (l, &g) in p.sub.l2g.iter().enumerate() {
                for d in 0..3 {
                    xl[3 * l + d] = x[3 * g as usize + d];
                }
            }
            let mut yl = vec![0.0; 3 * nl];
            self.local_op(p).apply(&xl, &mut yl);
            locals.push(yl);
        }
        hetsolve_mesh::halo_sum(&self.partition.parts, &mut locals, 3);
        y.fill(0.0);
        for (p, yl) in self.parts.iter().zip(&locals) {
            for (l, &g) in p.sub.l2g.iter().enumerate() {
                if p.sub.owned[l] {
                    for d in 0..3 {
                        y[3 * g as usize + d] = yl[3 * l + d];
                    }
                }
            }
        }
        for (i, &f) in self.fixed_global.iter().enumerate() {
            if f {
                y[i] = x[i];
            }
        }
    }

    fn counts(&self) -> KernelCounts {
        // same arithmetic as the sequential operator; communication is
        // charged by the cluster model, not here.
        let ne: usize = self.parts.iter().map(|p| p.sub.mesh.n_elems()).sum();
        let nf: usize = self.parts.iter().map(|p| p.faces.len()).sum();
        hetsolve_fem::compact_ebe_counts(ne, nf, self.n(), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};
    use hetsolve_sparse::{pcg, CgConfig};

    fn problem() -> FemProblem {
        FemProblem::paper_like(&GroundModelSpec::paper_like(
            4,
            3,
            2,
            InterfaceShape::Inclined,
        ))
    }

    #[test]
    fn distributed_apply_matches_sequential() {
        let prob = problem();
        let backend = Backend::new(prob.clone(), false, false);
        for np in [2usize, 3, 5] {
            let part = PartitionedProblem::new(&backend.problem, np, false);
            let n = backend.n_dofs();
            let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.177).sin()).collect();
            let mut y_seq = vec![0.0; n];
            let mut y_dist = vec![0.0; n];
            backend.ebe_a(1).apply(&x, &mut y_seq);
            part.apply(&x, &mut y_dist);
            let scale = y_seq.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
            for i in 0..n {
                assert!(
                    (y_dist[i] - y_seq[i]).abs() < 1e-9 * scale,
                    "np={np} dof {i}: {} vs {}",
                    y_dist[i],
                    y_seq[i]
                );
            }
        }
    }

    #[test]
    fn distributed_cg_matches_sequential_cg() {
        let prob = problem();
        let backend = Backend::new(prob.clone(), false, false);
        let part = PartitionedProblem::new(&backend.problem, 4, false);
        let n = backend.n_dofs();
        let mut f: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.31).cos()).collect();
        backend.problem.mask.project(&mut f);
        let cfg = CgConfig {
            tol: 1e-10,
            max_iter: 3000,
            ..CgConfig::default()
        };
        let mut x1 = vec![0.0; n];
        let s1 = pcg(&backend.ebe_a(1), &backend.precond, &f, &mut x1, &cfg);
        let mut x2 = vec![0.0; n];
        let s2 = pcg(&part, &backend.precond, &f, &mut x2, &cfg);
        assert!(s1.converged && s2.converged);
        // identical operator => near-identical iterations & solutions
        assert!((s1.iterations as i64 - s2.iterations as i64).abs() <= 1);
        let scale = x1.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        for i in 0..n {
            assert!((x1[i] - x2[i]).abs() < 1e-6 * scale, "dof {i}");
        }
    }

    #[test]
    fn halo_sizes_reported() {
        let prob = problem();
        let part = PartitionedProblem::new(&prob, 3, false);
        assert!(part.max_halo_bytes(4) > 0.0);
        for p in 0..3 {
            let pat = part.halo_pattern(p, 1);
            assert!(!pat.neighbor_bytes.is_empty());
        }
        // r scales bytes linearly
        assert!((part.max_halo_bytes(4) / part.max_halo_bytes(1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn partition_metrics_are_consistent() {
        let prob = problem();
        let part = PartitionedProblem::new(&prob, 3, false);
        let m = part.metrics();
        assert_eq!(m.n_parts, 3);
        assert_eq!(m.elems_per_part.len(), 3);
        assert_eq!(
            m.elems_per_part.iter().sum::<usize>(),
            prob.model.mesh.n_elems()
        );
        assert!(m.element_imbalance >= 1.0);
        assert_eq!(m.max_halo_bytes, part.max_halo_bytes(1));
        assert!(m.total_halo_nodes > 0);
        // the JSON row round-trips through the hand-rolled parser
        let text = m.to_json().to_string_pretty();
        let v = hetsolve_obs::parse_json(&text).unwrap();
        assert_eq!(v.get("n_parts").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("elems_per_part").unwrap().items().len(), 3);
    }

    #[test]
    fn dashpot_faces_are_distributed_completely() {
        let prob = problem();
        let part = PartitionedProblem::new(&prob, 4, false);
        let total: usize = part.parts.iter().map(|p| p.faces.len()).sum();
        assert_eq!(total, prob.dashpots.n_faces());
    }
}
