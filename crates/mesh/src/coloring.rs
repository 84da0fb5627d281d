//! Greedy element coloring.
//!
//! The EBE (element-by-element) matrix-free SpMV scatters 30 values per
//! element into the global result vector. On a GPU (and on the host pool on
//! the CPU) elements in the same batch run concurrently, so two elements sharing
//! a node must not be processed at the same time. Coloring the element graph
//! (elements adjacent iff they share a node) gives batches ("colors") whose
//! members touch disjoint node sets; each color can then be scattered fully
//! in parallel without atomics — the standard strategy used by EBE GPU
//! kernels such as the one in the paper's reference [4].
//!
//! On a CPU a thread is better off with a *run* of neighbouring elements
//! than with scattered ones of one colour: [`color_runs`] cuts the stored
//! order into contiguous runs and colours the runs, [`validate_runs`] is
//! its independent check ([`RunColoring`]; the block sweep of
//! `hetsolve_fem::CompactEbe`).

use crate::mesh::TetMesh10;

/// An element coloring: `color[e]` in `0..n_colors`, with the guarantee that
/// no two elements of equal color share a node.
#[derive(Debug, Clone)]
pub struct Coloring {
    pub color: Vec<u32>,
    pub n_colors: u32,
    /// Element ids grouped by color, each group sorted ascending.
    pub groups: Vec<Vec<u32>>,
}

impl Coloring {
    /// Largest / smallest group sizes (a balance metric: similar sizes keep
    /// every parallel batch busy).
    pub fn group_size_range(&self) -> (usize, usize) {
        let sizes = self.groups.iter().map(|g| g.len());
        (sizes.clone().min().unwrap_or(0), sizes.max().unwrap_or(0))
    }
}

/// Greedy first-fit coloring over node-incidence conflicts.
///
/// Runs in `O(sum of element-node incidences)` using a per-node "last color
/// seen" table; for structured Tet10 ground meshes this yields ~20-40 colors
/// independent of mesh size.
pub fn color_elements(mesh: &TetMesh10) -> Coloring {
    let n2e = mesh.node_to_elems();
    let n = mesh.n_elems();
    let mut color = vec![u32::MAX; n];
    let mut n_colors = 0u32;
    // forbidden[c] == e marks color c as used by a neighbour of element e.
    let mut forbidden: Vec<u32> = Vec::new();

    for e in 0..n {
        // Mark colors of all node-sharing neighbours.
        for &node in &mesh.elems[e] {
            for &o in &n2e[node as usize] {
                let c = color[o as usize];
                if c != u32::MAX {
                    if c as usize >= forbidden.len() {
                        forbidden.resize(c as usize + 1, u32::MAX);
                    }
                    forbidden[c as usize] = e as u32;
                }
            }
        }
        // First color not forbidden for e.
        let c = (0..n_colors)
            .find(|&c| forbidden.get(c as usize).copied() != Some(e as u32))
            .unwrap_or_else(|| {
                n_colors += 1;
                n_colors - 1
            });
        color[e] = c;
    }

    let mut groups = vec![Vec::new(); n_colors as usize];
    for (e, &c) in color.iter().enumerate() {
        groups[c as usize].push(e as u32);
    }
    Coloring {
        color,
        n_colors,
        groups,
    }
}

/// Check that a coloring is conflict-free (no same-color node sharing).
pub fn verify_coloring(mesh: &TetMesh10, coloring: &Coloring) -> bool {
    validate_groups(mesh.n_nodes(), &mesh.elems, &coloring.groups).is_ok()
}

/// A violated coloring invariant: two entities of the same color group
/// share a node, so their parallel scatters would race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColoringConflict {
    /// Index of the offending group (color).
    pub group: usize,
    /// The two same-group entity ids (elements or faces) sharing `node`.
    pub first: u32,
    pub second: u32,
    pub node: u32,
}

impl std::fmt::Display for ColoringConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "coloring invariant violated: entities {} and {} of color group {} \
             both touch node {} — their parallel scatters would race",
            self.first, self.second, self.group, self.node
        )
    }
}

impl std::error::Error for ColoringConflict {}

/// Standalone validator for the race-freedom precondition of the
/// color-parallel EBE scatter: within each group, no two entities may
/// share a node. Works over raw connectivity (`K` = nodes per entity:
/// 10 for Tet10 elements, 6 for Tri6 faces), so operators that only hold
/// connectivity slices — not the mesh — can check their coloring once at
/// construction.
///
/// Runs in `O(total node incidences)` via a per-node last-writer stamp.
/// Entity ids outside `connectivity` or node ids `>= n_nodes` also report
/// a conflict-shaped error rather than panicking, so a malformed coloring
/// never reaches the unsafe scatter.
pub fn validate_groups<const K: usize>(
    n_nodes: usize,
    connectivity: &[[u32; K]],
    groups: &[Vec<u32>],
) -> Result<(), ColoringConflict> {
    // (group, owner) of the last entity that touched each node.
    let mut last_group = vec![u32::MAX; n_nodes];
    let mut last_owner = vec![u32::MAX; n_nodes];
    for (g, group) in groups.iter().enumerate() {
        for &id in group {
            let Some(nodes) = connectivity.get(id as usize) else {
                return Err(ColoringConflict {
                    group: g,
                    first: id,
                    second: id,
                    node: u32::MAX,
                });
            };
            for &node in nodes {
                let Some(lg) = last_group.get_mut(node as usize) else {
                    return Err(ColoringConflict {
                        group: g,
                        first: id,
                        second: id,
                        node,
                    });
                };
                let lo = &mut last_owner[node as usize];
                if *lg == g as u32 && *lo != id {
                    return Err(ColoringConflict {
                        group: g,
                        first: *lo,
                        second: id,
                        node,
                    });
                }
                *lg = g as u32;
                *lo = id;
            }
        }
    }
    Ok(())
}

/// A block colouring: the entities `0..n_entities` (elements or faces, in
/// stored order) cut into contiguous runs of `run_len` — the last may be
/// shorter — and the runs grouped into phases so that no two runs of one
/// phase share a node. One thread walks a run serially, so nothing is asked
/// of the entities *inside* a run; runs of one phase can be walked
/// concurrently without atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunColoring {
    pub run_len: usize,
    pub n_entities: usize,
    /// Run ids by phase, ascending within a phase.
    pub phases: Vec<Vec<u32>>,
}

impl RunColoring {
    pub fn n_runs(&self) -> usize {
        self.n_entities.div_ceil(self.run_len)
    }

    /// The entities of run `run`.
    pub fn run(&self, run: u32) -> std::ops::Range<usize> {
        let lo = run as usize * self.run_len;
        lo..self.n_entities.min(lo + self.run_len)
    }
}

/// Cut `connectivity` into runs of `run_len` entities and colour the runs
/// greedily, first fit, in run order. One pass over the node incidences: a
/// `u64` per node records which of the first 64 phases already touch it. A
/// run whose neighbours hold all 64 gets a phase of its own, so a mesh
/// stored in no spatial order still gets a valid — serial — colouring.
/// Node ids `>= n_nodes` are left for [`validate_runs`] to report.
pub fn color_runs<const K: usize>(
    n_nodes: usize,
    connectivity: &[[u32; K]],
    run_len: usize,
) -> RunColoring {
    assert!(run_len > 0, "run length must be positive");
    let mut seen = vec![0u64; n_nodes];
    let mut phases: Vec<Vec<u32>> = Vec::new();
    for (run, entities) in connectivity.chunks(run_len).enumerate() {
        let nodes = || entities.iter().flatten().map(|&n| n as usize);
        let taken = nodes().fold(0u64, |m, n| m | seen.get(n).copied().unwrap_or(0));
        let phase = (!taken).trailing_zeros() as usize;
        if phase < 64 {
            for n in nodes() {
                if let Some(mask) = seen.get_mut(n) {
                    *mask |= 1 << phase;
                }
            }
        }
        if phase < phases.len().min(64) {
            phases[phase].push(run as u32);
        } else {
            // the first run of a new phase, or one past the mask
            phases.push(vec![run as u32]);
        }
    }
    RunColoring {
        run_len,
        n_entities: connectivity.len(),
        phases,
    }
}

/// [`validate_groups`] for blocks: every run of `runs` appears in exactly
/// one phase, and no two runs of one phase share a node — the race-freedom
/// precondition of the block sweep, independent of how the phases were
/// found. `first`/`second` of the conflict are run ids; a colouring that
/// does not fit `connectivity` (length, run ids, node ids) reports a
/// conflict-shaped error with `node == u32::MAX` or the offending id.
pub fn validate_runs<const K: usize>(
    n_nodes: usize,
    connectivity: &[[u32; K]],
    runs: &RunColoring,
) -> Result<(), ColoringConflict> {
    let misfit = |group: usize, run: u32, node: u32| ColoringConflict {
        group,
        first: run,
        second: run,
        node,
    };
    if runs.run_len == 0 || runs.n_entities != connectivity.len() {
        return Err(misfit(0, u32::MAX, u32::MAX));
    }
    let mut listed = vec![false; runs.n_runs()];
    // (phase, run) of the last run that touched each node.
    let mut last = vec![(u32::MAX, u32::MAX); n_nodes];
    for (p, phase) in runs.phases.iter().enumerate() {
        for &run in phase {
            match listed.get_mut(run as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => return Err(misfit(p, run, u32::MAX)),
            }
            for &node in connectivity[runs.run(run)].iter().flatten() {
                let Some(stamp) = last.get_mut(node as usize) else {
                    return Err(misfit(p, run, node));
                };
                if stamp.0 == p as u32 && stamp.1 != run {
                    return Err(ColoringConflict {
                        group: p,
                        first: stamp.1,
                        second: run,
                        node,
                    });
                }
                *stamp = (p as u32, run);
            }
        }
    }
    match listed.iter().position(|&seen| !seen) {
        Some(run) => Err(misfit(runs.phases.len(), run as u32, u32::MAX)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{box_tet10, BoxGrid};

    #[test]
    fn coloring_is_valid() {
        let m = box_tet10(&BoxGrid::new(3, 3, 3, 1.0, 1.0, 1.0));
        let c = color_elements(&m);
        assert!(verify_coloring(&m, &c));
        assert_eq!(c.color.len(), m.n_elems());
    }

    #[test]
    fn groups_cover_all_elements() {
        let m = box_tet10(&BoxGrid::new(2, 3, 2, 1.0, 1.0, 1.0));
        let c = color_elements(&m);
        let total: usize = c.groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, m.n_elems());
        let mut seen = vec![false; m.n_elems()];
        for g in &c.groups {
            for &e in g {
                assert!(!seen[e as usize]);
                seen[e as usize] = true;
            }
        }
    }

    #[test]
    fn color_count_is_bounded_and_size_independent() {
        // Greedy coloring is at most max-degree + 1; for Kuhn Tet10 meshes
        // the conflict degree is bounded by a constant, so color count must
        // not grow with the mesh.
        let small = color_elements(&box_tet10(&BoxGrid::new(2, 2, 2, 1.0, 1.0, 1.0))).n_colors;
        let large = color_elements(&box_tet10(&BoxGrid::new(5, 5, 4, 1.0, 1.0, 1.0))).n_colors;
        assert!(large <= small + 16, "small={small} large={large}");
        assert!(large < 128);
    }

    #[test]
    fn single_element_gets_one_color() {
        let m = box_tet10(&BoxGrid::new(1, 1, 1, 1.0, 1.0, 1.0));
        let c = color_elements(&m);
        // 6 Kuhn tets all share the main diagonal -> all different colors
        assert_eq!(c.n_colors, 6);
        assert!(verify_coloring(&m, &c));
    }

    #[test]
    fn verify_detects_conflicts() {
        let m = box_tet10(&BoxGrid::new(1, 1, 1, 1.0, 1.0, 1.0));
        let mut c = color_elements(&m);
        // force two adjacent elements to the same color
        c.color[1] = c.color[0];
        c.groups = {
            let mut groups = vec![Vec::new(); c.n_colors as usize];
            for (e, &col) in c.color.iter().enumerate() {
                groups[col as usize].push(e as u32);
            }
            groups
        };
        assert!(!verify_coloring(&m, &c));
    }

    #[test]
    fn validate_groups_reports_offending_pair() {
        let m = box_tet10(&BoxGrid::new(1, 1, 1, 1.0, 1.0, 1.0));
        // all 6 Kuhn tets share the main diagonal: putting 0 and 1 in one
        // group must name exactly that pair and a node they share.
        let groups = vec![vec![0u32, 1u32]];
        let err = validate_groups(m.n_nodes(), &m.elems, &groups).unwrap_err();
        assert_eq!(err.group, 0);
        assert_eq!((err.first, err.second), (0, 1));
        assert!(m.elems[0].contains(&err.node) && m.elems[1].contains(&err.node));
        // the message is how operators surface this at construction time
        assert!(err.to_string().contains("would race"));
    }

    #[test]
    fn validate_groups_accepts_greedy_coloring_and_faces() {
        let m = box_tet10(&BoxGrid::new(2, 2, 2, 1.0, 1.0, 1.0));
        let c = color_elements(&m);
        assert!(validate_groups(m.n_nodes(), &m.elems, &c.groups).is_ok());
        // disjoint fake Tri6 faces over distinct nodes validate trivially
        let faces: Vec<[u32; 6]> = vec![[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]];
        assert!(validate_groups(m.n_nodes(), &faces, &[vec![0, 1]]).is_ok());
        // overlapping faces in one group do not
        let overlap: Vec<[u32; 6]> = vec![[0, 1, 2, 3, 4, 5], [5, 6, 7, 8, 9, 10]];
        let err = validate_groups(m.n_nodes(), &overlap, &[vec![0, 1]]).unwrap_err();
        assert_eq!(err.node, 5);
    }

    #[test]
    fn validate_groups_rejects_out_of_range_ids() {
        let elems: Vec<[u32; 10]> = vec![[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]];
        // entity id beyond connectivity
        assert!(validate_groups(12, &elems, &[vec![3]]).is_err());
        // node id beyond n_nodes
        assert!(validate_groups(4, &elems, &[vec![0]]).is_err());
    }

    #[test]
    fn runs_are_contiguous_and_phases_validate() {
        let m = box_tet10(&BoxGrid::new(4, 3, 2, 1.0, 1.0, 1.0));
        for run_len in [1, 5, 16, 64, 1000] {
            let runs = color_runs(m.n_nodes(), &m.elems, run_len);
            assert_eq!(runs.n_runs(), m.n_elems().div_ceil(run_len));
            assert_eq!(runs.run(0), 0..run_len.min(m.n_elems()));
            let last = runs.n_runs() as u32 - 1;
            assert_eq!(runs.run(last).end, m.n_elems());
            assert_eq!(validate_runs(m.n_nodes(), &m.elems, &runs), Ok(()));
            assert!(runs.phases.iter().all(|p| p.is_sorted()));
        }
        // runs of one element are an element colouring, found first fit in
        // the same order as `color_elements` finds its own
        let single = color_runs(m.n_nodes(), &m.elems, 1);
        assert_eq!(single.phases, color_elements(&m).groups);
        // no entities: no runs, no phases, valid
        let none = color_runs::<6>(m.n_nodes(), &[], 64);
        assert_eq!((none.n_runs(), none.phases.len()), (0, 0));
        assert_eq!(validate_runs::<6>(m.n_nodes(), &[], &none), Ok(()));
    }

    #[test]
    fn validate_runs_names_the_racing_pair_and_rejects_misfits() {
        let m = box_tet10(&BoxGrid::new(2, 1, 1, 1.0, 1.0, 1.0));
        let good = color_runs(m.n_nodes(), &m.elems, 6);
        // two cells side by side share a face: their runs need two phases
        assert_eq!(good.phases, vec![vec![0], vec![1]]);
        let with = |phases: Vec<Vec<u32>>| RunColoring {
            phases,
            ..good.clone()
        };
        let check = |runs: &RunColoring| validate_runs(m.n_nodes(), &m.elems, runs);

        let err = check(&with(vec![vec![0, 1]])).unwrap_err();
        assert_eq!((err.group, err.first, err.second), (0, 0, 1));
        assert!(m.elems[..6].iter().flatten().any(|&n| n == err.node));
        assert!(m.elems[6..].iter().flatten().any(|&n| n == err.node));
        assert!(err.to_string().contains("would race"));

        // a run listed twice, a run missing, a run that does not exist
        assert!(check(&with(vec![vec![0], vec![1], vec![0]])).is_err());
        assert!(check(&with(vec![vec![0]])).is_err());
        assert!(check(&with(vec![vec![0], vec![1], vec![2]])).is_err());
        // a colouring of another connectivity, a zero run length
        assert!(validate_runs(m.n_nodes(), &m.elems[..7], &good).is_err());
        let zero = RunColoring {
            run_len: 0,
            ..good.clone()
        };
        assert!(check(&zero).is_err());
        // a node id beyond `n_nodes`: coloured without a panic, then refused
        let few = m.n_nodes() - 1;
        let runs = color_runs(few, &m.elems, 6);
        assert_eq!(
            validate_runs(few, &m.elems, &runs).unwrap_err().node,
            few as u32
        );
    }

    /// More than 64 mutually conflicting runs: the mask is full, the rest
    /// get a phase each, and the colouring still validates.
    #[test]
    fn runs_beyond_the_mask_get_a_phase_of_their_own() {
        // 70 "faces" through one shared node
        let faces: Vec<[u32; 6]> = (0..70u32)
            .map(|f| [0, 5 * f + 1, 5 * f + 2, 5 * f + 3, 5 * f + 4, 5 * f + 5])
            .collect();
        let runs = color_runs(351, &faces, 1);
        assert_eq!(runs.phases.len(), 70);
        assert!(runs.phases.iter().all(|p| p.len() == 1));
        assert_eq!(validate_runs(351, &faces, &runs), Ok(()));
        // a free run after the overflow still joins an early phase
        let mut more = faces.clone();
        more.push([400, 401, 402, 403, 404, 405]);
        let runs = color_runs(406, &more, 1);
        assert_eq!(runs.phases[0], vec![0, 70]);
        assert_eq!(validate_runs(406, &more, &runs), Ok(()));
    }
}
