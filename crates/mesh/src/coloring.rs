//! Block colouring of the stored element order.
//!
//! The EBE (element-by-element) matrix-free SpMV scatters 30 values per
//! element into the global result vector. Elements handled at the same time
//! on different threads must not share a node, or their scatters race.
//! GPU EBE kernels (the paper's reference \[4\]) colour single elements; on a
//! CPU a thread is better off with a *run* of neighbouring elements.
//! [`color_runs`] cuts the stored order into contiguous runs and colours
//! the runs into phases whose runs touch disjoint node sets, so a phase can
//! be scattered in parallel without atomics; [`validate_runs`] is its
//! independent check ([`RunColoring`]; the block sweep of
//! `hetsolve_fem::CompactEbe`).

/// A violated colouring invariant: two runs of the same phase share a node,
/// so their parallel scatters would race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColoringConflict {
    /// Index of the offending group (phase).
    pub group: usize,
    /// The two same-phase run ids sharing `node`.
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
    pub(crate) fn n_runs(&self) -> usize {
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

/// The race-freedom precondition of the block sweep, independent of how
/// the phases were found: every run of `runs` appears in exactly one
/// phase, and no two runs of one phase share a node. Runs in `O(total node
/// incidences)` via a per-node last-writer stamp. A colouring that does not
/// fit `connectivity` (length, run ids, node ids) reports a conflict-shaped
/// error with `node == u32::MAX` or the offending id rather than
/// panicking, so a malformed colouring never reaches the unsafe scatter.
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
