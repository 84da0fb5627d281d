//! Mesh partitioning for multi-node execution.
//!
//! The paper partitions the finite element model with METIS and runs
//! Algorithm 3 on each partition, exchanging shared nodal values between
//! GPUs each CG iteration. We implement two from-scratch partitioners with
//! the same role:
//!
//! * [`partition_rcb`] — recursive coordinate bisection on element
//!   centroids (geometric; excellent balance on structured ground models),
//! * [`partition_greedy`] — graph-growing over the element adjacency graph
//!   (topological; used as an ablation comparison).
//!
//! [`build_partition`] derives, for each part, a self-contained
//! [`SubMesh`] with local node numbering, ownership flags, and ordered
//! shared-node lists so that a halo "exchange" (sum over parts) makes the
//! distributed computation bitwise-consistent with the sequential one.

use std::collections::HashMap;

use crate::mesh::TetMesh10;

/// Recursive coordinate bisection: returns `elem -> part` for `n_parts`
/// parts with element counts differing by at most 1.
pub fn partition_rcb(mesh: &TetMesh10, n_parts: usize) -> Vec<u32> {
    assert!(n_parts >= 1, "need at least one part");
    let centroids: Vec<[f64; 3]> = (0..mesh.n_elems())
        .map(|e| mesh.elem_centroid(e).to_array())
        .collect();
    let mut part = vec![0u32; mesh.n_elems()];
    let mut ids: Vec<u32> = (0..mesh.n_elems() as u32).collect();
    rcb_recurse(&centroids, &mut ids, n_parts, 0, &mut part);
    part
}

fn rcb_recurse(
    centroids: &[[f64; 3]],
    ids: &mut [u32],
    n_parts: usize,
    base: u32,
    part: &mut [u32],
) {
    if n_parts == 1 {
        for &e in ids.iter() {
            part[e as usize] = base;
        }
        return;
    }
    // Split proportionally so odd part counts stay balanced.
    let left_parts = n_parts / 2;
    let right_parts = n_parts - left_parts;
    let split = ids.len() * left_parts / n_parts;

    // Choose the axis with the largest centroid spread.
    let mut axis = 0;
    let mut best = f64::NEG_INFINITY;
    for a in 0..3 {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &e in ids.iter() {
            let v = centroids[e as usize][a];
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi - lo > best {
            best = hi - lo;
            axis = a;
        }
    }
    // Partial sort around the split point (ties broken by element id for
    // determinism).
    ids.select_nth_unstable_by(split.min(ids.len().saturating_sub(1)), |&a, &b| {
        centroids[a as usize][axis]
            .partial_cmp(&centroids[b as usize][axis])
            .unwrap()
            .then(a.cmp(&b))
    });
    let (l, r) = ids.split_at_mut(split);
    rcb_recurse(centroids, l, left_parts, base, part);
    rcb_recurse(centroids, r, right_parts, base + left_parts as u32, part);
}

/// Element adjacency graph (elements sharing at least one node are adjacent).
pub(crate) fn element_adjacency(mesh: &TetMesh10) -> Vec<Vec<u32>> {
    let n2e = mesh.node_to_elems();
    let mut adj = vec![Vec::new(); mesh.n_elems()];
    for (e, el) in mesh.elems.iter().enumerate() {
        let mut nbrs: Vec<u32> = el
            .iter()
            .flat_map(|&n| n2e.of_node(n as usize).iter().copied())
            .filter(|&o| o != e as u32)
            .collect();
        nbrs.sort_unstable();
        nbrs.dedup();
        adj[e] = nbrs;
    }
    adj
}

/// Greedy graph-growing partitioner: grows each part from the unassigned
/// element with the lowest id, BFS-style, until its quota is filled.
pub fn partition_greedy(mesh: &TetMesh10, n_parts: usize) -> Vec<u32> {
    assert!(n_parts >= 1);
    let n = mesh.n_elems();
    let adj = element_adjacency(mesh);
    let mut part = vec![u32::MAX; n];
    let mut assigned = 0usize;
    for p in 0..n_parts {
        let quota = (n - assigned) / (n_parts - p);
        if quota == 0 {
            continue;
        }
        // Seed: first unassigned element.
        let seed = (0..n)
            .find(|&e| part[e] == u32::MAX)
            .expect("quota math guarantees a seed");
        let mut queue = std::collections::VecDeque::from([seed as u32]);
        let mut grabbed = 0usize;
        while grabbed < quota {
            let e = match queue.pop_front() {
                Some(e) if part[e as usize] == u32::MAX => e,
                Some(_) => continue,
                // Disconnected remainder: fall back to the next unassigned id.
                None => (0..n).find(|&e| part[e] == u32::MAX).unwrap() as u32,
            };
            part[e as usize] = p as u32;
            grabbed += 1;
            for &o in &adj[e as usize] {
                if part[o as usize] == u32::MAX {
                    queue.push_back(o);
                }
            }
        }
        assigned += grabbed;
    }
    part
}

/// Number of adjacency edges cut by a partition (quality metric; lower is
/// better for communication volume).
pub fn edge_cut(mesh: &TetMesh10, part: &[u32]) -> usize {
    let adj = element_adjacency(mesh);
    let mut cut = 0;
    for (e, nbrs) in adj.iter().enumerate() {
        for &o in nbrs {
            if (o as usize) > e && part[e] != part[o as usize] {
                cut += 1;
            }
        }
    }
    cut
}

/// One part of a partitioned mesh with local numbering.
#[derive(Debug, Clone)]
pub struct SubMesh {
    pub part_id: u32,
    /// Local mesh (local node ids in `elems`).
    pub mesh: TetMesh10,
    /// Global element ids, index-aligned with `mesh.elems`.
    pub global_elems: Vec<u32>,
    /// local node -> global node.
    pub l2g: Vec<u32>,
    /// `true` for local nodes owned by this part (owner = min part id
    /// among the parts whose elements touch the node).
    pub owned: Vec<bool>,
    /// For each neighbouring part `q`: `(q, pairs)` where `pairs[i] =
    /// (local node here, local node on q)`, ordered by global node id.
    /// Symmetric across the two parts.
    pub neighbors: Vec<(u32, Vec<(u32, u32)>)>,
}

impl SubMesh {
    /// Number of locally-owned nodes.
    pub fn n_owned(&self) -> usize {
        self.owned.iter().filter(|&&o| o).count()
    }

    /// Total shared (interface) node count, with multiplicity per neighbour.
    pub fn halo_size(&self) -> usize {
        self.neighbors.iter().map(|(_, p)| p.len()).sum()
    }
}

/// A full partition: one [`SubMesh`] per part.
#[derive(Debug, Clone)]
pub struct Partition {
    pub parts: Vec<SubMesh>,
    /// Global node count of the source mesh.
    pub n_global_nodes: usize,
}

/// Build [`SubMesh`]es (local numbering, ownership, neighbour lists) from an
/// element-to-part map.
pub fn build_partition(mesh: &TetMesh10, elem_part: &[u32], n_parts: usize) -> Partition {
    assert_eq!(elem_part.len(), mesh.n_elems());

    // Which parts touch each global node, sorted.
    let mut node_parts: Vec<Vec<u32>> = vec![Vec::new(); mesh.n_nodes()];
    for (e, el) in mesh.elems.iter().enumerate() {
        let p = elem_part[e];
        for &n in el {
            let v = &mut node_parts[n as usize];
            if !v.contains(&p) {
                v.push(p);
            }
        }
    }
    for v in &mut node_parts {
        v.sort_unstable();
    }

    let mut parts = Vec::with_capacity(n_parts);
    for p in 0..n_parts as u32 {
        // Gather elements & local node numbering (order of first appearance).
        let mut g2l: HashMap<u32, u32> = HashMap::new();
        let mut l2g: Vec<u32> = Vec::new();
        let mut elems = Vec::new();
        let mut material = Vec::new();
        let mut global_elems = Vec::new();
        for (e, el) in mesh.elems.iter().enumerate() {
            if elem_part[e] != p {
                continue;
            }
            let mut lel = [0u32; 10];
            for (i, &n) in el.iter().enumerate() {
                let ln = *g2l.entry(n).or_insert_with(|| {
                    l2g.push(n);
                    (l2g.len() - 1) as u32
                });
                lel[i] = ln;
            }
            elems.push(lel);
            material.push(mesh.material[e]);
            global_elems.push(e as u32);
        }
        let coords: Vec<[f64; 3]> = l2g.iter().map(|&n| mesh.coords[n as usize]).collect();
        let owned: Vec<bool> = l2g
            .iter()
            .map(|&n| node_parts[n as usize][0] == p)
            .collect();

        // Neighbour shared-node lists, ordered by global id for symmetry.
        let mut by_nbr: HashMap<u32, Vec<u32>> = HashMap::new();
        for &g in &l2g {
            for &q in &node_parts[g as usize] {
                if q != p {
                    by_nbr.entry(q).or_default().push(g);
                }
            }
        }
        let mut neighbors: Vec<(u32, Vec<(u32, u32)>)> = Vec::new();
        #[allow(
            clippy::disallowed_methods,
            reason = "keys are sorted before any order-sensitive use"
        )]
        let mut nbr_ids: Vec<u32> = by_nbr.keys().copied().collect();
        nbr_ids.sort_unstable();
        for q in nbr_ids {
            let mut globals = by_nbr.remove(&q).unwrap();
            globals.sort_unstable();
            // local ids on this side; remote local ids filled in a second pass.
            let pairs: Vec<(u32, u32)> = globals.iter().map(|g| (g2l[g], u32::MAX)).collect();
            neighbors.push((q, pairs));
        }

        parts.push(SubMesh {
            part_id: p,
            mesh: TetMesh10 {
                coords,
                elems,
                material,
            },
            global_elems,
            l2g,
            owned,
            neighbors,
        });
    }

    // Second pass: fill remote local ids using each neighbour's g2l.
    let g2l_all: Vec<HashMap<u32, u32>> = parts
        .iter()
        .map(|sm| {
            sm.l2g
                .iter()
                .enumerate()
                .map(|(l, &g)| (g, l as u32))
                .collect()
        })
        .collect();
    for p in 0..parts.len() {
        let nbr_list = std::mem::take(&mut parts[p].neighbors);
        parts[p].neighbors = nbr_list
            .into_iter()
            .map(|(q, pairs)| {
                let filled = pairs
                    .into_iter()
                    .map(|(lp, _)| {
                        let g = parts[p].l2g[lp as usize];
                        (lp, g2l_all[q as usize][&g])
                    })
                    .collect();
                (q, filled)
            })
            .collect();
    }

    Partition {
        parts,
        n_global_nodes: mesh.n_nodes(),
    }
}

/// Sum shared nodal values across parts ("halo exchange"): for every pair of
/// neighbouring parts, adds each side's interface values into the other.
/// `values[p]` holds `dofs_per_node * n_local_nodes(p)` entries.
///
/// After this call, every copy of a shared node holds the identical global
/// sum — matching what MPI point-to-point exchange achieves in the paper.
pub fn halo_sum(parts: &[SubMesh], values: &mut [Vec<f64>], dofs_per_node: usize) {
    assert_eq!(parts.len(), values.len());
    // Accumulate contributions first so updates are order-independent.
    let mut incoming: Vec<Vec<(usize, f64)>> = vec![Vec::new(); parts.len()];
    for (p, sm) in parts.iter().enumerate() {
        for (q, pairs) in &sm.neighbors {
            for &(lp, lq) in pairs {
                for d in 0..dofs_per_node {
                    let v = values[p][lp as usize * dofs_per_node + d];
                    incoming[*q as usize].push((lq as usize * dofs_per_node + d, v));
                }
            }
        }
    }
    for (q, adds) in incoming.into_iter().enumerate() {
        for (idx, v) in adds {
            values[q][idx] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{box_tet10, BoxGrid};

    fn mesh() -> TetMesh10 {
        box_tet10(&BoxGrid::new(3, 3, 2, 1.0, 1.0, 1.0))
    }

    #[test]
    fn rcb_is_balanced() {
        let m = mesh();
        for np in [1, 2, 3, 4, 5, 8] {
            let part = partition_rcb(&m, np);
            let mut counts = vec![0usize; np];
            for &p in &part {
                counts[p as usize] += 1;
            }
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(hi - lo <= 1, "np={np}, counts={counts:?}");
        }
    }

    #[test]
    fn greedy_is_balanced() {
        let m = mesh();
        for np in [2, 3, 4] {
            let part = partition_greedy(&m, np);
            let mut counts = vec![0usize; np];
            for &p in &part {
                counts[p as usize] += 1;
            }
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(hi - lo <= 1, "np={np}, counts={counts:?}");
        }
    }

    #[test]
    fn rcb_single_part_is_identity() {
        let m = mesh();
        let part = partition_rcb(&m, 1);
        assert!(part.iter().all(|&p| p == 0));
    }

    #[test]
    fn rcb_cut_beats_random_split() {
        // RCB (geometric locality) should cut far fewer edges than a
        // round-robin assignment.
        let m = mesh();
        let rcb = partition_rcb(&m, 4);
        let rr: Vec<u32> = (0..m.n_elems() as u32).map(|e| e % 4).collect();
        let (c_rcb, c_rr) = (edge_cut(&m, &rcb), edge_cut(&m, &rr));
        assert!(
            (c_rcb as f64) < 0.75 * c_rr as f64,
            "rcb cut {c_rcb} not clearly below round-robin cut {c_rr}"
        );
    }

    #[test]
    fn submesh_covers_all_elements() {
        let m = mesh();
        let ep = partition_rcb(&m, 3);
        let part = build_partition(&m, &ep, 3);
        let total: usize = part.parts.iter().map(|sm| sm.mesh.n_elems()).sum();
        assert_eq!(total, m.n_elems());
        for sm in &part.parts {
            sm.mesh.validate().unwrap();
        }
    }

    #[test]
    fn every_node_owned_exactly_once() {
        let m = mesh();
        let ep = partition_rcb(&m, 4);
        let part = build_partition(&m, &ep, 4);
        let mut owners = vec![0usize; m.n_nodes()];
        for sm in &part.parts {
            for (l, &g) in sm.l2g.iter().enumerate() {
                if sm.owned[l] {
                    owners[g as usize] += 1;
                }
            }
        }
        assert!(
            owners.iter().all(|&c| c == 1),
            "ownership not a partition of nodes"
        );
    }

    #[test]
    fn neighbor_lists_are_symmetric() {
        let m = mesh();
        let ep = partition_rcb(&m, 4);
        let part = build_partition(&m, &ep, 4);
        for sm in &part.parts {
            for (q, pairs) in &sm.neighbors {
                let other = &part.parts[*q as usize];
                let back = other
                    .neighbors
                    .iter()
                    .find(|(r, _)| *r == sm.part_id)
                    .expect("missing reverse neighbour");
                assert_eq!(pairs.len(), back.1.len());
                for (&(lp, lq), &(rq, rp)) in pairs.iter().zip(back.1.iter()) {
                    assert_eq!(lp, rp);
                    assert_eq!(lq, rq);
                    assert_eq!(sm.l2g[lp as usize], other.l2g[lq as usize]);
                }
            }
        }
    }

    #[test]
    fn halo_sum_matches_global_assembly() {
        // Scatter per-element "contributions" (elem id + 1) to nodes locally,
        // exchange, and compare against global accumulation.
        let m = mesh();
        let ep = partition_rcb(&m, 3);
        let part = build_partition(&m, &ep, 3);

        let mut global = vec![0.0f64; m.n_nodes()];
        for (e, el) in m.elems.iter().enumerate() {
            for &n in el {
                global[n as usize] += (e + 1) as f64;
            }
        }

        let mut local: Vec<Vec<f64>> = part
            .parts
            .iter()
            .map(|sm| vec![0.0; sm.mesh.n_nodes()])
            .collect();
        for (p, sm) in part.parts.iter().enumerate() {
            for (le, el) in sm.mesh.elems.iter().enumerate() {
                let ge = sm.global_elems[le];
                for &ln in el {
                    local[p][ln as usize] += (ge + 1) as f64;
                }
            }
        }
        halo_sum(&part.parts, &mut local, 1);
        for (p, sm) in part.parts.iter().enumerate() {
            for (l, &g) in sm.l2g.iter().enumerate() {
                assert!(
                    (local[p][l] - global[g as usize]).abs() < 1e-12,
                    "node {g} part {p}: {} vs {}",
                    local[p][l],
                    global[g as usize]
                );
            }
        }
    }

    #[test]
    fn halo_size_grows_sublinearly() {
        // Interface is a surface: for a fixed mesh, halo per part should be
        // much smaller than nodes per part.
        let m = box_tet10(&BoxGrid::new(6, 6, 3, 1.0, 1.0, 0.5));
        let ep = partition_rcb(&m, 4);
        let part = build_partition(&m, &ep, 4);
        for sm in &part.parts {
            assert!(sm.halo_size() < sm.mesh.n_nodes());
        }
    }
}
