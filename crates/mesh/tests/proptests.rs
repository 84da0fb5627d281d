//! Property-based tests of the mesh substrate: generation, partitioning
//! and boundary invariants on arbitrary grid sizes. (The run colouring's
//! property test sits next to the sweep it guards, in
//! `hetsolve_fem::ebe_compact`.)

use hetsolve_mesh::{
    box_tet10, build_partition, extract_boundary, halo_sum, partition_greedy, partition_rcb,
    BoxGrid,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated meshes are valid and fill the box volume exactly.
    #[test]
    fn generated_mesh_valid(
        nx in 1usize..5,
        ny in 1usize..5,
        nz in 1usize..4,
        lx in 0.5f64..20.0,
        ly in 0.5f64..20.0,
        lz in 0.5f64..10.0,
    ) {
        let g = BoxGrid::new(nx, ny, nz, lx, ly, lz);
        let m = box_tet10(&g);
        prop_assert!(m.validate().is_ok());
        let vol = m.total_volume();
        prop_assert!((vol - lx * ly * lz).abs() < 1e-9 * lx * ly * lz);
    }

    /// Both partitioners always balance to within one element and cover
    /// every element exactly once.
    #[test]
    fn partitions_balanced_and_complete(
        nx in 2usize..5,
        ny in 2usize..4,
        nz in 1usize..3,
        np in 1usize..9,
    ) {
        let m = box_tet10(&BoxGrid::new(nx, ny, nz, 1.0, 1.0, 1.0));
        for part in [partition_rcb(&m, np), partition_greedy(&m, np)] {
            prop_assert_eq!(part.len(), m.n_elems());
            let mut counts = vec![0usize; np];
            for &p in &part {
                prop_assert!((p as usize) < np);
                counts[p as usize] += 1;
            }
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            prop_assert!(hi - lo <= 1, "counts {:?}", counts);
        }
    }

    /// Node ownership forms a partition and halo-summed scatters equal the
    /// global scatter, for any part count.
    #[test]
    fn halo_sum_consistency(
        nx in 2usize..4,
        ny in 2usize..4,
        np in 2usize..6,
    ) {
        let m = box_tet10(&BoxGrid::new(nx, ny, 2, 1.0, 1.0, 1.0));
        let ep = partition_rcb(&m, np);
        let part = build_partition(&m, &ep, np);

        let mut owners = vec![0usize; m.n_nodes()];
        for sm in &part.parts {
            for (l, &g) in sm.l2g.iter().enumerate() {
                if sm.owned[l] {
                    owners[g as usize] += 1;
                }
            }
        }
        prop_assert!(owners.iter().all(|&c| c == 1));

        // scatter elem-id weights, exchange, compare with global scatter
        let mut global = vec![0.0f64; m.n_nodes()];
        for (e, el) in m.elems.iter().enumerate() {
            for &n in el {
                global[n as usize] += (e % 17) as f64 + 1.0;
            }
        }
        let mut locals: Vec<Vec<f64>> =
            part.parts.iter().map(|sm| vec![0.0; sm.mesh.n_nodes()]).collect();
        for (p, sm) in part.parts.iter().enumerate() {
            for (le, el) in sm.mesh.elems.iter().enumerate() {
                let ge = sm.global_elems[le] as usize;
                for &ln in el {
                    locals[p][ln as usize] += (ge % 17) as f64 + 1.0;
                }
            }
        }
        halo_sum(&part.parts, &mut locals, 1);
        for (p, sm) in part.parts.iter().enumerate() {
            for (l, &g) in sm.l2g.iter().enumerate() {
                prop_assert!((locals[p][l] - global[g as usize]).abs() < 1e-12);
            }
        }
    }

    /// Boundary areas always sum to the box surface, and every boundary
    /// node is flagged.
    #[test]
    fn boundary_extraction_complete(
        nx in 1usize..4,
        ny in 1usize..4,
        nz in 1usize..3,
        lx in 0.5f64..5.0,
        ly in 0.5f64..5.0,
        lz in 0.5f64..3.0,
    ) {
        let m = box_tet10(&BoxGrid::new(nx, ny, nz, lx, ly, lz));
        let b = extract_boundary(&m, lx, ly, lz, 1e-9 * lx.max(ly).max(lz));
        let area: f64 = b.faces.iter().map(|f| f.area).sum();
        let expect = 2.0 * (lx * ly + ly * lz + lx * lz);
        prop_assert!((area - expect).abs() < 1e-9 * expect);
    }
}
