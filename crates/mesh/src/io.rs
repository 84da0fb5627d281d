//! Legacy-VTK (ASCII) export of Tet10 meshes and attached fields, for
//! visualizing ground models, partitionings, and simulation results in
//! ParaView & friends.
//!
//! The VTK `QUADRATIC_TETRA` (type 24) mid-edge ordering — edges (0,1),
//! (1,2), (0,2), (0,3), (1,3), (2,3) — matches this crate's Tet10
//! convention exactly, so connectivity is written verbatim.

use std::io::{self, Write};

use crate::mesh::TetMesh10;

/// Scalar field attached to points or cells.
pub struct Field<'a> {
    pub name: &'a str,
    pub values: &'a [f64],
}

/// Write a mesh with optional point/cell scalar fields as legacy VTK.
pub(crate) fn write_vtk<W: Write>(
    w: &mut W,
    mesh: &TetMesh10,
    point_fields: &[Field<'_>],
    cell_fields: &[Field<'_>],
) -> io::Result<()> {
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "hetsolve Tet10 mesh")?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET UNSTRUCTURED_GRID")?;

    writeln!(w, "POINTS {} double", mesh.n_nodes())?;
    for c in &mesh.coords {
        writeln!(w, "{} {} {}", c[0], c[1], c[2])?;
    }

    let ne = mesh.n_elems();
    writeln!(w, "CELLS {} {}", ne, ne * 11)?;
    for el in &mesh.elems {
        write!(w, "10")?;
        for &n in el {
            write!(w, " {n}")?;
        }
        writeln!(w)?;
    }
    writeln!(w, "CELL_TYPES {ne}")?;
    for _ in 0..ne {
        writeln!(w, "24")?; // VTK_QUADRATIC_TETRA
    }

    if !point_fields.is_empty() {
        writeln!(w, "POINT_DATA {}", mesh.n_nodes())?;
        for f in point_fields {
            assert_eq!(
                f.values.len(),
                mesh.n_nodes(),
                "point field '{}' length",
                f.name
            );
            writeln!(w, "SCALARS {} double 1", f.name)?;
            writeln!(w, "LOOKUP_TABLE default")?;
            for v in f.values {
                writeln!(w, "{v}")?;
            }
        }
    }
    let mut wrote_cell_header = false;
    for f in cell_fields {
        assert_eq!(f.values.len(), ne, "cell field '{}' length", f.name);
        if !wrote_cell_header {
            writeln!(w, "CELL_DATA {ne}")?;
            wrote_cell_header = true;
        }
        writeln!(w, "SCALARS {} double 1", f.name)?;
        writeln!(w, "LOOKUP_TABLE default")?;
        for v in f.values {
            writeln!(w, "{v}")?;
        }
    }
    // always expose materials as cell data
    if !wrote_cell_header {
        writeln!(w, "CELL_DATA {ne}")?;
    }
    writeln!(w, "SCALARS material int 1")?;
    writeln!(w, "LOOKUP_TABLE default")?;
    for &m in &mesh.material {
        writeln!(w, "{m}")?;
    }
    Ok(())
}

/// Convenience: write straight to a file path.
pub fn write_vtk_file(
    path: &str,
    mesh: &TetMesh10,
    point_fields: &[Field<'_>],
    cell_fields: &[Field<'_>],
) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_vtk(&mut f, mesh, point_fields, cell_fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{box_tet10, BoxGrid};

    fn render(mesh: &TetMesh10, pf: &[Field<'_>], cf: &[Field<'_>]) -> String {
        let mut buf = Vec::new();
        write_vtk(&mut buf, mesh, pf, cf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn structure_of_output() {
        let m = box_tet10(&BoxGrid::new(1, 1, 1, 1.0, 1.0, 1.0));
        let s = render(&m, &[], &[]);
        assert!(s.starts_with("# vtk DataFile Version 3.0"));
        assert!(s.contains(&format!("POINTS {} double", m.n_nodes())));
        assert!(s.contains(&format!("CELLS {} {}", m.n_elems(), m.n_elems() * 11)));
        assert!(s.contains("CELL_TYPES 6"));
        // every cell line starts with the node count 10 and type 24
        let types: Vec<&str> = s
            .lines()
            .skip_while(|l| !l.starts_with("CELL_TYPES"))
            .skip(1)
            .take(6)
            .collect();
        assert!(types.iter().all(|l| *l == "24"));
        assert!(s.contains("SCALARS material int 1"));
    }

    #[test]
    fn fields_are_written() {
        let m = box_tet10(&BoxGrid::new(1, 1, 1, 1.0, 1.0, 1.0));
        let pv: Vec<f64> = (0..m.n_nodes()).map(|i| i as f64).collect();
        let cv: Vec<f64> = (0..m.n_elems()).map(|i| 10.0 * i as f64).collect();
        let s = render(
            &m,
            &[Field {
                name: "uz",
                values: &pv,
            }],
            &[Field {
                name: "ratio",
                values: &cv,
            }],
        );
        assert!(s.contains(&format!("POINT_DATA {}", m.n_nodes())));
        assert!(s.contains("SCALARS uz double 1"));
        assert!(s.contains("SCALARS ratio double 1"));
        assert!(s.contains(&format!("CELL_DATA {}", m.n_elems())));
    }

    #[test]
    #[should_panic]
    fn wrong_field_length_rejected() {
        let m = box_tet10(&BoxGrid::new(1, 1, 1, 1.0, 1.0, 1.0));
        let bad = vec![0.0; 3];
        render(
            &m,
            &[Field {
                name: "x",
                values: &bad,
            }],
            &[],
        );
    }

    #[test]
    fn file_roundtrip() {
        let m = box_tet10(&BoxGrid::new(1, 1, 1, 1.0, 1.0, 1.0));
        let path = std::env::temp_dir().join("hetsolve_io_test.vtk");
        write_vtk_file(path.to_str().unwrap(), &m, &[], &[]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("UNSTRUCTURED_GRID"));
        std::fs::remove_file(path).ok();
    }
}
