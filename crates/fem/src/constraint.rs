//! Dirichlet constraint handling.
//!
//! The ground model fixes all displacement components at the bottom
//! boundary. Constraints are enforced by projection: solution vectors keep
//! zeros at fixed DOFs, operators zero their output rows (and see zero
//! inputs), and the block-Jacobi preconditioner uses identity blocks on
//! fully-fixed nodes. This keeps both the assembled (CRS) and matrix-free
//! (EBE) paths symmetric positive definite on the free subspace.

/// Mask of fixed (Dirichlet) DOFs.
#[derive(Debug, Clone)]
pub struct DofMask {
    fixed: Vec<bool>,
    n_fixed: usize,
}

impl DofMask {
    /// Fix all 3 components of the given nodes.
    pub(crate) fn from_fixed_nodes(n_nodes: usize, nodes: &[u32]) -> Self {
        let mut fixed = vec![false; 3 * n_nodes];
        for &n in nodes {
            for d in 0..3 {
                fixed[3 * n as usize + d] = true;
            }
        }
        let n_fixed = fixed.iter().filter(|&&f| f).count();
        DofMask { fixed, n_fixed }
    }

    #[inline]
    pub fn n_dofs(&self) -> usize {
        self.fixed.len()
    }

    #[inline]
    pub fn n_fixed(&self) -> usize {
        self.n_fixed
    }

    #[inline]
    pub fn is_fixed(&self, dof: usize) -> bool {
        self.fixed[dof]
    }

    /// Zero the fixed entries of `x` in place (projection onto the free
    /// subspace).
    pub fn project(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.fixed.len());
        for (xi, &f) in x.iter_mut().zip(&self.fixed) {
            if f {
                *xi = 0.0;
            }
        }
    }

    /// Zero the fixed entries of an interleaved multi-vector
    /// (`x[dof * r + case]`).
    pub fn project_multi(&self, x: &mut [f64], r: usize) {
        debug_assert_eq!(x.len(), self.fixed.len() * r);
        for (dof, &f) in self.fixed.iter().enumerate() {
            if f {
                for c in 0..r {
                    x[dof * r + c] = 0.0;
                }
            }
        }
    }

    /// Iterator over fixed DOF indices.
    pub fn fixed_dofs(&self) -> impl Iterator<Item = usize> + '_ {
        self.fixed
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| i)
    }

    /// Borrow the mask as a bool slice (the format the EBE/CRS operators
    /// consume).
    pub fn as_slice(&self) -> &[bool] {
        &self.fixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_nodes() {
        let m = DofMask::from_fixed_nodes(4, &[1, 3]);
        assert_eq!(m.n_dofs(), 12);
        assert_eq!(m.n_fixed(), 6);
        assert!(m.is_fixed(3) && m.is_fixed(4) && m.is_fixed(5));
        assert!(!m.is_fixed(0));
    }

    #[test]
    fn project_zeroes_fixed() {
        let m = DofMask::from_fixed_nodes(2, &[0]);
        let mut x = vec![1.0; 6];
        m.project(&mut x);
        assert_eq!(x, vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn project_multi_interleaved() {
        let m = DofMask::from_fixed_nodes(2, &[1]);
        let r = 2;
        let mut x = vec![1.0; 12];
        m.project_multi(&mut x, r);
        // dofs 3,4,5 fixed -> entries 6..12 zero
        assert_eq!(&x[..6], &[1.0; 6]);
        assert_eq!(&x[6..], &[0.0; 6]);
    }

    #[test]
    fn all_free_mask() {
        let m = DofMask::from_fixed_nodes(3, &[]);
        assert_eq!(m.n_fixed(), 0);
        let mut x = vec![2.0; 9];
        m.project(&mut x);
        assert!(x.iter().all(|&v| v == 2.0));
        assert_eq!(m.fixed_dofs().count(), 0);
    }
}
