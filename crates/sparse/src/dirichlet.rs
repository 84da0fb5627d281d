//! Dirichlet-mask semantics of the matrix-free operator.
//!
//! The EBE kernel (`hetsolve_fem::CompactEbe`) realizes the projected
//! operator `P A P + (I − P)` (with `P` zeroing fixed DOFs): inputs read
//! through the mask so element contributions see zeros on fixed DOFs, and
//! after the scatter the output rows of fixed DOFs are overwritten with the
//! input value (identity on the fixed subspace). The assembled matrix gets
//! the same operator another way, by eliminating rows and columns
//! ([`crate::assembly::apply_dirichlet`]); the two agree to rounding.

/// A borrowed per-DOF Dirichlet mask. An empty mask means unconstrained
/// (every helper is a no-op / passthrough).
#[derive(Debug, Clone, Copy)]
pub struct FixedMask<'a> {
    mask: &'a [bool],
}

impl<'a> FixedMask<'a> {
    pub fn new(mask: &'a [bool]) -> Self {
        FixedMask { mask }
    }

    /// True when no DOF is constrained.
    pub fn is_empty(&self) -> bool {
        self.mask.is_empty()
    }

    /// Is `dof` constrained?
    #[inline]
    pub fn is_fixed(&self, dof: usize) -> bool {
        !self.mask.is_empty() && self.mask[dof]
    }

    /// Input gating: fixed DOFs read as zero so element contributions apply
    /// `P A P`.
    #[inline]
    pub fn masked(&self, dof: usize, v: f64) -> f64 {
        if self.is_fixed(dof) {
            0.0
        } else {
            v
        }
    }

    /// Identity on fixed rows for `r` interleaved RHS
    /// (`y[dof*r + c] = x[dof*r + c]`).
    pub fn fix_output_multi(&self, x: &[f64], y: &mut [f64], r: usize) {
        if self.mask.is_empty() {
            return;
        }
        for (i, &f) in self.mask.iter().enumerate() {
            if f {
                for c in 0..r {
                    y[i * r + c] = x[i * r + c];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mask_is_passthrough() {
        let m = FixedMask::new(&[]);
        assert!(m.is_empty());
        assert_eq!(m.masked(3, 2.5), 2.5);
        let x = [1.0, 2.0];
        let mut y = [9.0, 9.0];
        m.fix_output_multi(&x, &mut y, 1);
        assert_eq!(y, [9.0, 9.0]);
    }

    #[test]
    fn masked_zeroes_fixed_dofs_only() {
        let mask = [true, false, true];
        let m = FixedMask::new(&mask);
        assert_eq!(m.masked(0, 5.0), 0.0);
        assert_eq!(m.masked(1, 5.0), 5.0);
        assert_eq!(m.masked(2, -1.0), 0.0);
    }

    #[test]
    fn fix_output_multi_copies_interleaved_rows() {
        let mask = [false, true];
        let m = FixedMask::new(&mask);
        let x = [10.0, 11.0, 20.0, 21.0]; // dof-major, r = 2
        let mut y = [0.0; 4];
        m.fix_output_multi(&x, &mut y, 2);
        assert_eq!(y, [0.0, 0.0, 20.0, 21.0]);
    }
}
