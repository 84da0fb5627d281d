//! Operator abstractions and hardware-independent work accounting.
//!
//! Every kernel in this crate can report a [`KernelCounts`] record — flops,
//! streamed bytes, and randomly-accessed bytes per invocation, plus the
//! number of fused right-hand sides. The `hetsolve-machine` roofline model
//! converts these counts into modeled time/energy on a device profile
//! (H100, Grace, …); the counts themselves are exact properties of the
//! algorithm and data structure, not of any machine.

/// Hardware-independent cost of one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelCounts {
    /// Floating point operations (adds + muls).
    pub flops: f64,
    /// Bytes moved with streaming (unit-stride, prefetchable) access.
    pub bytes_stream: f64,
    /// DRAM-visible bytes moved by data-dependent (gather/scatter)
    /// accesses. Because FE gathers have high node reuse (~14 elements per
    /// node), caches filter most of them: operators report the *footprint*
    /// traffic (vector size × miss factor), not raw access bytes.
    pub bytes_rand: f64,
    /// Number of gather/scatter transactions issued (address generation /
    /// issue-slot overhead, modeled separately from bandwidth). With `r`
    /// fused right-hand sides one transaction serves `r` values — the EBE
    /// multi-RHS amortization of the paper's Eq. (9).
    pub rand_transactions: f64,
    /// Number of fused right-hand sides.
    pub rhs_fused: usize,
}

impl KernelCounts {
    /// Sum of two counts (e.g. operator + preconditioner).
    pub fn merged(self, o: KernelCounts) -> KernelCounts {
        KernelCounts {
            flops: self.flops + o.flops,
            bytes_stream: self.bytes_stream + o.bytes_stream,
            bytes_rand: self.bytes_rand + o.bytes_rand,
            rand_transactions: self.rand_transactions + o.rand_transactions,
            rhs_fused: self.rhs_fused.max(o.rhs_fused),
        }
    }

    /// Scale all counts (e.g. by an iteration count).
    pub fn scaled(self, k: f64) -> KernelCounts {
        KernelCounts {
            flops: self.flops * k,
            bytes_stream: self.bytes_stream * k,
            bytes_rand: self.bytes_rand * k,
            rand_transactions: self.rand_transactions * k,
            rhs_fused: self.rhs_fused,
        }
    }

    /// Total bytes.
    pub fn bytes(&self) -> f64 {
        self.bytes_stream + self.bytes_rand
    }

    /// Arithmetic intensity (flops per byte).
    pub fn intensity(&self) -> f64 {
        self.flops / self.bytes().max(1.0)
    }
}

/// A symmetric positive (semi-)definite linear operator `y = A x`.
pub trait LinearOperator: Sync {
    /// Dimension (number of DOFs).
    fn n(&self) -> usize;

    /// Compute `y = A x`. `x.len() == y.len() == self.n()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Cost of one `apply`.
    fn counts(&self) -> KernelCounts;
}

/// A linear operator applied to `r` fused right-hand sides stored
/// interleaved: `x[dof * r + case]`.
pub trait MultiOperator: Sync {
    fn n(&self) -> usize;
    fn r(&self) -> usize;

    /// `Y = A X` for all `r` cases at once.
    fn apply_multi(&self, x: &[f64], y: &mut [f64]);

    /// Cost of one fused `apply_multi` (covering all `r` cases).
    fn counts(&self) -> KernelCounts;
}

/// A single-RHS operator seen as a multi-RHS operator of fused width 1: an
/// interleaved multi-vector of one case is the vector itself, so `apply`
/// already is `apply_multi`. This is how the one CG iteration
/// ([`mcg()`](crate::mcg())) serves operators that have no fused kernel (the
/// assembled [`crate::bcrs::Bcrs3`]).
pub struct Width1<'a, A>(pub &'a A);

impl<A: LinearOperator> MultiOperator for Width1<'_, A> {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn r(&self) -> usize {
        1
    }

    fn apply_multi(&self, x: &[f64], y: &mut [f64]) {
        self.0.apply(x, y);
    }

    fn counts(&self) -> KernelCounts {
        self.0.counts()
    }
}

/// A preconditioner `z = B⁻¹ r`.
pub trait Preconditioner: Sync {
    fn n(&self) -> usize;
    fn apply(&self, r: &[f64], z: &mut [f64]);
    fn counts(&self) -> KernelCounts;

    /// Interleaved multi-RHS application; default loops case-by-case via
    /// scratch vectors (implementations override with fused kernels). One
    /// case is [`Self::apply`] itself — the single-RHS solve runs this once
    /// per iteration.
    fn apply_multi(&self, r_vec: &[f64], z: &mut [f64], r: usize) {
        if r == 1 {
            return self.apply(r_vec, z);
        }
        let n = self.n();
        let mut rs = vec![0.0; n];
        let mut zs = vec![0.0; n];
        for c in 0..r {
            for i in 0..n {
                rs[i] = r_vec[i * r + c];
            }
            self.apply(&rs, &mut zs);
            for i in 0..n {
                z[i * r + c] = zs[i];
            }
        }
    }

    /// [`Self::apply_multi`] fused with the per-case products
    /// `rho[c] = z_c · r_c` the CG iteration takes next (same bits as
    /// `apply_multi` then `dot_multi`); implementations override it to
    /// make both in one pass over the vectors.
    fn apply_multi_dot(&self, r_vec: &[f64], z: &mut [f64], r: usize, rho: &mut [f64]) {
        self.apply_multi(r_vec, z, r);
        crate::vecops::dot_multi(z, r_vec, r, rho);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_scale() {
        let a = KernelCounts {
            flops: 10.0,
            bytes_stream: 100.0,
            bytes_rand: 20.0,
            rand_transactions: 7.0,
            rhs_fused: 1,
        };
        let b = KernelCounts {
            flops: 5.0,
            bytes_stream: 50.0,
            bytes_rand: 0.0,
            rand_transactions: 3.0,
            rhs_fused: 4,
        };
        let m = a.merged(b);
        assert_eq!(m.flops, 15.0);
        assert_eq!(m.bytes(), 170.0);
        assert_eq!(m.rhs_fused, 4);
        assert_eq!(m.rand_transactions, 10.0);
        let s = a.scaled(2.0);
        assert_eq!(s.flops, 20.0);
        assert_eq!(s.bytes_rand, 40.0);
        assert_eq!(s.rand_transactions, 14.0);
    }

    /// The default multi-RHS application is `apply` per case, and at one
    /// case it is `apply` itself (no gather/scatter through scratch).
    #[test]
    fn default_apply_multi_is_apply_per_case() {
        struct Scale;
        impl Preconditioner for Scale {
            fn n(&self) -> usize {
                3
            }
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                for i in 0..3 {
                    z[i] = (i + 2) as f64 * r[i];
                }
            }
            fn counts(&self) -> KernelCounts {
                KernelCounts::default()
            }
        }
        let mut z = [0.0; 3];
        Scale.apply_multi(&[1.0, 1.0, 1.0], &mut z, 1);
        assert_eq!(z, [2.0, 3.0, 4.0]);
        let (mut z2, mut rho) = ([0.0; 6], [0.0; 2]);
        Scale.apply_multi_dot(&[1.0, -1.0, 1.0, -1.0, 1.0, -1.0], &mut z2, 2, &mut rho);
        assert_eq!(z2, [2.0, -2.0, 3.0, -3.0, 4.0, -4.0]);
        assert_eq!(rho, [9.0, 9.0]);
    }

    #[test]
    fn intensity() {
        let a = KernelCounts {
            flops: 300.0,
            bytes_stream: 100.0,
            bytes_rand: 50.0,
            rand_transactions: 0.0,
            rhs_fused: 1,
        };
        assert!((a.intensity() - 2.0).abs() < 1e-12);
    }
}
