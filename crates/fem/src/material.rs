//! Rayleigh damping: the mass- and stiffness-proportional coefficients
//! of the damping matrix.

/// Rayleigh damping `C = α M + β K` fitted so the modal damping ratio
/// equals `zeta` at the two angular frequencies `2π f1` and `2π f2`
/// (the standard two-frequency fit used in time-domain earthquake FEM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rayleigh {
    pub alpha: f64,
    pub beta: f64,
}

impl Rayleigh {
    /// Fit to damping ratio `zeta` at frequencies `f1 < f2` (Hz).
    pub(crate) fn fit(zeta: f64, f1: f64, f2: f64) -> Self {
        assert!(
            zeta >= 0.0 && f1 > 0.0 && f2 > f1,
            "need 0 <= zeta, 0 < f1 < f2"
        );
        let (w1, w2) = (
            2.0 * std::f64::consts::PI * f1,
            2.0 * std::f64::consts::PI * f2,
        );
        Rayleigh {
            alpha: 2.0 * zeta * w1 * w2 / (w1 + w2),
            beta: 2.0 * zeta / (w1 + w2),
        }
    }

    /// No damping.
    pub const ZERO: Rayleigh = Rayleigh {
        alpha: 0.0,
        beta: 0.0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Rayleigh {
        /// Modal damping ratio produced at angular frequency `w`.
        fn zeta_at(&self, w: f64) -> f64 {
            0.5 * (self.alpha / w + self.beta * w)
        }
    }

    #[test]
    fn rayleigh_fit_hits_targets() {
        let r = Rayleigh::fit(0.05, 0.5, 5.0);
        let w1 = 2.0 * std::f64::consts::PI * 0.5;
        let w2 = 2.0 * std::f64::consts::PI * 5.0;
        assert!((r.zeta_at(w1) - 0.05).abs() < 1e-12);
        assert!((r.zeta_at(w2) - 0.05).abs() < 1e-12);
        // between the fit points damping dips below the target
        let wm = (w1 * w2).sqrt();
        assert!(r.zeta_at(wm) < 0.05);
    }

    #[test]
    fn zero_rayleigh() {
        assert_eq!(Rayleigh::ZERO.zeta_at(10.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn rayleigh_rejects_bad_frequencies() {
        Rayleigh::fit(0.05, 5.0, 0.5);
    }
}
