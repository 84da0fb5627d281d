//! Minimal complex arithmetic (kept local: the workspace uses no external
//! numerics crates beyond the sanctioned list).

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// Complex number with `f64` parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    pub re: f64,
    pub im: f64,
}

impl C64 {
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };

    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    #[inline]
    pub fn from_re(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// `e^(i theta)`.
    #[inline]
    pub(crate) fn cis(theta: f64) -> Self {
        C64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    #[inline]
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    #[inline]
    pub fn scale(self, s: f64) -> Self {
        C64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, o: C64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, o: C64) -> C64 {
        C64::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    fn div(self, o: C64) -> C64 {
        let d = o.norm_sq();
        C64::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert_eq!(a + b, C64::new(4.0, 1.0));
        assert_eq!(a - b, C64::new(-2.0, 3.0));
        assert_eq!(a * b, C64::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back.re - a.re).abs() < 1e-14);
        assert!((back.im - a.im).abs() < 1e-14);
    }

    #[test]
    fn cis_and_conj() {
        let z = C64::cis(std::f64::consts::FRAC_PI_2);
        assert!(z.re.abs() < 1e-15 && (z.im - 1.0).abs() < 1e-15);
        assert_eq!(z.conj().im, -1.0);
        assert!((C64::new(3.0, 4.0).abs() - 5.0).abs() < 1e-15);
    }
}
