//! Iterative radix-2 Cooley-Tukey FFT (from scratch; the FDD
//! post-processing substrate of the paper's Fig. 1).

use crate::complex::C64;

/// `true` if `n` is a power of two (and nonzero).
pub(crate) fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Next power of two ≥ `n`.
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

fn bit_reverse_permute(a: &mut [C64]) {
    let n = a.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            a.swap(i, j);
        }
    }
}

/// In-place FFT. `inverse = true` computes the unnormalized inverse
/// transform; divide by `n` afterwards (done by [`ifft`]).
pub(crate) fn fft_inplace(a: &mut [C64], inverse: bool) {
    let n = a.len();
    assert!(is_pow2(n), "FFT length must be a power of two (got {n})");
    bit_reverse_permute(a);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wl = C64::cis(ang);
        for chunk in a.chunks_mut(len) {
            let mut w = C64::ONE;
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w = w * wl;
            }
        }
        len <<= 1;
    }
}

/// Forward FFT of a real signal, zero-padded to the next power of two.
/// Returns the full complex spectrum.
pub fn rfft(signal: &[f64]) -> Vec<C64> {
    let n = next_pow2(signal.len().max(1));
    let mut a: Vec<C64> = signal.iter().map(|&x| C64::from_re(x)).collect();
    a.resize(n, C64::ZERO);
    fft_inplace(&mut a, false);
    a
}

/// Inverse FFT (normalized).
pub fn ifft(spectrum: &[C64]) -> Vec<C64> {
    let mut a = spectrum.to_vec();
    fft_inplace(&mut a, true);
    let inv = 1.0 / a.len() as f64;
    for v in a.iter_mut() {
        *v = v.scale(inv);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dft_naive(x: &[C64]) -> Vec<C64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = C64::ZERO;
                for (j, &xj) in x.iter().enumerate() {
                    acc += xj * C64::cis(-2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        let n = 64;
        let x: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let mut a = x.clone();
        fft_inplace(&mut a, false);
        let d = dft_naive(&x);
        for k in 0..n {
            assert!((a[k] - d[k]).abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn roundtrip() {
        let x: Vec<f64> = (0..128).map(|i| ((i * i) % 17) as f64 - 8.0).collect();
        let spec = rfft(&x);
        let back = ifft(&spec);
        for i in 0..x.len() {
            assert!((back[i].re - x[i]).abs() < 1e-10);
            assert!(back[i].im.abs() < 1e-10);
        }
    }

    #[test]
    fn parseval() {
        let x: Vec<f64> = (0..256)
            .map(|i| (i as f64 * 0.11).sin() * (i as f64 * 0.02).cos())
            .collect();
        let spec = rfft(&x);
        let t_energy: f64 = x.iter().map(|v| v * v).sum();
        let f_energy: f64 = spec.iter().map(|c| c.norm_sq()).sum::<f64>() / spec.len() as f64;
        assert!((t_energy - f_energy).abs() < 1e-9 * t_energy);
    }

    #[test]
    fn pure_tone_lands_in_one_bin() {
        let n = 256;
        let k0 = 19;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = rfft(&x);
        // energy at bins k0 and n-k0 only
        for (k, c) in spec.iter().enumerate() {
            let mag = c.abs();
            if k == k0 || k == n - k0 {
                assert!((mag - n as f64 / 2.0).abs() < 1e-8);
            } else {
                assert!(mag < 1e-8, "bin {k}: {mag}");
            }
        }
    }

    #[test]
    fn linearity() {
        let n = 64;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.83).cos()).collect();
        let z: Vec<f64> = x.iter().zip(&y).map(|(a, b)| 2.0 * a - 3.0 * b).collect();
        let (sx, sy, sz) = (rfft(&x), rfft(&y), rfft(&z));
        for k in 0..n {
            let lin = sx[k].scale(2.0) - sy[k].scale(3.0);
            assert!((sz[k] - lin).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_padding_to_pow2() {
        let x = vec![1.0; 100];
        let spec = rfft(&x);
        assert_eq!(spec.len(), 128);
    }

    #[test]
    fn bin_frequency_formula() {
        // 1024 samples at dt=0.005 -> df = 1/(1024*0.005) ≈ 0.195 Hz
        let f = crate::WelchConfig::new(1024, 0, 0.005).frequency(10);
        assert!((f - 10.0 / 5.12).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_non_pow2() {
        let mut a = vec![C64::ZERO; 12];
        fft_inplace(&mut a, false);
    }
}
