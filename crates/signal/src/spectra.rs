//! Welch power- and cross-spectral density estimation.

use crate::complex::C64;
use crate::fft::{fft_inplace, is_pow2};

/// Hann window of length `n`.
pub(crate) fn hann(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = std::f64::consts::PI * i as f64 / n as f64;
            let s = x.sin();
            s * s
        })
        .collect()
}

/// Welch segmentation parameters.
#[derive(Debug, Clone, Copy)]
pub struct WelchConfig {
    /// Segment length (power of two).
    pub segment: usize,
    /// Overlap in samples (< segment; 50 % is customary).
    pub overlap: usize,
    /// Sample interval (s).
    pub dt: f64,
}

impl WelchConfig {
    pub fn new(segment: usize, overlap: usize, dt: f64) -> Self {
        assert!(is_pow2(segment), "segment length must be a power of two");
        assert!(overlap < segment);
        assert!(dt > 0.0);
        WelchConfig {
            segment,
            overlap,
            dt,
        }
    }

    /// Frequency of bin `k`.
    pub fn frequency(&self, k: usize) -> f64 {
        k as f64 / (self.segment as f64 * self.dt)
    }

    /// One-sided bin count (DC..Nyquist inclusive).
    pub fn n_bins(&self) -> usize {
        self.segment / 2 + 1
    }
}

/// Windowed FFTs of every Welch segment of `x` (one spectrum per segment,
/// one-sided bins).
fn segment_spectra(x: &[f64], cfg: &WelchConfig, window: &[f64]) -> Vec<Vec<C64>> {
    let step = cfg.segment - cfg.overlap;
    let mut out = Vec::new();
    let mut start = 0;
    while start + cfg.segment <= x.len() {
        let mut seg: Vec<C64> = (0..cfg.segment)
            .map(|i| C64::from_re(x[start + i] * window[i]))
            .collect();
        fft_inplace(&mut seg, false);
        seg.truncate(cfg.n_bins());
        out.push(seg);
        start += step;
    }
    out
}

/// Welch auto power spectral density (one-sided, arbitrary scale — only
/// *relative* spectra matter for dominant-frequency picking).
pub fn welch_psd(x: &[f64], cfg: &WelchConfig) -> Vec<f64> {
    let window = hann(cfg.segment);
    let segs = segment_spectra(x, cfg, &window);
    assert!(!segs.is_empty(), "signal shorter than one Welch segment");
    let mut psd = vec![0.0; cfg.n_bins()];
    for seg in &segs {
        for (p, c) in psd.iter_mut().zip(seg) {
            *p += c.norm_sq();
        }
    }
    let norm = 1.0 / segs.len() as f64;
    for p in psd.iter_mut() {
        *p *= norm;
    }
    psd
}

/// Welch cross-spectral density matrices of a set of channels:
/// `csd[k][i * nc + j] = E[ X_i(f_k) conj(X_j(f_k)) ]` (Hermitian per bin).
pub(crate) fn welch_csd(channels: &[&[f64]], cfg: &WelchConfig) -> Vec<Vec<C64>> {
    let nc = channels.len();
    assert!(nc > 0);
    let window = hann(cfg.segment);
    let per_channel: Vec<Vec<Vec<C64>>> = channels
        .iter()
        .map(|x| segment_spectra(x, cfg, &window))
        .collect();
    let n_segs = per_channel[0].len();
    assert!(n_segs > 0, "signals shorter than one Welch segment");
    assert!(
        per_channel.iter().all(|s| s.len() == n_segs),
        "channel lengths differ"
    );
    let nb = cfg.n_bins();
    let mut csd = vec![vec![C64::ZERO; nc * nc]; nb];
    for s in 0..n_segs {
        for k in 0..nb {
            for i in 0..nc {
                let xi = per_channel[i][s][k];
                for j in 0..nc {
                    let xj = per_channel[j][s][k];
                    csd[k][i * nc + j] += xi * xj.conj();
                }
            }
        }
    }
    let norm = 1.0 / n_segs as f64;
    for bin in csd.iter_mut() {
        for v in bin.iter_mut() {
            *v = v.scale(norm);
        }
    }
    csd
}

/// Index of the largest entry of `psd`, ignoring the DC bin and anything
/// above `max_bin`.
pub fn peak_bin(psd: &[f64], max_bin: usize) -> usize {
    let hi = psd.len().min(max_bin + 1);
    (1..hi).fold(1, |best, k| if psd[k] > psd[best] { k } else { best })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, dt: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 * dt).sin())
            .collect()
    }

    #[test]
    fn hann_endpoints_and_peak() {
        let w = hann(64);
        assert!(w[0].abs() < 1e-15);
        assert!((w[32] - 1.0).abs() < 1e-12);
        assert!(w.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn psd_peaks_at_tone_frequency() {
        let dt = 0.005;
        let cfg = WelchConfig::new(512, 256, dt);
        let x = tone(2.0, dt, 4096);
        let psd = welch_psd(&x, &cfg);
        let k = peak_bin(&psd, cfg.n_bins() - 1);
        let f = cfg.frequency(k);
        assert!((f - 2.0).abs() < 2.0 * cfg.frequency(1), "peak at {f} Hz");
    }

    #[test]
    fn psd_separates_two_tones() {
        let dt = 0.005;
        let cfg = WelchConfig::new(1024, 512, dt);
        let n = 8192;
        let x: Vec<f64> = tone(1.5, dt, n)
            .iter()
            .zip(&tone(4.0, dt, n))
            .map(|(a, b)| a + 0.5 * b)
            .collect();
        let psd = welch_psd(&x, &cfg);
        let k1 = (1.5 * cfg.segment as f64 * dt).round() as usize;
        let k2 = (4.0 * cfg.segment as f64 * dt).round() as usize;
        // both tones visible, stronger one stronger
        let background = psd[(k1 + k2) / 2 + 3];
        assert!(psd[k1] > 10.0 * background);
        assert!(psd[k2] > 10.0 * background);
        assert!(psd[k1] > psd[k2]);
    }

    #[test]
    fn csd_diagonal_matches_psd() {
        let dt = 0.01;
        let cfg = WelchConfig::new(256, 128, dt);
        let x = tone(3.0, dt, 2048);
        let psd = welch_psd(&x, &cfg);
        let csd = welch_csd(&[&x], &cfg);
        for k in 0..cfg.n_bins() {
            assert!((csd[k][0].re - psd[k]).abs() < 1e-9 * psd[k].max(1e-12));
            assert!(csd[k][0].im.abs() < 1e-9);
        }
    }

    #[test]
    fn csd_is_hermitian() {
        let dt = 0.01;
        let cfg = WelchConfig::new(128, 64, dt);
        let a = tone(2.0, dt, 1024);
        let b: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(i, v)| v * 0.7 + (i as f64 * 0.05).sin())
            .collect();
        let csd = welch_csd(&[&a, &b], &cfg);
        for bin in &csd {
            for i in 0..2 {
                for j in 0..2 {
                    let h = bin[i * 2 + j];
                    let ht = bin[j * 2 + i].conj();
                    assert!((h - ht).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn segment_count() {
        let cfg = WelchConfig::new(256, 128, 0.01);
        let window = hann(cfg.segment);
        let n_segments = |n: usize| segment_spectra(&vec![0.0; n], &cfg, &window).len();
        assert_eq!(n_segments(256), 1);
        assert_eq!(n_segments(384), 2);
        assert_eq!(n_segments(255), 0);
    }

    #[test]
    #[should_panic]
    fn psd_rejects_short_signal() {
        let cfg = WelchConfig::new(256, 128, 0.01);
        welch_psd(&[1.0; 100], &cfg);
    }
}
