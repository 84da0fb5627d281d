//! Frequency Domain Decomposition (FDD, Brincker et al. 2001 — the paper's
//! ref. \[9\]).
//!
//! FDD identifies modal frequencies of an output-only system: at each
//! frequency bin the cross-spectral density matrix of the observed channels
//! is decomposed; peaks of the *first singular value* spectrum are the
//! dominant (modal) frequencies and the corresponding first singular
//! vectors are the operating mode shapes. The paper applies FDD to the
//! simulated surface waveforms to map the dominant frequency over the
//! ground surface (Fig. 1).

use crate::complex::C64;
use crate::eig::herm_largest;
use crate::spectra::{peak_bin, welch_csd, WelchConfig};

/// FDD result over all frequency bins.
#[derive(Debug, Clone)]
pub struct FddResult {
    /// Bin frequencies (Hz).
    pub freqs: Vec<f64>,
    /// First singular value per bin.
    pub sv1: Vec<f64>,
    /// First singular vector per bin (column-major, `nc` entries per bin).
    pub modes: Vec<Vec<C64>>,
}

impl FddResult {
    /// Dominant frequency: the peak of the first-singular-value spectrum
    /// below `f_max` Hz (DC excluded).
    pub fn dominant_frequency(&self, f_max: f64) -> f64 {
        let max_bin = self
            .freqs
            .iter()
            .position(|&f| f > f_max)
            .unwrap_or(self.freqs.len())
            .saturating_sub(1);
        let k = peak_bin(&self.sv1, max_bin);
        self.freqs[k]
    }
}

/// Run FDD on a set of channels (equal-length waveforms).
pub fn fdd(channels: &[&[f64]], cfg: &WelchConfig) -> FddResult {
    let nc = channels.len();
    let csd = welch_csd(channels, cfg);
    // one frequency bin per pool chunk: each is an eigenproblem of its own
    let mut results: Vec<(f64, Vec<C64>)> = vec![(0.0, Vec::new()); csd.len()];
    hetsolve_pool::for_each_mut([(&mut results[..], 1)], |k, [slot]| {
        slot[0] = herm_largest(&csd[k], nc);
    });
    let freqs = (0..csd.len()).map(|k| cfg.frequency(k)).collect();
    let (sv1, modes) = results.into_iter().unzip();
    FddResult { freqs, sv1, modes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectra::welch_psd;

    /// Dominant frequency from the auto-spectrum alone: single-channel FDD,
    /// the peak rule the ensemble's per-point frequency map applies.
    fn dominant_frequency_psd(x: &[f64], cfg: &WelchConfig, f_max: f64) -> f64 {
        let psd = welch_psd(x, cfg);
        let max_bin =
            ((f_max * cfg.segment as f64 * cfg.dt).floor() as usize).min(cfg.n_bins() - 1);
        cfg.frequency(peak_bin(&psd, max_bin))
    }

    impl FddResult {
        /// Mode shape (first singular vector) at the dominant frequency.
        fn dominant_mode(&self, f_max: f64) -> &[C64] {
            let f = self.dominant_frequency(f_max);
            &self.modes[self.freqs.iter().position(|&fk| fk == f).unwrap()]
        }
    }

    /// Two-mode synthetic "structure": channels respond as a mix of two
    /// damped oscillations with distinct spatial shapes, driven by
    /// deterministic pseudo-random impulses.
    fn two_mode_response(nc: usize, n: usize, dt: f64, f1: f64, f2: f64) -> Vec<Vec<f64>> {
        let shape1: Vec<f64> = (0..nc).map(|i| ((i + 1) as f64 * 0.6).sin()).collect();
        let shape2: Vec<f64> = (0..nc).map(|i| ((i + 1) as f64 * 1.9).cos()).collect();
        let (w1, w2) = (
            2.0 * std::f64::consts::PI * f1,
            2.0 * std::f64::consts::PI * f2,
        );
        let (z1, z2) = (0.02, 0.02);
        // modal SDOF responses to an impulse train
        let mut q1 = vec![0.0; n];
        let mut q2 = vec![0.0; n];
        let mut s = 12345u64;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) % 1000) as f64 / 500.0 - 1.0
        };
        let mut impulses = vec![0.0; n];
        for imp in impulses.iter_mut() {
            if rnd().abs() > 0.98 {
                *imp = rnd();
            }
        }
        // integrate two SDOFs with central differences
        let step = |q: &mut [f64], w: f64, z: f64| {
            let mut u = 0.0;
            let mut v = 0.0;
            for k in 0..n {
                let a = impulses[k] - 2.0 * z * w * v - w * w * u;
                v += dt * a;
                u += dt * v;
                q[k] = u;
            }
        };
        step(&mut q1, w1, z1);
        step(&mut q2, w2, z2);
        (0..nc)
            .map(|c| {
                (0..n)
                    .map(|k| shape1[c] * q1[k] + 0.6 * shape2[c] * q2[k])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fdd_finds_the_dominant_mode() {
        let dt = 0.005;
        let (f1, f2) = (1.8, 4.2);
        let chans = two_mode_response(6, 16384, dt, f1, f2);
        let refs: Vec<&[f64]> = chans.iter().map(|c| c.as_slice()).collect();
        let cfg = WelchConfig::new(2048, 1024, dt);
        let res = fdd(&refs, &cfg);
        let fd = res.dominant_frequency(5.0);
        let df = cfg.frequency(1);
        assert!((fd - f1).abs() < 3.0 * df, "dominant {fd} Hz vs {f1} Hz");
    }

    #[test]
    fn sv1_has_peaks_at_both_modes() {
        let dt = 0.005;
        let (f1, f2) = (1.5, 4.0);
        let chans = two_mode_response(5, 16384, dt, f1, f2);
        let refs: Vec<&[f64]> = chans.iter().map(|c| c.as_slice()).collect();
        let cfg = WelchConfig::new(2048, 1024, dt);
        let res = fdd(&refs, &cfg);
        let bin = |f: f64| (f * cfg.segment as f64 * dt).round() as usize;
        let (k1, k2) = (bin(f1), bin(f2));
        let kmid = bin(0.5 * (f1 + f2));
        assert!(res.sv1[k1] > 5.0 * res.sv1[kmid]);
        assert!(res.sv1[k2] > 5.0 * res.sv1[kmid]);
    }

    #[test]
    fn mode_shape_recovered_at_peak() {
        let dt = 0.005;
        let nc = 6;
        let chans = two_mode_response(nc, 16384, dt, 1.8, 4.2);
        let refs: Vec<&[f64]> = chans.iter().map(|c| c.as_slice()).collect();
        let cfg = WelchConfig::new(2048, 1024, dt);
        let res = fdd(&refs, &cfg);
        let mode = res.dominant_mode(5.0);
        let truth: Vec<f64> = (0..nc).map(|i| ((i + 1) as f64 * 0.6).sin()).collect();
        // modal assurance criterion |<mode, truth>|^2 / (|mode|^2 |truth|^2)
        let mut ip = C64::ZERO;
        let mut nm = 0.0;
        let mut nt = 0.0;
        for i in 0..nc {
            ip += mode[i].conj().scale(truth[i]);
            nm += mode[i].norm_sq();
            nt += truth[i] * truth[i];
        }
        let mac = ip.norm_sq() / (nm * nt);
        assert!(mac > 0.95, "MAC = {mac}");
    }

    #[test]
    fn psd_dominant_matches_fdd_for_single_channel() {
        let dt = 0.005;
        let chans = two_mode_response(1, 16384, dt, 2.2, 4.5);
        let cfg = WelchConfig::new(2048, 1024, dt);
        let f_psd = dominant_frequency_psd(&chans[0], &cfg, 5.0);
        let res = fdd(&[&chans[0]], &cfg);
        let f_fdd = res.dominant_frequency(5.0);
        assert!((f_psd - f_fdd).abs() < 1e-12);
    }

    #[test]
    fn f_max_limits_the_search() {
        let dt = 0.005;
        let chans = two_mode_response(3, 16384, dt, 1.2, 4.6);
        let refs: Vec<&[f64]> = chans.iter().map(|c| c.as_slice()).collect();
        let cfg = WelchConfig::new(2048, 1024, dt);
        let res = fdd(&refs, &cfg);
        // restrict below the first mode: result must stay under the cap
        let fd = res.dominant_frequency(0.8);
        assert!(fd <= 0.8 + 1e-9);
    }
}
