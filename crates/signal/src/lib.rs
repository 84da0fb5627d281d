//! # hetsolve-signal
//!
//! Signal-processing substrate for the `hetsolve` reproduction of the SC24
//! paper *"Heterogeneous computing in a strongly-connected CPU-GPU
//! environment"* (Ichimura et al.): the post-processing pipeline that turns
//! ensemble surface waveforms into the dominant-frequency maps of Fig. 1.
//!
//! * `complex` — minimal complex arithmetic,
//! * `fft` — iterative radix-2 FFT,
//! * `spectra` — Hann window, Welch PSD/CSD estimation,
//! * `eig` — Hermitian Jacobi eigensolver (per-bin CSD decomposition),
//! * `fdd` — Frequency Domain Decomposition and dominant-frequency
//!   picking (paper ref. \[9\]).

#![forbid(unsafe_code)]

mod complex;
mod eig;
mod fdd;
mod fft;
mod spectra;

pub use complex::C64;
pub use eig::{herm_eig, HermEig};
pub use fdd::{fdd, FddResult};

pub use fft::{ifft, next_pow2, rfft};
pub use spectra::{peak_bin, welch_psd, WelchConfig};
