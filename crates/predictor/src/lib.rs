//! # hetsolve-predictor
//!
//! Initial-guess predictors for the `hetsolve` reproduction of the SC24
//! paper *"Heterogeneous computing in a strongly-connected CPU-GPU
//! environment"* (Ichimura et al.):
//!
//! * `adams` — Adams-Bashforth extrapolation (the conventional baseline
//!   predictor of Algorithm 2),
//! * `mgs` — modified Gram-Schmidt QR, the predictor's core kernel,
//! * `datadriven` — the per-region orthogonal-decomposition correction
//!   predictor (Eq. (3) and §3.2) that the proposed method runs on the CPU,
//! * `adaptive` — the controller that adapts the snapshot window `s` so
//!   predictor@CPU time balances solver@GPU time (Fig. 4).

#![forbid(unsafe_code)]

mod adams;
mod adaptive;
mod datadriven;
mod mgs;

pub use adams::{adams_bashforth, AdamsState};
pub use adaptive::{AdaptiveWindow, WindowDecision};
pub use datadriven::DataDrivenPredictor;
pub use mgs::{mgs_qr, MgsQr};
