//! # hetbench
//!
//! The wall-clock benchmark of the `hetsolve` workspace. It drives the
//! system only through public functions of the facade crate, from one
//! process and one thread, and reports
//!
//! * **end-to-end metrics** (tracing off): what a user of the solver or of
//!   the serving layer sees — set-up time, time per step per case, requests
//!   per second, request latency, peak memory;
//! * **per-layer metrics** (separate traced run): one span around each call
//!   into a layer, kept in memory and written out at exit.
//!
//! `BENCHMARK.json` at the repo root is the single declaration of every
//! metric (name, unit, direction, bound); `README.md` next to this crate
//! defines each one and says which end-to-end metric it should move.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod golden;
pub mod layers;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
