//! Crash-consistent checkpointing: a versioned, section-checksummed binary
//! snapshot format with atomic writes and a sequence-numbered store that
//! falls back past torn or corrupt files.
//!
//! The format is deliberately dumb: a magic + version header, then a flat
//! list of `(tag, length, CRC32, payload)` sections closed by an `END`
//! marker. Every `f64` crosses the boundary as its IEEE-754 bit pattern
//! (`to_bits`/`from_bits`), so a restored state is *bitwise* what was
//! saved — the property the durable drivers in `hetsolve-core` build their
//! replay-determinism argument on (see DESIGN.md §12). What a payload holds
//! is declared once per type through the [`Wire`] trait and the
//! [`wire_struct!`], [`wire_code!`] and [`wire_newtype!`] field lists.
//!
//! Durability comes from two mechanisms working together:
//!
//! * **atomic writes** — [`write_atomic`] writes a temp file, fsyncs, and
//!   renames into place, so a crash mid-write never replaces a good
//!   checkpoint with a half-written one;
//! * **validated restore with fallback** — [`CheckpointStore::load_latest_valid`]
//!   walks checkpoints newest-first and skips (with a typed
//!   [`RestoreReport`]) any file that fails magic, version, section, or
//!   per-section CRC validation — e.g. one torn by a crash *during* the
//!   rename-free window, or by the [`tear`] chaos helper in tests.
//!
//! The crate is `forbid(unsafe_code)`; its one dependency is the CRC32 of
//! `hetsolve-crc` (re-exported here as [`crc32`]/[`Crc32`]), kept apart
//! because its carry-less-multiply kernel needs one feature-checked
//! `unsafe` call.

#![forbid(unsafe_code)]

mod format;
mod replica;
mod store;
mod wire;

pub use format::{
    fnv1a, mix64, write_atomic, CkptError, Dec, Enc, SectionReader, SectionWriter, MAGIC, VERSION,
};
pub use hetsolve_crc::{crc32, Crc32};
pub use replica::ReplicaStore;
pub use store::{tear, CheckpointStore, RestoreReport, SkippedCheckpoint};
pub use wire::{min_wire_bytes_of, Wire};
