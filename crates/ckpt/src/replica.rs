//! Peer-replica checkpoint mirror for the sharded serving cluster.
//!
//! A [`ReplicaStore`] models the copy of a shard's checkpoint bytes held
//! by a *peer* node: when node `k` crashes, its own `CheckpointStore`
//! directory is gone with it, and the failover path restores from the
//! replica its peer kept. The store is an in-memory, bounded,
//! sequence-numbered ring of raw checkpoint byte images — raw bytes, not
//! decoded structs, so the replica path exercises exactly the same
//! validation (magic, version, per-section CRC) as a cold restore from
//! disk, and a torn or corrupted replica is detected by the parse
//! callback rather than trusted.
//!
//! Semantics mirror [`CheckpointStore`](crate::CheckpointStore):
//!
//! * `keep` is clamped to at least 2 so fallback past a torn newest
//!   replica has an older one to land on;
//! * [`ReplicaStore::load_latest_valid`] walks replicas newest-first and
//!   skips invalid ones with a typed [`RestoreReport`] entry;
//! * [`ReplicaStore::tear`] is the chaos hook the `corrupt_replica` fault
//!   injection drives.

use std::path::PathBuf;

use crate::format::CkptError;
use crate::store::{RestoreReport, SkippedCheckpoint};

/// Bounded in-memory mirror of a shard's checkpoint byte images, newest
/// `keep` retained, validated on read.
#[derive(Debug, Clone)]
pub struct ReplicaStore {
    keep: usize,
    /// `(seq, bytes)` ascending by sequence number.
    entries: Vec<(u64, Vec<u8>)>,
}

impl ReplicaStore {
    /// New empty mirror retaining the newest `keep` replicas (clamped to
    /// at least 2, matching `CheckpointStore`).
    pub fn new(keep: usize) -> Self {
        ReplicaStore {
            keep: keep.max(2),
            entries: Vec::new(),
        }
    }

    /// Mirror checkpoint `seq`: replace any existing image at the same
    /// sequence, keep entries sorted, prune to the newest `keep`.
    pub fn mirror(&mut self, seq: u64, bytes: &[u8]) {
        match self.entries.binary_search_by_key(&seq, |&(s, _)| s) {
            Ok(i) => self.entries[i].1 = bytes.to_vec(),
            Err(i) => self.entries.insert(i, (seq, bytes.to_vec())),
        }
        if self.entries.len() > self.keep {
            let drop = self.entries.len() - self.keep;
            self.entries.drain(..drop);
        }
    }

    /// Chaos hook: truncate the replica at `seq` to the leading
    /// `keep_frac` of its bytes (clamped to `[0, 1]`), simulating a
    /// mirror write torn by the link or the peer. Returns `false` when
    /// no replica with that sequence exists.
    pub fn tear(&mut self, seq: u64, keep_frac: f64) -> bool {
        let Ok(i) = self.entries.binary_search_by_key(&seq, |&(s, _)| s) else {
            return false;
        };
        let bytes = &mut self.entries[i].1;
        let keep = ((bytes.len() as f64) * keep_frac.clamp(0.0, 1.0)).floor() as usize;
        bytes.truncate(keep.min(bytes.len()));
        true
    }

    /// Chaos hook: flip one bit of the replica image at `seq` — a silent
    /// in-memory corruption, as opposed to [`ReplicaStore::tear`]'s torn
    /// write. The byte offset is `bit / 8 % len`, so any `bit` value
    /// addresses a valid position. The per-section CRC32 of the snapshot
    /// format guarantees the flipped image fails validation on read and
    /// is skipped like a torn one. Returns `false` when no replica with
    /// that sequence exists or it is empty.
    pub fn flip_bit(&mut self, seq: u64, bit: u64) -> bool {
        let Ok(i) = self.entries.binary_search_by_key(&seq, |&(s, _)| s) else {
            return false;
        };
        let bytes = &mut self.entries[i].1;
        if bytes.is_empty() {
            return false;
        }
        let idx = ((bit / 8) % bytes.len() as u64) as usize;
        bytes[idx] ^= 1u8 << (bit % 8);
        true
    }

    /// Walk replicas newest-first, handing each image to `parse`, and
    /// return the first that validates. Invalid images are skipped with a
    /// typed [`RestoreReport`] entry — the same torn-write fallback
    /// discipline as [`CheckpointStore::load_latest_valid`](crate::CheckpointStore::load_latest_valid).
    pub fn load_latest_valid<T>(
        &self,
        mut parse: impl FnMut(u64, &[u8]) -> Result<T, CkptError>,
    ) -> (Option<(u64, T)>, RestoreReport) {
        let mut report = RestoreReport::default();
        for (seq, bytes) in self.entries.iter().rev() {
            report.scanned += 1;
            match parse(*seq, bytes) {
                Ok(v) => return (Some((*seq, v)), report),
                Err(error) => report.skipped.push(SkippedCheckpoint {
                    seq: *seq,
                    path: PathBuf::from(format!("replica:{seq}")),
                    error,
                }),
            }
        }
        (None, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{SectionReader, SectionWriter};

    fn payload(v: u8) -> Vec<u8> {
        let mut w = SectionWriter::new();
        w.section(*b"DATA", &[v; 16]);
        w.finish()
    }

    fn parse_payload(bytes: &[u8]) -> Result<u8, CkptError> {
        let r = SectionReader::parse(bytes)?;
        Ok(r.section(*b"DATA")?[0])
    }

    /// Sequence numbers held, ascending.
    fn seqs(rep: &ReplicaStore) -> Vec<u64> {
        rep.entries.iter().map(|&(s, _)| s).collect()
    }

    #[test]
    fn mirror_prunes_to_keep_and_tracks_staleness() {
        let mut rep = ReplicaStore::new(2);
        for seq in [1u64, 2, 3, 4] {
            rep.mirror(seq, &payload(seq as u8));
        }
        assert_eq!(seqs(&rep), [3, 4], "pruned to the newest keep=2");
        assert!(seqs(&ReplicaStore::new(2)).is_empty(), "never mirrored");
    }

    #[test]
    fn load_latest_valid_prefers_newest() {
        let mut rep = ReplicaStore::new(3);
        rep.mirror(5, &payload(5));
        rep.mirror(8, &payload(8));
        let (found, report) = rep.load_latest_valid(|_, b| parse_payload(b));
        assert_eq!(found, Some((8, 8)));
        assert!(report.clean());
        assert_eq!(report.scanned, 1);
    }

    #[test]
    fn torn_newest_falls_back_to_previous_good() {
        let mut rep = ReplicaStore::new(3);
        rep.mirror(1, &payload(1));
        rep.mirror(2, &payload(2));
        assert!(rep.tear(2, 0.5));
        assert!(!rep.tear(9, 0.5), "no such seq");
        let (found, report) = rep.load_latest_valid(|_, b| parse_payload(b));
        assert_eq!(found, Some((1, 1)), "fell back past the torn replica");
        assert_eq!(report.scanned, 2);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].seq, 2);
        assert_eq!(report.skipped[0].error, CkptError::Truncated);
    }

    #[test]
    fn all_replicas_invalid_reports_every_skip() {
        let mut rep = ReplicaStore::new(3);
        rep.mirror(1, &payload(1));
        rep.mirror(2, &payload(2));
        rep.tear(1, 0.0);
        rep.tear(2, 0.3);
        let (found, report) = rep.load_latest_valid(|_, b| parse_payload(b));
        assert!(found.is_none());
        assert_eq!(report.skipped.len(), 2, "{report}");
    }

    #[test]
    fn flipped_bit_fails_validation_and_falls_back() {
        let mut rep = ReplicaStore::new(3);
        rep.mirror(1, &payload(1));
        rep.mirror(2, &payload(2));
        // flip a payload bit in the newest replica (header is 12 bytes,
        // section header 16 — aim well past both)
        assert!(rep.flip_bit(2, (12 + 16 + 4) * 8));
        assert!(!rep.flip_bit(9, 0), "no such seq");
        let (found, report) = rep.load_latest_valid(|_, b| parse_payload(b));
        assert_eq!(found, Some((1, 1)), "fell back past the corrupt replica");
        assert_eq!(report.skipped.len(), 1);
        assert!(matches!(
            report.skipped[0].error,
            CkptError::ChecksumMismatch { .. } | CkptError::Truncated | CkptError::Corrupt(_)
        ));
    }

    #[test]
    fn every_single_bit_flip_in_a_replica_is_detected() {
        // exhaustive over the whole image: no bit position yields a
        // replica that still validates AND decodes to the same value
        let image = payload(7);
        for bit in 0..(image.len() as u64 * 8) {
            let mut rep = ReplicaStore::new(2);
            rep.mirror(1, &image);
            assert!(rep.flip_bit(1, bit));
            let (found, _) = rep.load_latest_valid(|_, b| parse_payload(b));
            assert!(found.is_none(), "bit {bit} flip went undetected");
        }
    }

    #[test]
    fn re_mirroring_a_seq_replaces_in_place() {
        let mut rep = ReplicaStore::new(3);
        rep.mirror(4, &payload(1));
        rep.mirror(4, &payload(9));
        assert_eq!(seqs(&rep), [4]);
        let (found, _) = rep.load_latest_valid(|_, b| parse_payload(b));
        assert_eq!(found, Some((4, 9)));
    }
}
