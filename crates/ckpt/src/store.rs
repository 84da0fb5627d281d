//! Sequence-numbered checkpoint store with keep-N pruning and
//! validated-restore fallback.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::format::{write_atomic, CkptError};

/// A directory of `ckpt_<seq>.bin` files, written atomically, pruned to
/// the newest `keep`, and restored newest-first past any invalid file.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

/// One checkpoint the restore scan rejected, and why.
#[derive(Debug, Clone)]
pub struct SkippedCheckpoint {
    pub seq: u64,
    pub path: PathBuf,
    pub error: CkptError,
}

/// What a restore scan saw: how many files it looked at and which it had
/// to skip. `skipped` non-empty + a successful restore is the torn-write
/// fallback working as designed.
#[derive(Debug, Clone, Default)]
pub struct RestoreReport {
    /// Checkpoint files examined (newest first).
    pub scanned: usize,
    /// Files rejected during the scan, newest first.
    pub skipped: Vec<SkippedCheckpoint>,
}

impl RestoreReport {
    /// No file had to be skipped.
    pub fn clean(&self) -> bool {
        self.skipped.is_empty()
    }
}

impl fmt::Display for RestoreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scanned {} checkpoint(s)", self.scanned)?;
        for s in &self.skipped {
            write!(f, "; skipped seq {} ({})", s.seq, s.error)?;
        }
        Ok(())
    }
}

impl CheckpointStore {
    /// Open (creating if needed) a store in `dir`, retaining the newest
    /// `keep` checkpoints. `keep` is clamped to at least 2 — fallback
    /// past a torn latest file needs an older one to exist.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            keep: keep.max(2),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path a checkpoint with sequence number `seq` lives at.
    pub fn path_for(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt_{seq:010}.bin"))
    }

    /// All checkpoints on disk, ascending by sequence number. Files not
    /// matching the `ckpt_<seq>.bin` pattern are ignored.
    pub fn list(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(seq) = name
                .strip_prefix("ckpt_")
                .and_then(|s| s.strip_suffix(".bin"))
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            out.push((seq, entry.path()));
        }
        out.sort_by_key(|&(seq, _)| seq);
        Ok(out)
    }

    /// Newest checkpoint on disk, if any.
    pub fn latest(&self) -> io::Result<Option<(u64, PathBuf)>> {
        Ok(self.list()?.pop())
    }

    /// Atomically write checkpoint `seq`, then prune to the newest
    /// `keep`. Returns the final path.
    pub fn save(&self, seq: u64, bytes: &[u8]) -> io::Result<PathBuf> {
        let path = self.path_for(seq);
        write_atomic(&path, bytes)?;
        let list = self.list()?;
        if list.len() > self.keep {
            for (_, old) in &list[..list.len() - self.keep] {
                let _ = fs::remove_file(old);
            }
        }
        Ok(path)
    }

    /// Walk checkpoints newest-first, handing each file's bytes to
    /// `parse`, and return the first that validates. Unreadable or
    /// invalid files are skipped with a typed entry in the
    /// [`RestoreReport`] — this is the torn-write fallback.
    pub fn load_latest_valid<T>(
        &self,
        mut parse: impl FnMut(u64, &[u8]) -> Result<T, CkptError>,
    ) -> (Option<(u64, T)>, RestoreReport) {
        let mut report = RestoreReport::default();
        let list = match self.list() {
            Ok(l) => l,
            Err(e) => {
                report.skipped.push(SkippedCheckpoint {
                    seq: 0,
                    path: self.dir.clone(),
                    error: CkptError::Io(e.to_string()),
                });
                return (None, report);
            }
        };
        for (seq, path) in list.into_iter().rev() {
            report.scanned += 1;
            let attempt = fs::read(&path)
                .map_err(CkptError::from)
                .and_then(|bytes| parse(seq, &bytes));
            match attempt {
                Ok(v) => return (Some((seq, v)), report),
                Err(error) => report.skipped.push(SkippedCheckpoint { seq, path, error }),
            }
        }
        (None, report)
    }
}

/// Chaos helper: truncate `path` to `keep_frac` of its length, simulating
/// a write torn by a crash. `keep_frac` is clamped to `[0, 1]`.
pub fn tear(path: &Path, keep_frac: f64) -> io::Result<()> {
    let len = fs::metadata(path)?.len();
    let keep = ((len as f64) * keep_frac.clamp(0.0, 1.0)).floor() as u64;
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(keep.min(len))?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{SectionReader, SectionWriter};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hsckpt-store-{name}"));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn payload(v: u8) -> Vec<u8> {
        let mut w = SectionWriter::new();
        w.section(*b"DATA", &[v; 16]);
        w.finish()
    }

    fn parse_payload(bytes: &[u8]) -> Result<u8, CkptError> {
        let r = SectionReader::parse(bytes)?;
        Ok(r.section(*b"DATA")?[0])
    }

    #[test]
    fn save_list_prune() {
        let store = CheckpointStore::new(tmpdir("prune"), 2).unwrap();
        for seq in [1u64, 2, 3, 4] {
            store.save(seq, &payload(seq as u8)).unwrap();
        }
        let seqs: Vec<u64> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![3, 4], "pruned to the newest keep=2");
        assert_eq!(store.latest().unwrap().unwrap().0, 4);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn load_latest_valid_prefers_newest() {
        let store = CheckpointStore::new(tmpdir("newest"), 4).unwrap();
        store.save(7, &payload(7)).unwrap();
        store.save(9, &payload(9)).unwrap();
        let (found, report) = store.load_latest_valid(|_, b| parse_payload(b));
        assert_eq!(found, Some((9, 9)));
        assert!(report.clean());
        assert_eq!(report.scanned, 1);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn torn_latest_falls_back_to_previous_good() {
        let store = CheckpointStore::new(tmpdir("torn"), 4).unwrap();
        store.save(1, &payload(1)).unwrap();
        store.save(2, &payload(2)).unwrap();
        tear(&store.path_for(2), 0.5).unwrap();
        let (found, report) = store.load_latest_valid(|_, b| parse_payload(b));
        assert_eq!(found, Some((1, 1)), "fell back past the torn file");
        assert_eq!(report.scanned, 2);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].seq, 2);
        assert_eq!(report.skipped[0].error, CkptError::Truncated);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn pruning_keeps_enough_history_for_torn_newest_fallback() {
        // keep-N pruning and torn-write fallback interact: after pruning,
        // the fallback must land on a RETAINED older checkpoint, not on
        // one that pruning already deleted.
        let store = CheckpointStore::new(tmpdir("prune-torn"), 3).unwrap();
        for seq in [1u64, 2, 3, 4, 5] {
            store.save(seq, &payload(seq as u8)).unwrap();
        }
        let seqs: Vec<u64> = store.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![3, 4, 5], "pruned to the newest keep=3");

        tear(&store.path_for(5), 0.5).unwrap();
        let (found, report) = store.load_latest_valid(|_, b| parse_payload(b));
        assert_eq!(found, Some((4, 4)), "fell back to the retained seq 4");
        assert_eq!(report.scanned, 2);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].seq, 5);
        assert_eq!(report.skipped[0].error, CkptError::Truncated);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn empty_store_restores_nothing_cleanly() {
        let store = CheckpointStore::new(tmpdir("empty"), 2).unwrap();
        let (found, report) = store.load_latest_valid(|_, b| parse_payload(b));
        assert!(found.is_none());
        assert!(report.clean());
        assert_eq!(report.scanned, 0);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn fully_torn_store_reports_every_skip() {
        let store = CheckpointStore::new(tmpdir("allbad"), 4).unwrap();
        store.save(1, &payload(1)).unwrap();
        store.save(2, &payload(2)).unwrap();
        tear(&store.path_for(1), 0.0).unwrap();
        tear(&store.path_for(2), 0.3).unwrap();
        let (found, report) = store.load_latest_valid(|_, b| parse_payload(b));
        assert!(found.is_none());
        assert_eq!(report.skipped.len(), 2, "{report}");
        fs::remove_dir_all(store.dir()).unwrap();
    }
}
