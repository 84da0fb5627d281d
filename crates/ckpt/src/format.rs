//! The binary snapshot format: header, checksummed sections, and the
//! payload buffers ([`Enc`]/[`Dec`]) the [`Wire`] impls of the rest of the
//! workspace write into and read from.
//!
//! Layout of a checkpoint file (all integers little-endian):
//!
//! ```text
//! magic    [u8; 8]  = b"HSCKPT\r\n"
//! version  u32      = 2
//! section* { tag [u8; 4], len u64, crc32 u32, payload [u8; len] }
//! end      { tag b"END\0", len 0, crc32 of [] }
//! ```
//!
//! The trailing `END` section doubles as a whole-file completeness marker:
//! a write torn anywhere before it parses as [`CkptError::Truncated`], and
//! a flipped payload byte as [`CkptError::ChecksumMismatch`] — both typed,
//! both recoverable by falling back to an older checkpoint.

use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::Path;

use hetsolve_crc::crc32;

use crate::wire::Wire;

/// File magic. The `\r\n` tail catches text-mode mangling, like PNG's.
pub const MAGIC: [u8; 8] = *b"HSCKPT\r\n";

/// Current format version, and the only one readers accept. Version 1
/// images were written under another summation order of the matrix-free
/// operator (and under fingerprints that left out the node model and the
/// integrity configuration); version 2 images store the predictor history
/// as `f64` and keep one under the serial schedule; version 3 images store
/// the serving stats as one field per counter and a sample per tick and
/// per lane step. A run resumed from a version 1 or 2 image would not
/// continue bitwise, and a version 3 serving image does not decode, so all
/// three are refused like a newer version.
pub(crate) const VERSION: u32 = 4;

const END_TAG: [u8; 4] = *b"END\0";

/// Typed checkpoint format / restore failure. Every variant is
/// recoverable: the store reacts by skipping the file and trying the next
/// older checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Underlying filesystem error (message only; `std::io::Error` does
    /// not implement `Clone`).
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not the one this reader resumes from
    /// (newer, or older than the last change that moved bits).
    UnsupportedVersion(u32),
    /// The file ends before its sections do — the torn-write signature.
    Truncated,
    /// A section's payload does not match its stored CRC32.
    ChecksumMismatch { tag: [u8; 4] },
    /// A required section is absent.
    MissingSection { tag: [u8; 4] },
    /// A section parsed but its contents are inconsistent (bad length,
    /// unknown enum code, fingerprint mismatch, ...).
    Corrupt(String),
}

fn tag_str(tag: &[u8; 4]) -> String {
    tag.iter()
        .map(|&b| if b.is_ascii_graphic() { b as char } else { '.' })
        .collect()
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(msg) => write!(f, "checkpoint io error: {msg}"),
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (reader is v{VERSION})"
                )
            }
            CkptError::Truncated => write!(f, "checkpoint truncated (torn write)"),
            CkptError::ChecksumMismatch { tag } => {
                write!(f, "checksum mismatch in section '{}'", tag_str(tag))
            }
            CkptError::MissingSection { tag } => {
                write!(f, "missing section '{}'", tag_str(tag))
            }
            CkptError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Fingerprint mixers shared by the config-fingerprint builders in core and
// serve: a splitmix64 chain over u64 words plus FNV-1a for labels.

/// Fold `v` into running hash `h` (splitmix64 finalizer over `h ^ v`).
pub fn mix64(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes` — stable label hashing for fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// Payload buffers. What goes into them is the [`Wire`] trait's business.

/// Append-only buffer a section payload is encoded into.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    // `#[inline]` on this and the three `Dec` methods below: the `Wire`
    // impls of `Vec<T>` are instantiated in downstream crates, and without
    // it every `f64` of a state vector costs a call back into this crate.
    #[inline]
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over a section payload being decoded.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], CkptError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Everything must be consumed: trailing bytes mean a reader/writer
    /// mismatch, not padding.
    pub fn finish(&self) -> Result<(), CkptError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CkptError::Corrupt(format!(
                "{} trailing bytes in section",
                self.remaining()
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Sectioned container.

/// Builds a checkpoint file image: header, then checksummed sections in
/// call order, closed by `finish`.
#[derive(Debug)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        SectionWriter { buf }
    }

    pub fn section(&mut self, tag: [u8; 4], payload: &[u8]) {
        self.buf.extend_from_slice(&tag);
        self.buf
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    /// One section holding exactly `value`'s encoding.
    pub fn put<T: Wire>(&mut self, tag: [u8; 4], value: &T) {
        self.put_with(tag, |enc| value.put(enc));
    }

    /// One section holding whatever `fill` encodes — for the sections
    /// whose parts live in separate fields of the snapshot struct.
    pub fn put_with(&mut self, tag: [u8; 4], fill: impl FnOnce(&mut Enc)) {
        let mut enc = Enc::new();
        fill(&mut enc);
        self.section(tag, &enc.into_bytes());
    }

    /// Append the `END` marker and return the complete file image.
    pub fn finish(mut self) -> Vec<u8> {
        self.section(END_TAG, &[]);
        self.buf
    }
}

impl Default for SectionWriter {
    fn default() -> Self {
        SectionWriter::new()
    }
}

/// Parses and fully validates a checkpoint file image: magic, version,
/// every section CRC, and the `END` completeness marker.
#[derive(Debug, PartialEq, Eq)]
pub struct SectionReader<'a> {
    sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> SectionReader<'a> {
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CkptError> {
        let mut d = Dec::new(bytes);
        if d.array::<8>()? != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = u32::get(&mut d)?;
        if version != VERSION {
            return Err(CkptError::UnsupportedVersion(version));
        }
        let mut sections = Vec::new();
        loop {
            let tag: [u8; 4] = d.array()?;
            let len = usize::get(&mut d)?;
            let crc = u32::get(&mut d)?;
            let payload = d.take(len)?;
            if crc32(payload) != crc {
                return Err(CkptError::ChecksumMismatch { tag });
            }
            if tag == END_TAG {
                if len != 0 {
                    return Err(CkptError::Corrupt("END section with payload".into()));
                }
                if d.remaining() != 0 {
                    return Err(CkptError::Corrupt("bytes after END section".into()));
                }
                return Ok(SectionReader { sections });
            }
            sections.push((tag, payload));
        }
    }

    pub fn section(&self, tag: [u8; 4]) -> Result<&'a [u8], CkptError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| *p)
            .ok_or(CkptError::MissingSection { tag })
    }

    /// Decode section `tag` as one `T`; the payload must be consumed
    /// exactly.
    pub fn get<T: Wire>(&self, tag: [u8; 4]) -> Result<T, CkptError> {
        let mut dec = Dec::new(self.section(tag)?);
        let value = T::get(&mut dec)?;
        dec.finish()?;
        Ok(value)
    }
}

// ---------------------------------------------------------------------------
// Atomic write.

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename. A crash at any point leaves either the old file or the
/// new one — never a mix (the rename is the commit point).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_crc::Crc32;

    #[test]
    fn crc32_matches_known_vector() {
        // the classic zlib check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_crc_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let want = crc32(&data);
        for split in 0..data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]).update(&data[split..]);
            assert_eq!(c.finish(), want, "split at {split}");
        }
    }

    #[test]
    fn f64_crc_covers_bit_patterns_not_values() {
        // -0.0 and 0.0 compare equal but must checksum differently;
        // two NaNs with different payloads must too.
        let a = {
            let mut c = Crc32::new();
            c.update_f64s(&[0.0]);
            c.finish()
        };
        let b = {
            let mut c = Crc32::new();
            c.update_f64s(&[-0.0]);
            c.finish()
        };
        assert_ne!(a, b);
        // matches the byte-wise digest of the same LE representation
        let v = [1.5e-300, -2.0, f64::from_bits(0x7FF8_0000_0000_0001)];
        let mut bytes = Vec::new();
        for x in &v {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        let mut c = Crc32::new();
        c.update_f64s(&v);
        assert_eq!(c.finish(), crc32(&bytes));
    }

    #[test]
    fn fields_round_trip_bitwise() {
        let nan = f64::from_bits(0x7FF8_0000_0000_0001); // a specific NaN
        let mut e = Enc::new();
        (7u8, 0xDEAD_BEEFu32, u64::MAX - 1, 42usize).put(&mut e);
        (-0.0f64, nan, true).put(&mut e);
        (None::<f64>, Some(1.5e-300f64), Some(9u64)).put(&mut e);
        (vec![1.0f64, -2.5], vec![vec![], vec![3.0f64]]).put(&mut e);
        let bytes = e.into_bytes();
        // spot-check the shapes: LE integers, u64 lengths, one-byte tags
        assert_eq!(bytes[..5], [7, 0xEF, 0xBE, 0xAD, 0xDE]);
        assert_eq!(
            bytes.len(),
            1 + 4 + 8 + 8 + 17 + (1 + 9 + 9) + (24 + 8 + 8 + 16)
        );

        let mut d = Dec::new(&bytes);
        let ints: (u8, u32, u64, usize) = Wire::get(&mut d).unwrap();
        assert_eq!(ints, (7, 0xDEAD_BEEF, u64::MAX - 1, 42));
        let (z, n, b): (f64, f64, bool) = Wire::get(&mut d).unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits());
        assert_eq!(n.to_bits(), nan.to_bits());
        assert!(b);
        let opts: (Option<f64>, Option<f64>, Option<u64>) = Wire::get(&mut d).unwrap();
        assert_eq!(opts, (None, Some(1.5e-300), Some(9)));
        let vecs: (Vec<f64>, Vec<Vec<f64>>) = Wire::get(&mut d).unwrap();
        assert_eq!(vecs, (vec![1.0, -2.5], vec![vec![], vec![3.0]]));
        d.finish().unwrap();

        assert!(matches!(
            bool::get(&mut Dec::new(&[2])),
            Err(CkptError::Corrupt(_))
        ));
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        let text = "watchdog_breach lane#1 \"quoted\" \u{2192} evict".to_string();
        let mut e = Enc::new();
        (String::new(), text.clone()).put(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(
            <(String, String)>::get(&mut d).unwrap(),
            (String::new(), text)
        );
        d.finish().unwrap();

        // length claims more bytes than remain -> typed truncation
        let mut e = Enc::new();
        100usize.put(&mut e);
        let bytes = e.into_bytes();
        assert_eq!(
            String::get(&mut Dec::new(&bytes)),
            Err(CkptError::Truncated)
        );

        // invalid UTF-8 payload -> typed corruption, not a panic
        let mut e = Enc::new();
        2usize.put(&mut e);
        let mut bytes = e.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            String::get(&mut Dec::new(&bytes)),
            Err(CkptError::Corrupt(_))
        ));
    }

    #[test]
    fn sections_round_trip() {
        let mut w = SectionWriter::new();
        w.section(*b"AAAA", b"hello");
        w.section(*b"BBBB", &[]);
        let bytes = w.finish();
        let r = SectionReader::parse(&bytes).unwrap();
        assert_eq!(r.section(*b"AAAA").unwrap(), b"hello");
        assert_eq!(r.section(*b"BBBB").unwrap(), b"");
        assert_eq!(
            r.section(*b"CCCC"),
            Err(CkptError::MissingSection { tag: *b"CCCC" })
        );
    }

    #[test]
    fn typed_sections_round_trip_and_must_be_consumed_exactly() {
        let mut w = SectionWriter::new();
        w.put(*b"PAIR", &(7u64, vec![1.5f64, -0.0]));
        w.put_with(*b"TWO\0", |enc| {
            3u32.put(enc);
            true.put(enc);
        });
        let bytes = w.finish();
        let r = SectionReader::parse(&bytes).unwrap();
        let (a, v): (u64, Vec<f64>) = r.get(*b"PAIR").unwrap();
        assert_eq!((a, v[0]), (7, 1.5));
        assert_eq!(v[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get::<(u32, bool)>(*b"TWO\0"), Ok((3, true)));
        // a shorter type leaves bytes behind: reader/writer mismatch
        assert!(matches!(
            r.get::<u32>(*b"TWO\0"),
            Err(CkptError::Corrupt(_))
        ));
        assert_eq!(
            r.get::<u64>(*b"NONE"),
            Err(CkptError::MissingSection { tag: *b"NONE" })
        );
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let bytes = SectionWriter::new().finish();
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        assert_eq!(SectionReader::parse(&wrong), Err(CkptError::BadMagic));
        for other in [VERSION + 1, VERSION - 1, 0] {
            let mut image = bytes.clone();
            image[8..12].copy_from_slice(&other.to_le_bytes());
            assert_eq!(
                SectionReader::parse(&image),
                Err(CkptError::UnsupportedVersion(other))
            );
        }
    }

    #[test]
    fn every_truncation_point_is_typed_not_a_panic() {
        let mut w = SectionWriter::new();
        w.section(*b"DATA", &[1, 2, 3, 4, 5, 6, 7, 8]);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let e = SectionReader::parse(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(e, CkptError::Truncated | CkptError::BadMagic),
                "cut at {cut}: {e}"
            );
        }
        assert!(SectionReader::parse(&bytes).is_ok());
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mut w = SectionWriter::new();
        w.section(*b"DATA", b"payload-bytes");
        let mut bytes = w.finish();
        // flip one payload byte (header is 12 bytes, section header 16)
        bytes[12 + 16] ^= 0x01;
        assert_eq!(
            SectionReader::parse(&bytes),
            Err(CkptError::ChecksumMismatch { tag: *b"DATA" })
        );
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("hsckpt-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.bin");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(!dir.join("a.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
