//! The five `from_bytes` entry points on hostile input: whatever the bytes,
//! the result is `Ok` or a typed `CkptError` — never a panic, never an
//! allocation sized by a length prefix the payload cannot back.
//!
//! Inputs are arbitrary bytes, and the golden images of `tests/data/` with
//! one section payload edited (a byte overwritten, a `u64` written over
//! what may be a length prefix, the tail cut) and the image re-sealed, so
//! the edit gets past the section CRCs and reaches the `Wire` decoders.
//! The vendored proptest shim seeds its generator from the test name: the
//! 256 cases are the same on every run.

use hetsolve::ckpt::{CkptError, Enc, Wire};
use hetsolve::core::{ConfigFingerprint, RunCheckpoint};
use hetsolve::load::{ArrivalLog, SoakReport};
use hetsolve::serve::{ClusterCheckpoint, ClusterFingerprint, ServeFingerprint, ServerCheckpoint};
use proptest::prelude::*;

mod wire_common;
use wire_common::{fingerprint_of, golden, reseal, CLUSTER_TAGS, RUN_TAGS, SERVER_TAGS};

/// One golden image and the decoder it belongs to. The fingerprint the
/// image was written under is read back from its `META`, so no backend has
/// to be built to get past the fingerprint gate.
struct Target {
    image: Vec<u8>,
    /// Section order for the sectioned formats; empty for the flat ones.
    tags: &'static [&'static [u8; 4]],
    decode: fn(&[u8], u64) -> Result<(), CkptError>,
}

fn targets() -> Vec<Target> {
    vec![
        Target {
            image: golden("parent_ebe_step2.hsckpt"),
            tags: &RUN_TAGS,
            decode: |b, fp| RunCheckpoint::from_bytes(b, ConfigFingerprint(fp)).map(drop),
        },
        Target {
            image: golden("wire/server.hsckpt"),
            tags: &SERVER_TAGS,
            decode: |b, fp| ServerCheckpoint::from_bytes(b, ServeFingerprint(fp)).map(drop),
        },
        Target {
            image: golden("wire/cluster.hsckpt"),
            tags: &CLUSTER_TAGS,
            decode: |b, fp| ClusterCheckpoint::from_bytes(b, ClusterFingerprint(fp)).map(drop),
        },
        Target {
            image: golden("wire/arrivals_burst.bin"),
            tags: &[],
            decode: |b, _| ArrivalLog::from_bytes(b).map(drop),
        },
        Target {
            image: golden("wire/soak_report.bin"),
            tags: &[],
            decode: |b, _| SoakReport::from_bytes(b).map(drop),
        },
    ]
}

impl Target {
    fn fingerprint(&self) -> u64 {
        if self.tags.is_empty() {
            0
        } else {
            fingerprint_of(&self.image)
        }
    }

    /// Apply `edit` to section `pick` (or to the whole flat image) and
    /// re-seal.
    fn mutated(&self, pick: usize, edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        if self.tags.is_empty() {
            let mut image = self.image.clone();
            edit(&mut image);
            return image;
        }
        let target = self.tags[pick % self.tags.len()];
        reseal(&self.image, self.tags, |tag, payload| {
            let mut p = payload.to_vec();
            if tag == target {
                edit(&mut p);
            }
            Some(p)
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_ok_or_typed(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        fp in any::<u64>(),
    ) {
        for t in targets() {
            let _ = (t.decode)(&bytes, fp);
        }
    }

    #[test]
    fn resealed_mutations_are_ok_or_typed(
        which in 0usize..5,
        pick in 0usize..16,
        at in any::<u64>(),
        byte in any::<u8>(),
        len in any::<u64>(),
    ) {
        let targets = targets();
        let t = &targets[which];
        let fp = t.fingerprint();
        let at = at as usize;
        // one byte overwritten
        let _ = (t.decode)(&t.mutated(pick, |p| {
            if !p.is_empty() {
                let i = at % p.len();
                p[i] = byte;
            }
        }), fp);
        // a u64 (anything, small, or huge) written where a length may sit:
        // anywhere, on an 8-byte boundary, at the head of the payload
        for len in [len, len >> 40, u64::MAX >> 8] {
            for slot in 0..3 {
                let _ = (t.decode)(&t.mutated(pick, |p| {
                    if p.len() >= 8 {
                        let i = match slot {
                            0 => at % (p.len() - 7),
                            1 => at % (p.len() / 8) * 8,
                            _ => 0,
                        };
                        p[i..i + 8].copy_from_slice(&len.to_le_bytes());
                    }
                }), fp);
            }
        }
        // tail cut
        let _ = (t.decode)(&t.mutated(pick, |p| p.truncate(at % (p.len() + 1))), fp);
    }
}

/// The unedited goldens decode — the mutation harness above is aimed at
/// real decoders, not at an early fingerprint mismatch.
#[test]
fn the_harness_reaches_the_decoders() {
    for t in targets() {
        let fp = t.fingerprint();
        assert_eq!((t.decode)(&t.image, fp), Ok(()));
        assert_eq!((t.decode)(&t.mutated(0, |_| ()), fp), Ok(()));
    }
}

/// A section that is nothing but a length prefix of 2^56 items, under a
/// valid CRC: every container refuses it typed before reserving anything.
#[test]
fn hostile_length_prefix_in_a_sealed_section_is_truncated() {
    let hostile = (u64::MAX >> 8).to_le_bytes().to_vec();
    let targets = targets();
    for (t, tag) in targets.iter().zip([b"RECS", b"REQ\0", b"ROUT"]) {
        let image = reseal(&t.image, t.tags, |s, p| {
            Some(if s == tag {
                hostile.clone()
            } else {
                p.to_vec()
            })
        });
        assert_eq!(
            (t.decode)(&image, t.fingerprint()),
            Err(CkptError::Truncated),
            "{}",
            String::from_utf8_lossy(tag)
        );
    }
    // the flat images: keep the golden up to its last sequence's prefix
    let log = &targets[3].image;
    let mut config = Enc::new();
    ArrivalLog::from_bytes(log).unwrap().config.put(&mut config);
    let mut image = log[..8 + config.into_bytes().len()].to_vec();
    image.extend(&hostile);
    assert_eq!(ArrivalLog::from_bytes(&image), Err(CkptError::Truncated));

    let rep = &targets[4].image;
    let n_tenants = SoakReport::from_bytes(rep).unwrap().tenants.len();
    let row = 4 + 2 * 8 + 4 * 8; // one `TenantLatency`
    let mut image = rep[..rep.len() - n_tenants * row - 8].to_vec();
    image.extend(&hostile);
    assert_eq!(SoakReport::from_bytes(&image), Err(CkptError::Truncated));
}
