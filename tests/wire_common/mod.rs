//! Shared by `wire_golden.rs` and `decoder_proptest.rs`: the golden files
//! and a way to rebuild a sectioned image under fresh CRCs.
#![allow(dead_code, reason = "each test binary uses a different part")]

use hetsolve::ckpt::{SectionReader, SectionWriter};

pub fn data(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

pub fn golden(name: &str) -> Vec<u8> {
    std::fs::read(data(name)).unwrap_or_else(|e| panic!("read golden {name}: {e}"))
}

/// Section order of the three sectioned images (what `to_bytes` writes).
pub const RUN_TAGS: [&[u8; 4]; 7] = [
    b"META", b"SLOT", b"ADPT", b"CLK\0", b"RECS", b"RCVR", b"INTG",
];
pub const SERVER_TAGS: [&[u8; 4]; 10] = [
    b"META", b"CLK\0", b"QUE\0", b"LANE", b"REQ\0", b"STAT", b"RCVR", b"FLIT", b"QOS\0", b"INTG",
];
pub const CLUSTER_TAGS: [&[u8; 4]; 8] = [
    b"META", b"ROUT", b"LOST", b"STAT", b"TRAF", b"RCVY", b"FLIT", b"SHRD",
];

/// Rebuild `image` section by section under fresh CRCs; `edit` returns what
/// to write for a section (`None` drops it).
pub fn reseal(
    image: &[u8],
    tags: &[&[u8; 4]],
    edit: impl Fn(&[u8; 4], &[u8]) -> Option<Vec<u8>>,
) -> Vec<u8> {
    let r = SectionReader::parse(image).expect("golden parses");
    let mut w = SectionWriter::new();
    for &tag in tags {
        if let Some(p) = edit(tag, r.section(*tag).expect("golden has every section")) {
            w.section(*tag, &p);
        }
    }
    w.finish()
}

pub fn without(image: &[u8], tags: &[&[u8; 4]], drop: &[u8; 4]) -> Vec<u8> {
    reseal(image, tags, |tag, p| (tag != drop).then(|| p.to_vec()))
}

/// The fingerprint an image was written under: the first word of `META`.
pub fn fingerprint_of(image: &[u8]) -> u64 {
    let r = SectionReader::parse(image).expect("golden parses");
    let meta = r.section(*b"META").expect("META");
    u64::from_le_bytes(meta[..8].try_into().unwrap())
}
