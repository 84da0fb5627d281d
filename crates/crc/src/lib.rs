//! CRC32 (IEEE 802.3, the zlib polynomial) — the one checksum of the
//! workspace: checkpoint sections (`hetsolve-ckpt`, which re-exports
//! [`crc32`] and [`Crc32`]) and the silent-data-corruption guards of
//! `hetsolve-core`, which checksum every state vector at every step
//! boundary.
//!
//! Two kernels, one digest. Runs of 64 bytes and more are folded with
//! carry-less multiplies where the CPU has them (`clmul.rs`, chosen at run
//! time); everything else — short runs, the last odd word, other targets,
//! Miri — goes through the slicing-by-8 tables of `table.rs`. Which kernel
//! ran is not observable in the result: the crate's tests hold the two
//! against each other at every length, split point and carried-in state.
//!
//! The crate is a dependency-free leaf so that the one feature-checked
//! `unsafe` call below lives outside `hetsolve-ckpt`, which decodes
//! untrusted bytes under `#![forbid(unsafe_code)]`.

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul;
mod table;

/// CRC32 of `bytes` (IEEE polynomial, init/xorout `0xFFFFFFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Incremental CRC32 hasher (same polynomial and parameters as
/// [`crc32`]): `Crc32::new().update(b).finish() == crc32(b)`.
///
/// Lets callers checksum data that is not contiguous in memory — `f64`
/// state vectors, block arrays, multi-part operator payloads — without
/// staging it into a byte buffer first. Because the polynomial is
/// primitive, any *single-bit* flip in the covered data changes the
/// digest, which is the detection guarantee the silent-data-corruption
/// defense builds on.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let (words, tail) = bytes.as_chunks::<8>();
        self.state = fold_words(self.state, words, u64::from_le_bytes);
        self.state = table::fold_bytes(self.state, tail);
        self
    }

    /// Fold one `u64` word (little-endian) into the digest.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.state = table::fold_word(self.state, v);
        self
    }

    /// Fold an `f64` slice by IEEE-754 bit pattern — the same
    /// representation the checkpoint codecs use, so `-0.0` and NaN
    /// payload bits are all covered (and distinguished).
    pub fn update_f64s(&mut self, v: &[f64]) -> &mut Self {
        self.update_words(v, f64::to_bits)
    }

    /// Fold an `f32` slice by IEEE-754 bit pattern, 4 bytes per entry:
    /// the digest of the slice's little-endian memory image, with no entry
    /// widened. Pairs of entries go through the word kernels; an odd last
    /// entry is folded as its 4 bytes.
    pub fn update_f32s(&mut self, v: &[f32]) -> &mut Self {
        let (pairs, tail) = v.as_chunks::<2>();
        self.state = fold_words(self.state, pairs, |[lo, hi]| {
            u64::from(lo.to_bits()) | (u64::from(hi.to_bits()) << 32)
        });
        if let [last] = tail {
            self.state = table::fold_bytes(self.state, &last.to_bits().to_le_bytes());
        }
        self
    }

    /// Fold a slice whose element `x` stands for the little-endian `u64`
    /// `word(x)` — index arrays (`usize`, `u32`) are covered as the words
    /// [`Self::update_u64`] would be fed one at a time, in one long run.
    pub fn update_words<T: Copy>(&mut self, v: &[T], word: impl Fn(T) -> u64) -> &mut Self {
        self.state = fold_words(self.state, v, word);
        self
    }

    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// Fold the words of `v` into the raw register `state` with the fastest
/// kernel this CPU runs.
fn fold_words<T: Copy>(state: u32, v: &[T], word: impl Fn(T) -> u64) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if v.len() >= clmul::MIN_WORDS
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the CPU was just seen to support both features the
        // kernel is compiled for.
        #[allow(unsafe_code, reason = "PCLMULQDQ kernel after run-time detection")]
        let (state, done) = unsafe { clmul::fold_words(state, v, &word) };
        return table::fold_words(state, &v[done..], word);
    }
    table::fold_words(state, v, word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Table-only digest continuing from the raw register `state`: the
    /// reference the dispatching entries are held against.
    fn table_bytes(state: u32, bytes: &[u8]) -> u32 {
        let (words, tail) = bytes.as_chunks::<8>();
        let state = table::fold_words(state, words, u64::from_le_bytes);
        table::fold_bytes(state, tail)
    }

    /// Deterministic non-periodic filler.
    fn bytes(n: usize, salt: u64) -> Vec<u8> {
        let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    fn words_of(b: &[u8]) -> Vec<u64> {
        b.as_chunks::<8>()
            .0
            .iter()
            .map(|c| u64::from_le_bytes(*c))
            .collect()
    }

    /// A hasher that has already absorbed something: a register that is
    /// neither the initial value nor zero.
    fn carried() -> Crc32 {
        let mut c = Crc32::new();
        c.update(b"carried-in state");
        c
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // zlib's crc32 of 1 KiB of zeros
        assert_eq!(crc32(&[0u8; 1024]), 0xEFB5_AF2E);
    }

    #[test]
    fn every_entry_matches_the_table_kernel_at_every_length() {
        let data = bytes(1024, 1);
        for start in [Crc32::new(), carried()] {
            for len in 0..=data.len() {
                let b = &data[..len];
                let want = table_bytes(start.state, b);
                let mut c = start;
                assert_eq!(c.update(b).state, want, "update, {len} B");
                if len % 8 == 0 {
                    let w = words_of(b);
                    let mut c = start;
                    c.update_words(&w, |x| x);
                    assert_eq!(c.state, want, "update_words, {len} B");
                    let f: Vec<f64> = w.iter().map(|&x| f64::from_bits(x)).collect();
                    let mut c = start;
                    assert_eq!(c.update_f64s(&f).state, want, "update_f64s, {len} B");
                }
            }
        }
    }

    #[test]
    fn long_runs_match_the_table_kernel() {
        for (i, len) in [10_000, 76_296, 100_003, 1_000_000].into_iter().enumerate() {
            let b = bytes(len, 7 + i as u64);
            let start = carried();
            let mut c = start;
            assert_eq!(c.update(&b).state, table_bytes(start.state, &b), "{len} B");
            let w = words_of(&b);
            let f: Vec<f64> = w.iter().map(|&x| f64::from_bits(x)).collect();
            let want = table::fold_words(start.state, &w, |x| x);
            let mut c = start;
            assert_eq!(c.update_f64s(&f).state, want, "{len} B as f64");
            let mut c = start;
            c.update_words(&w, |x| x);
            assert_eq!(c.state, want, "{len} B as words");
        }
    }

    #[test]
    fn incremental_update_matches_one_shot_at_every_split() {
        let data = bytes(1000, 3);
        let start = carried();
        let want = table_bytes(start.state, &data);
        for split in 0..=data.len() {
            let mut c = start;
            c.update(&data[..split]).update(&data[split..]);
            assert_eq!(c.state, want, "byte split at {split}");
        }
        let w = words_of(&data);
        let f: Vec<f64> = w.iter().map(|&x| f64::from_bits(x)).collect();
        for split in 0..=w.len() {
            let mut c = start;
            c.update_f64s(&f[..split]).update_f64s(&f[split..]);
            assert_eq!(c.state, want, "f64 split at {split}");
            let mut c = start;
            c.update_words(&w[..split], |x| x);
            c.update_words(&w[split..], |x| x);
            assert_eq!(c.state, want, "word split at {split}");
        }
    }

    /// `update_f32s` is the CRC of the slice's 4-byte little-endian image
    /// at every length (odd ones end in a half word), split point and
    /// carried-in state, with `-0.0` and NaN payloads distinguished.
    #[test]
    fn f32_slices_are_covered_as_their_four_byte_image() {
        let data = bytes(4 * 300, 5);
        let f: Vec<f32> = data
            .as_chunks::<4>()
            .0
            .iter()
            .map(|c| f32::from_le_bytes(*c))
            .collect();
        for start in [Crc32::new(), carried()] {
            for len in 0..=f.len() {
                let want = table_bytes(start.state, &data[..4 * len]);
                let mut c = start;
                assert_eq!(c.update_f32s(&f[..len]).state, want, "{len} f32");
            }
            let want = table_bytes(start.state, &data);
            for split in 0..=f.len() {
                let mut c = start;
                c.update_f32s(&f[..split]).update_f32s(&f[split..]);
                assert_eq!(c.state, want, "f32 split at {split}");
            }
        }
        let digest = |v: &[f32]| Crc32::new().update_f32s(v).finish();
        let nan = f32::from_bits(0x7FC0_0001);
        assert_ne!(digest(&[0.0, 1.0]), digest(&[-0.0, 1.0]));
        assert_ne!(digest(&[f32::NAN, 1.0]), digest(&[nan, 1.0]));
    }

    #[test]
    fn narrow_elements_are_covered_as_whole_words() {
        // a `u32` index array is checksummed as the `u64` words
        // `update_u64` would be fed, not as its 4-byte memory image
        let idx: Vec<u32> = (0..300u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let mut one_by_one = carried();
        for &j in &idx {
            one_by_one.update_u64(j as u64);
        }
        let mut run = carried();
        run.update_words(&idx, |j| j as u64);
        assert_eq!(run.finish(), one_by_one.finish());
    }

    proptest! {
        #[test]
        fn random_bytes_match_the_table_kernel(
            data in proptest::collection::vec(0u8..=255, 0..4096),
            split in 0usize..4096,
        ) {
            let want = table_bytes(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF;
            prop_assert_eq!(crc32(&data), want);
            let split = split.min(data.len());
            let mut c = Crc32::new();
            c.update(&data[..split]).update(&data[split..]);
            prop_assert_eq!(c.finish(), want);
        }
    }
}
