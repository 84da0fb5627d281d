//! The portable kernel: slicing-by-8 tables built at compile time. It
//! handles whatever the carry-less-multiply kernel does not — runs under
//! 64 bytes, the last odd word, byte tails — and everything on targets
//! without that kernel; the crate's tests use it as the reference.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

// Slicing-by-8: TABLES[j][b] is the CRC contribution of byte `b` placed
// `j` bytes deep in an 8-byte window, so one step folds 8 bytes with 8
// independent lookups instead of an 8-long sequential chain. TABLES[0] is
// the byte-at-a-time table.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    t[0] = crc32_table();
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = t[0][(t[j - 1][i] & 0xFF) as usize] ^ (t[j - 1][i] >> 8);
            i += 1;
        }
        j += 1;
    }
    t
}

const TABLES: [[u32; 256]; 8] = crc32_tables();

/// Fold one little-endian 8-byte window into the raw register.
#[inline]
pub(crate) fn fold_word(state: u32, w: u64) -> u32 {
    let lo = (w as u32) ^ state;
    let hi = (w >> 32) as u32;
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

pub(crate) fn fold_words<T: Copy>(state: u32, v: &[T], word: impl Fn(T) -> u64) -> u32 {
    v.iter().fold(state, |s, &x| fold_word(s, word(x)))
}

pub(crate) fn fold_bytes(state: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(state, |s, &b| {
        TABLES[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8)
    })
}
