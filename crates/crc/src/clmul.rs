//! The carry-less-multiply kernel (x86-64 `PCLMULQDQ`): four 128-bit
//! accumulators folded 64 bytes at a time, then 4 → 1, 128 → 64 bits and a
//! Barrett reduction to the 32-bit register — the scheme of Gopal et al.,
//! "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ" (Intel,
//! 2009), with the bit-reflected IEEE constants zlib's and Chromium's
//! `crc32_simd` use. It computes the register the table kernel computes.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// Shortest run (in 8-byte words) the kernel takes: one 64-byte block.
pub(crate) const MIN_WORDS: usize = 8;

// Multipliers for the low and high half of an accumulator that carry it
// 64 bytes forward ...
const K1: i64 = 0x01_5444_2bd4;
const K2: i64 = 0x01_c6e4_1596;
// ... and 16 bytes forward.
const K3: i64 = 0x01_7519_97d0;
const K4: i64 = 0x00_ccaa_009e;
// The 96 → 64-bit step.
const K5: i64 = 0x01_63cd_6124;
// Barrett: the polynomial P' and μ = ⌊x^64 / P⌋, both bit-reflected.
const POLY: i64 = 0x01_db71_0641;
const MU: i64 = 0x01_f701_1641;

/// Fold the longest even-length prefix of `v` (at least [`MIN_WORDS`]
/// words, asserted) into the raw register `state`; returns the new
/// register and the number of words consumed — the caller owes the table
/// kernel at most one word.
#[target_feature(enable = "pclmulqdq,sse4.1")]
pub(crate) fn fold_words<T: Copy>(state: u32, v: &[T], word: impl Fn(T) -> u64) -> (u32, usize) {
    let pair = |lo: T, hi: T| _mm_set_epi64x(word(hi) as i64, word(lo) as i64);
    let quad = |b: &[T; 8]| {
        [
            pair(b[0], b[1]),
            pair(b[2], b[3]),
            pair(b[4], b[5]),
            pair(b[6], b[7]),
        ]
    };
    // move accumulator `x` forward by the distance `k` encodes, add `next`
    let step = |x: __m128i, k: __m128i, next: __m128i| {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    };

    let (blocks, rest) = v.as_chunks::<8>();
    let (first, blocks) = blocks
        .split_first()
        .expect("the clmul kernel needs a 64-byte block");
    let mut x = quad(first);
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    for b in blocks {
        let y = quad(b);
        for j in 0..4 {
            x[j] = step(x[j], k1k2, y[j]);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x1 = x[0];
    for j in 1..4 {
        x1 = step(x1, k3k4, x[j]);
    }
    let (pairs, _) = rest.as_chunks::<2>();
    for p in pairs {
        x1 = step(x1, k3k4, pair(p[0], p[1]));
    }

    // 128 → 64 bits
    let low32 = _mm_set_epi32(0, -1, 0, -1);
    let x2 = _mm_clmulepi64_si128::<0x10>(x1, k3k4);
    let x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), x2);
    let x2 = _mm_srli_si128::<4>(x1);
    let x1 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), _mm_set_epi64x(0, K5));
    let x1 = _mm_xor_si128(x1, x2);
    // Barrett reduction to 32 bits
    let poly = _mm_set_epi64x(MU, POLY);
    let x2 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, low32), poly);
    let x2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x2, low32), poly);
    let x1 = _mm_xor_si128(x1, x2);

    let done = 8 * (blocks.len() + 1) + 2 * pairs.len();
    (_mm_extract_epi32::<1>(x1) as u32, done)
}
