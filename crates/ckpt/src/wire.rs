//! The [`Wire`] trait: one declaration per checkpointed layout.
//!
//! A type that crosses a checkpoint boundary says *once* how it is laid out
//! — a [`wire_struct!`](crate::wire_struct) field list in wire order, a
//! [`wire_code!`](crate::wire_code) variant ↔ code list for an enum, a
//! [`wire_newtype!`](crate::wire_newtype) for an id wrapper — and gets both
//! directions from that one list. The expansion destructures the struct
//! exhaustively on the way out and builds it with a `..`-free literal on the
//! way in, so a field that is added and not listed does not compile.
//!
//! Wire shapes (all integers little-endian, unchanged since format v1):
//!
//! | type                         | bytes                                   |
//! |------------------------------|-----------------------------------------|
//! | `u8` / `u32` / `u64`         | 1 / 4 / 8                               |
//! | `usize`                      | as `u64`                                |
//! | `f64`                        | IEEE-754 bit pattern as `u64`           |
//! | `f32`                        | IEEE-754 bit pattern as `u32`           |
//! | `bool`                       | one byte, `0` or `1` (else `Corrupt`)   |
//! | `Option<T>`                  | `bool` tag, then `T` if `Some`          |
//! | `Vec<T>` / `VecDeque<T>`     | `u64` length, then the items            |
//! | `[T; N]`                     | the `N` items, no length                |
//! | `String`                     | `u64` length, then UTF-8 bytes          |
//! | `(A, B, ..)`, `wire_struct!` | the parts in order, no framing          |
//!
//! **Bounded lengths.** `Vec<T>::get` is the only place a decoder allocates
//! from a length prefix (`String` and `VecDeque` decode through it), and it
//! refuses any length that the bytes left in the payload cannot hold at
//! [`Wire::MIN_WIRE_BYTES`] per item — a corrupt or hostile prefix is
//! [`CkptError::Truncated`] before anything is reserved.

use std::collections::VecDeque;

use crate::format::{CkptError, Dec, Enc};

/// A value with one fixed checkpoint layout.
pub trait Wire: Sized {
    /// Fewest bytes any encoded value of this type occupies (≥ 1). Bounds
    /// sequence lengths before allocation.
    const MIN_WIRE_BYTES: usize;

    fn put(&self, enc: &mut Enc);

    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError>;

    /// The items of a sequence, after its length prefix. Only `u8`
    /// overrides the pair (one copy instead of a byte loop, for the nested
    /// shard images and strings); the bytes are the same.
    fn put_items(items: &[Self], enc: &mut Enc) {
        for v in items {
            v.put(enc);
        }
    }

    /// `len` has been checked against the payload by the caller.
    fn get_items(len: usize, dec: &mut Dec<'_>) -> Result<Vec<Self>, CkptError> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(Self::get(dec)?);
        }
        Ok(out)
    }
}

macro_rules! wire_le_int {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            const MIN_WIRE_BYTES: usize = std::mem::size_of::<$t>();

            #[inline]
            fn put(&self, enc: &mut Enc) {
                enc.raw(&self.to_le_bytes());
            }

            #[inline]
            fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
                Ok(<$t>::from_le_bytes(dec.array()?))
            }
        }
    )+};
}
wire_le_int!(u32, u64);

impl Wire for u8 {
    const MIN_WIRE_BYTES: usize = 1;

    #[inline]
    fn put(&self, enc: &mut Enc) {
        enc.raw(&[*self]);
    }

    #[inline]
    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(dec.take(1)?[0])
    }

    fn put_items(items: &[Self], enc: &mut Enc) {
        enc.raw(items);
    }

    fn get_items(len: usize, dec: &mut Dec<'_>) -> Result<Vec<Self>, CkptError> {
        Ok(dec.take(len)?.to_vec())
    }
}

impl Wire for usize {
    const MIN_WIRE_BYTES: usize = 8;

    #[inline]
    fn put(&self, enc: &mut Enc) {
        (*self as u64).put(enc);
    }

    #[inline]
    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        usize::try_from(u64::get(dec)?)
            .map_err(|_| CkptError::Corrupt("length overflows usize".into()))
    }
}

/// `f64` as its IEEE-754 bit pattern — the bitwise-restore contract.
impl Wire for f64 {
    const MIN_WIRE_BYTES: usize = 8;

    #[inline]
    fn put(&self, enc: &mut Enc) {
        self.to_bits().put(enc);
    }

    #[inline]
    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(f64::from_bits(u64::get(dec)?))
    }
}

/// `f32` as its IEEE-754 bit pattern — the predictor history's snapshots.
impl Wire for f32 {
    const MIN_WIRE_BYTES: usize = 4;

    #[inline]
    fn put(&self, enc: &mut Enc) {
        self.to_bits().put(enc);
    }

    #[inline]
    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(f32::from_bits(u32::get(dec)?))
    }
}

impl Wire for bool {
    const MIN_WIRE_BYTES: usize = 1;

    fn put(&self, enc: &mut Enc) {
        (*self as u8).put(enc);
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        match u8::get(dec)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CkptError::Corrupt(format!("bad bool byte {b}"))),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_WIRE_BYTES: usize = 1;

    fn put(&self, enc: &mut Enc) {
        self.is_some().put(enc);
        if let Some(v) = self {
            v.put(enc);
        }
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(if bool::get(dec)? {
            Some(T::get(dec)?)
        } else {
            None
        })
    }
}

/// Read a length prefix for items of type `T`, refusing one the rest of the
/// payload cannot hold.
fn bounded_len<T: Wire>(dec: &mut Dec<'_>) -> Result<usize, CkptError> {
    let len = usize::get(dec)?;
    if len > dec.remaining() / T::MIN_WIRE_BYTES {
        return Err(CkptError::Truncated);
    }
    Ok(len)
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_WIRE_BYTES: usize = 8;

    fn put(&self, enc: &mut Enc) {
        self.len().put(enc);
        T::put_items(self, enc);
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let len = bounded_len::<T>(dec)?;
        T::get_items(len, dec)
    }
}

/// Same wire shape as `Vec<T>`, front to back.
impl<T: Wire> Wire for VecDeque<T> {
    const MIN_WIRE_BYTES: usize = 8;

    fn put(&self, enc: &mut Enc) {
        self.len().put(enc);
        let (front, back) = self.as_slices();
        T::put_items(front, enc);
        T::put_items(back, enc);
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Vec::get(dec).map(VecDeque::from)
    }
}

impl Wire for String {
    const MIN_WIRE_BYTES: usize = 8;

    fn put(&self, enc: &mut Enc) {
        self.len().put(enc);
        enc.raw(self.as_bytes());
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        String::from_utf8(Vec::get(dec)?)
            .map_err(|_| CkptError::Corrupt("string is not valid UTF-8".into()))
    }
}

/// The items in order, no length prefix: `N` is part of the type. (An
/// empty array writes nothing; its minimum stays 1 so that it never
/// divides a length bound by zero.)
impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    const MIN_WIRE_BYTES: usize = if N == 0 { 1 } else { N * T::MIN_WIRE_BYTES };

    fn put(&self, enc: &mut Enc) {
        T::put_items(self, enc);
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::get(dec)?;
        }
        Ok(out)
    }
}

macro_rules! wire_tuple {
    ($($name:ident)+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const MIN_WIRE_BYTES: usize = 0 $(+ $name::MIN_WIRE_BYTES)+;

            #[allow(non_snake_case, reason = "the bindings reuse the type parameters' names")]
            fn put(&self, enc: &mut Enc) {
                let ($($name,)+) = self;
                $($name.put(enc);)+
            }

            fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
                Ok(($($name::get(dec)?,)+))
            }
        }
    };
}
wire_tuple!(A B);
wire_tuple!(A B C);
wire_tuple!(A B C D);
wire_tuple!(A B C D E);

/// `MIN_WIRE_BYTES` of the field a projection returns; lets `wire_struct!`
/// sum its fields' minimums from their names alone. Never called at run
/// time.
#[doc(hidden)]
pub const fn min_wire_bytes_of<S, T: Wire>(_: fn(&S) -> &T) -> usize {
    T::MIN_WIRE_BYTES
}

/// Declare a struct's checkpoint layout: its fields, once, in wire order.
///
/// ```
/// # use hetsolve_ckpt::{wire_struct, Wire, Enc, Dec};
/// #[derive(Debug, PartialEq)]
/// struct Sample { step: usize, residual: f64, history: Vec<f64> }
/// wire_struct!(Sample { step, residual, history });
///
/// let s = Sample { step: 3, residual: -0.0, history: vec![1.0, 2.0] };
/// let mut enc = Enc::new();
/// s.put(&mut enc);
/// let bytes = enc.into_bytes();
/// assert_eq!(Sample::get(&mut Dec::new(&bytes)).unwrap(), s);
/// ```
///
/// `put` destructures `Self` without `..` and `get` builds `Self` with a
/// literal, so leaving a field out of the list is a compile error, not a
/// field that silently restores as `Default`.
///
/// A type whose fields must satisfy a condition names its checking
/// constructor: `wire_struct!(Ring { cap, items } => Ring::from_parts)`
/// decodes the fields in order and passes them to `from_parts(cap, items)`
/// instead of writing the literal — the bytes are outside input.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        $crate::wire_struct!(@impl $ty { $($field),+ } dec {
            Ok(Self { $($field: $crate::Wire::get(dec)?),+ })
        });
    };
    ($ty:ty { $($field:ident),+ $(,)? } => $ctor:path) => {
        $crate::wire_struct!(@impl $ty { $($field),+ } dec {
            $(let $field = $crate::Wire::get(dec)?;)+
            Ok($ctor($($field),+))
        });
    };
    (@impl $ty:ty { $($field:ident),+ } $dec:ident $get:block) => {
        impl $crate::Wire for $ty {
            const MIN_WIRE_BYTES: usize =
                0 $(+ $crate::min_wire_bytes_of(|s: &Self| &s.$field))+;

            fn put(&self, enc: &mut $crate::Enc) {
                let Self { $($field),+ } = self;
                $($crate::Wire::put($field, enc);)+
            }

            fn get($dec: &mut $crate::Dec<'_>) -> Result<Self, $crate::CkptError> $get
        }
    };
}

/// [`Wire`] for an enum from its variant ↔ code list: one byte per value.
///
/// ```
/// # use hetsolve_ckpt::{wire_code, Wire, Enc, Dec};
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Side { Left, Pair(bool) }
/// wire_code!(Side, "side" { Left = 0, Pair(false) = 1, Pair(true) = 2 });
///
/// let mut enc = Enc::new();
/// Side::Pair(true).put(&mut enc);
/// let bytes = enc.into_bytes();
/// assert_eq!(bytes, [2]);
/// assert_eq!(Side::get(&mut Dec::new(&bytes)).unwrap(), Side::Pair(true));
/// assert!(Side::get(&mut Dec::new(&[3])).is_err());
/// ```
///
/// The list generates the private `code()` / `from_code()` pair the
/// impl uses; `code` matches exhaustively, so a variant left out of the
/// list does not compile. Codes are append-only: a value never changes
/// meaning across format versions. An unknown code is
/// [`CkptError::Corrupt`] naming `$what`.
#[macro_export]
macro_rules! wire_code {
    ($ty:ty, $what:literal {
        $($variant:ident $(($($arg:tt)+))? = $code:literal),+ $(,)?
    }) => {
        impl $ty {
            /// Stable wire code (append-only).
            fn code(&self) -> u8 {
                match self {
                    $(Self::$variant $(($($arg)+))? => $code,)+
                }
            }

            /// Inverse of `code`; `None` for an unknown code (a corrupt or
            /// future-version image).
            fn from_code(code: u8) -> Option<Self> {
                match code {
                    $($code => Some(Self::$variant $(($($arg)+))?),)+
                    _ => None,
                }
            }
        }

        impl $crate::Wire for $ty {
            const MIN_WIRE_BYTES: usize = 1;

            fn put(&self, enc: &mut $crate::Enc) {
                $crate::Wire::put(&self.code(), enc);
            }

            fn get(dec: &mut $crate::Dec<'_>) -> Result<Self, $crate::CkptError> {
                let code: u8 = $crate::Wire::get(dec)?;
                <$ty>::from_code(code).ok_or_else(|| {
                    $crate::CkptError::Corrupt(format!(
                        concat!("unknown ", $what, " code {}"),
                        code
                    ))
                })
            }
        }
    };
}

/// [`Wire`] for a one-field tuple struct: the inner value, no framing.
#[macro_export]
macro_rules! wire_newtype {
    ($ty:ident($inner:ty)) => {
        impl $crate::Wire for $ty {
            const MIN_WIRE_BYTES: usize = <$inner as $crate::Wire>::MIN_WIRE_BYTES;

            fn put(&self, enc: &mut $crate::Enc) {
                $crate::Wire::put(&self.0, enc);
            }

            fn get(dec: &mut $crate::Dec<'_>) -> Result<Self, $crate::CkptError> {
                Ok($ty($crate::Wire::get(dec)?))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        id: Id,
        step: usize,
        kind: Kind,
        note: String,
        residual: Option<f64>,
        history: Vec<Vec<f64>>,
        pairs: VecDeque<(usize, u32)>,
    }
    wire_struct!(Sample {
        id,
        step,
        kind,
        note,
        residual,
        history,
        pairs
    });

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Id(u64);
    wire_newtype!(Id(u64));

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Cold,
        Warm,
    }
    wire_code!(Kind, "kind" { Cold = 0, Warm = 1 });

    /// A ring that must never hold more than `cap` items: decoded through
    /// its checking constructor.
    #[derive(Debug, PartialEq)]
    struct Ring {
        cap: usize,
        items: Vec<u8>,
    }
    impl Ring {
        fn from_parts(cap: usize, mut items: Vec<u8>) -> Self {
            items.truncate(cap);
            Ring { cap, items }
        }
    }
    wire_struct!(Ring { cap, items } => Ring::from_parts);

    fn sample() -> Sample {
        Sample {
            id: Id(9),
            step: 3,
            kind: Kind::Warm,
            note: "λ".into(),
            residual: Some(-0.0),
            history: vec![vec![], vec![1.5, f64::from_bits(0x7FF8_0000_0000_0001)]],
            pairs: VecDeque::from([(1, 2), (3, 4)]),
        }
    }

    fn bytes_of<T: Wire>(v: &T) -> Vec<u8> {
        let mut enc = Enc::new();
        v.put(&mut enc);
        enc.into_bytes()
    }

    fn decode<T: Wire>(bytes: &[u8]) -> Result<T, CkptError> {
        let mut dec = Dec::new(bytes);
        let v = T::get(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }

    #[test]
    fn struct_layout_is_the_field_list_in_order_with_no_framing() {
        let s = sample();
        let mut want = Vec::new();
        want.extend(bytes_of(&9u64));
        want.extend(bytes_of(&3usize));
        want.push(1);
        want.extend(bytes_of(&String::from("λ")));
        want.extend(bytes_of(&Some(-0.0f64)));
        want.extend(bytes_of(&s.history));
        want.extend(bytes_of(&vec![(1usize, 2u32), (3, 4)]));
        let got = bytes_of(&s);
        assert_eq!(got, want);
        let back: Sample = decode(&got).unwrap();
        assert_eq!(bytes_of(&back), got, "bitwise, NaN payload included");
        assert_eq!(Sample::MIN_WIRE_BYTES, 8 + 8 + 1 + 8 + 1 + 8 + 8);
        // an array is its items with no length, like a struct's fields
        let counts = [3usize, 0, 7];
        assert_eq!(bytes_of(&counts), bytes_of(&(3usize, 0usize, 7usize)));
        assert_eq!(decode::<[usize; 3]>(&bytes_of(&counts)), Ok(counts));
        assert_eq!(<[usize; 3]>::MIN_WIRE_BYTES, 24);
    }

    #[test]
    fn unknown_codes_and_checked_constructors() {
        assert_eq!(
            decode::<Kind>(&[7]),
            Err(CkptError::Corrupt("unknown kind code 7".into()))
        );
        // the constructor, not a struct literal, builds the value
        let over = bytes_of(&(1usize, vec![5u8, 6, 7]));
        assert_eq!(
            decode::<Ring>(&over),
            Ok(Ring {
                cap: 1,
                items: vec![5]
            })
        );
        assert_eq!(Ring::MIN_WIRE_BYTES, 16);
    }

    /// A checksum-valid payload of eight bytes must not be able to reserve
    /// memory for 2^56 items: every sequence refuses the prefix before
    /// allocating.
    #[test]
    fn hostile_length_prefix_is_truncated_before_any_allocation() {
        let prefix = bytes_of(&(u64::MAX >> 8));
        assert_eq!(decode::<Vec<f64>>(&prefix), Err(CkptError::Truncated));
        assert_eq!(decode::<Vec<Vec<f64>>>(&prefix), Err(CkptError::Truncated));
        assert_eq!(decode::<Vec<String>>(&prefix), Err(CkptError::Truncated));
        assert_eq!(decode::<Vec<Sample>>(&prefix), Err(CkptError::Truncated));
        assert_eq!(decode::<VecDeque<u8>>(&prefix), Err(CkptError::Truncated));
        assert_eq!(decode::<String>(&prefix), Err(CkptError::Truncated));
        // the bound is exact: one item too many for the bytes that follow
        let mut two = bytes_of(&3usize);
        two.extend([0u8; 16]);
        assert_eq!(decode::<Vec<f64>>(&two), Err(CkptError::Truncated));
        two.extend([0u8; 8]);
        assert_eq!(decode::<Vec<f64>>(&two), Ok(vec![0.0; 3]));
    }

    /// An `f32` is its 4-byte bit pattern: `-0.0`, infinities, subnormals
    /// and quiet and signalling NaN payloads come back bit for bit, alone
    /// and as a history of columns; a cut pattern is `Truncated`.
    #[test]
    fn f32_round_trips_its_bit_pattern() {
        let values = [
            0.0f32,
            -0.0,
            1.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0xFF80_0003),
        ];
        for v in values {
            let bytes = bytes_of(&v);
            assert_eq!(bytes, v.to_bits().to_le_bytes());
            assert_eq!(decode::<f32>(&bytes).map(f32::to_bits), Ok(v.to_bits()));
            assert_eq!(decode::<f32>(&bytes[..3]), Err(CkptError::Truncated));
        }
        let history = vec![values.to_vec(), vec![], values[..3].to_vec()];
        let bytes = bytes_of(&history);
        assert_eq!(bytes.len(), 3 * 8 + 4 * (8 + 3) + 8);
        let back: Vec<Vec<f32>> = decode(&bytes).unwrap();
        assert_eq!(bytes_of(&back), bytes, "bitwise, NaN payloads included");
        assert_eq!(f32::MIN_WIRE_BYTES, 4);
    }

    /// Decode `bytes` as every kind of impl; the property is only that each
    /// returns (`Ok` or a typed error) instead of panicking or aborting.
    fn feed_every_decoder(bytes: &[u8]) {
        let _ = decode::<u8>(bytes);
        let _ = decode::<u32>(bytes);
        let _ = decode::<(u64, usize, f64, bool)>(bytes);
        let _ = decode::<String>(bytes);
        let _ = decode::<Option<Vec<f64>>>(bytes);
        let _ = decode::<Vec<Vec<f64>>>(bytes);
        let _ = decode::<Vec<Vec<f32>>>(bytes);
        let _ = decode::<Vec<[usize; 3]>>(bytes);
        let _ = decode::<Vec<String>>(bytes);
        let _ = decode::<VecDeque<(usize, u32)>>(bytes);
        let _ = decode::<Vec<Option<(Id, Sample)>>>(bytes);
        let _ = decode::<(Kind, Id, Ring, Sample, Vec<u8>)>(bytes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic_a_decoder(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            feed_every_decoder(&bytes);
        }

        /// Valid encodings with one byte edited, a length prefix
        /// overwritten, or the tail cut off.
        #[test]
        fn mutated_encodings_never_panic_a_decoder(
            at in 0usize..4096,
            byte in any::<u8>(),
            len in any::<u64>(),
            cut in 0usize..4096,
        ) {
            let good = bytes_of(&vec![Some((Id(1), sample())), None]);
            let mut edited = good.clone();
            edited[at % good.len()] = byte;
            feed_every_decoder(&edited);
            let mut relen = good.clone();
            let p = at % (good.len() - 8);
            relen[p..p + 8].copy_from_slice(&len.to_le_bytes());
            feed_every_decoder(&relen);
            feed_every_decoder(&good[..cut % good.len()]);
        }

        #[test]
        fn what_is_put_is_what_is_got(
            a in any::<u64>(),
            x in any::<u64>(),
            v in proptest::collection::vec(any::<u64>(), 0..8),
            text in proptest::collection::vec(0x20u8..0x7f, 0..12),
        ) {
            let value = (
                a,
                Some(f64::from_bits(x)),
                v.iter().map(|&w| (w as usize, w as u32)).collect::<VecDeque<_>>(),
                String::from_utf8(text).unwrap(),
            );
            let bytes = bytes_of(&value);
            let back: (u64, Option<f64>, VecDeque<(usize, u32)>, String) =
                decode(&bytes).unwrap();
            prop_assert_eq!(bytes_of(&back), bytes);
        }
    }
}
