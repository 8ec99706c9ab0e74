//! A compact binary serialization format for cached values.
//!
//! Cache nodes store the results of cacheable functions as opaque byte
//! strings; the paper's PHP bindings use PHP's native serializer. Here a
//! value implements [`Codec`]. Like `bincode`, the bytes do not name their
//! type; decoding needs it, and a cacheable function always knows it:
//!
//! * integers are widened to 8 bytes little-endian (`i64` for the signed
//!   types, `u64` for the unsigned ones, `isize`/`usize` included);
//! * `f32` and `f64` are their 4 and 8 IEEE-754 bytes, little-endian;
//! * `bool` is one byte, 0 or 1; `char` is its scalar value as a 4-byte `u32`;
//! * `String` and `Vec<T>` are a `u64` length followed by the bytes or the
//!   elements; `()` is nothing;
//! * `Option<T>` is a 1-byte tag (0 = `None`, 1 = `Some`) then the value;
//! * tuples of up to three and [`codec_struct!`](crate::codec_struct)
//!   structs are their fields in declaration order, with no framing.
//!
//! Equal values encode to equal bytes, so call arguments encode into cache
//! keys. Decoding arbitrary bytes gives a value or an error, never a panic:
//! cached bytes come back from a remote node.
//!
//! ```
//! use txcache::codec::{decode, encode, encode_hex};
//!
//! txcache::codec_struct! {
//!     #[derive(PartialEq, Debug)]
//!     struct Item { id: u64, name: String, price: f64 }
//! }
//!
//! let item = Item { id: 7, name: "vase".into(), price: 12.5 };
//! let bytes = encode(&item);
//! assert_eq!(bytes.len(), 8 + (8 + 4) + 8);
//! let back: Item = decode(&bytes).unwrap();
//! assert_eq!(back, item);
//! assert_eq!(encode_hex(&(7u8, true)), "070000000000000001");
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::Bytes;
use txtypes::Error;

/// Serializes a value into the TxCache binary format.
pub fn encode<T: Codec>(value: &T) -> Bytes {
    let mut out = Vec::new();
    value.encode(&mut out);
    Bytes::from(out)
}

/// Deserializes a value from the TxCache binary format. The value must use
/// the whole input.
pub fn decode<T: Codec>(bytes: &[u8]) -> Result<T, Error> {
    let mut decoder = Decoder::new(bytes);
    T::decode(&mut decoder)
        .and_then(|value| decoder.finish().map(|()| value))
        .map_err(|e| Error::Serialization(e.to_string()))
}

/// Renders a value's encoding as a short hexadecimal string, used to build
/// cache-key argument strings that are canonical and printable.
pub fn encode_hex<T: Codec>(value: &T) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut bytes = Vec::new();
    value.encode(&mut bytes);
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Streaming decoder for the TxCache binary format: a cursor over the input
/// whose every read checks that the bytes it needs are there.
#[derive(Debug)]
pub struct Decoder<'de> {
    input: &'de [u8],
    pos: usize,
}

impl<'de> Decoder<'de> {
    /// Creates a decoder over `input`.
    #[must_use]
    pub fn new(input: &'de [u8]) -> Decoder<'de> {
        Decoder { input, pos: 0 }
    }

    /// Checks that the whole input has been consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError(format!("{n} trailing bytes after value"))),
        }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Consumes the next `n` bytes. Fails, without reading anything, when
    /// fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        let pos = self.pos;
        let slice = self
            .input
            .get(pos..pos.saturating_add(n))
            .ok_or_else(|| CodecError(format!("input ends before {n} bytes at offset {pos}")))?;
        self.pos += n;
        Ok(slice)
    }

    /// Consumes the next `N` bytes as an array.
    pub fn read_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut arr = [0u8; N];
        arr.copy_from_slice(self.take(N)?);
        Ok(arr)
    }

    /// Reads an 8-byte little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.read_array()?))
    }

    /// Reads a `u64` length prefix.
    pub fn read_len(&mut self) -> Result<usize, CodecError> {
        let len = self.read_u64()?;
        usize::try_from(len).map_err(|_| CodecError("length overflows usize".into()))
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input.
    pub fn read_str(&mut self) -> Result<&'de str, CodecError> {
        let len = self.read_len()?;
        std::str::from_utf8(self.take(len)?).map_err(|e| CodecError(format!("invalid utf-8: {e}")))
    }
}

/// A value the TxCache binary format can carry (see the [module
/// docs](self) for the bytes each type writes): a cacheable function's
/// arguments, rendered into the cache key, or its result, the cached value.
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value from the front of `r`. Malformed input is an error,
    /// never a panic.
    fn decode(r: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

/// Fixed-width values travel as the little-endian bytes of their wire type:
/// `i64` or `u64` for the integers and `u32` for `char`, which decoding
/// narrows back with a range check, and the float itself for `f32`/`f64`.
macro_rules! fixed_codec {
    ($($ty:ty => $wire:ty),+ $(,)?) => {$(
        impl Codec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&(*self as $wire).to_le_bytes());
            }

            fn decode(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
                let wire = <$wire>::from_le_bytes(r.read_array()?);
                <$ty>::try_from(wire).map_err(|_| {
                    CodecError(format!("{wire} out of range for {}", stringify!($ty)))
                })
            }
        }
    )+};
}

fixed_codec!(
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    char => u32, f32 => f32, f64 => f64,
);

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match r.read_array()? {
            [0] => Ok(false),
            [1] => Ok(true),
            [other] => Err(CodecError(format!("invalid bool/option tag {other}"))),
        }
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        r.read_str().map(str::to_owned)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = r.read_len()?;
        // Every value of a non-zero-sized type encodes to at least one byte,
        // so a count above the bytes left is corrupt: refuse it before
        // reserving room for it.
        if len > r.remaining() && std::mem::size_of::<T>() != 0 {
            return Err(CodecError(format!("length {len} exceeds the input")));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(value) = self {
            value.encode(out);
        }
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        bool::decode(r)?.then(|| T::decode(r)).transpose()
    }
}

macro_rules! tuple_codec {
    ($($($name:ident)*);+) => {$(
        #[allow(non_snake_case, unused_variables)]
        impl<$($name: Codec),*> Codec for ($($name,)*) {
            fn encode(&self, out: &mut Vec<u8>) {
                let ($($name,)*) = self;
                $($name.encode(out);)*
            }

            fn decode(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
                Ok(($($name::decode(r)?,)*))
            }
        }
    )+};
}

tuple_codec!(; A; A B; A B C);

/// Defines a plain struct and implements [`Codec`] for it, encoding its
/// fields in declaration order. Attributes and doc comments pass through;
/// the [module docs](crate::codec) have an example.
#[macro_export]
macro_rules! codec_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident: $ty:ty),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty),+
        }

        impl $crate::codec::Codec for $name {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::codec::Codec::encode(&self.$field, out);)+
            }

            fn decode(
                r: &mut $crate::codec::Decoder<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                ::std::result::Result::Ok($name {
                    $($field: $crate::codec::Codec::decode(r)?),+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::codec_struct! {
        #[derive(PartialEq, Debug, Clone)]
        struct Nested {
            tags: Vec<String>,
            maybe: Option<i64>,
        }
    }

    crate::codec_struct! {
        #[derive(PartialEq, Debug, Clone)]
        struct Everything {
            b: bool,
            i: i64,
            u: u64,
            f: f64,
            s: String,
            v: Vec<u32>,
            pairs: Vec<(String, i32)>,
            nested: Nested,
            unit: (),
            tuple: (u8, String),
            opt_none: Option<String>,
            ch: char,
        }
    }

    fn sample() -> Everything {
        Everything {
            b: true,
            i: -42,
            u: 7,
            f: 3.25,
            s: "héllo wörld".into(),
            v: vec![1, 2, 3],
            pairs: vec![("a".to_string(), 1), ("b".to_string(), -2)],
            nested: Nested {
                tags: vec!["x".into(), "y".into()],
                maybe: Some(-9),
            },
            unit: (),
            tuple: (255, "t".into()),
            opt_none: None,
            ch: '✓',
        }
    }

    #[test]
    fn roundtrip_everything() {
        let value = sample();
        let bytes = encode(&value);
        let back: Everything = decode(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn roundtrip_primitives() {
        assert_eq!(decode::<u8>(&encode(&7u8)).unwrap(), 7);
        assert_eq!(decode::<i32>(&encode(&-3i32)).unwrap(), -3);
        assert_eq!(decode::<usize>(&encode(&usize::MAX)).unwrap(), usize::MAX);
        assert_eq!(decode::<isize>(&encode(&isize::MIN)).unwrap(), isize::MIN);
        assert_eq!(decode::<f32>(&encode(&1.5f32)).unwrap(), 1.5);
        assert!(!decode::<bool>(&encode(&false)).unwrap());
        assert_eq!(
            decode::<String>(&encode(&"abc".to_string())).unwrap(),
            "abc"
        );
        assert_eq!(decode::<()>(&encode(&())).unwrap(), ());
        assert_eq!(decode::<char>(&encode(&'q')).unwrap(), 'q');
        assert_eq!(
            decode::<Option<u64>>(&encode(&Some(5u64))).unwrap(),
            Some(5)
        );
        assert_eq!(decode::<Option<u64>>(&encode(&None::<u64>)).unwrap(), None);
        assert_eq!(decode::<(i8,)>(&encode(&(-1i8,))).unwrap(), (-1,));
    }

    #[test]
    fn integers_widen_to_eight_bytes() {
        assert_eq!(&encode(&-2i8)[..], &(-2i64).to_le_bytes());
        assert_eq!(&encode(&0xabcdu16)[..], &0xabcdu64.to_le_bytes());
        assert_eq!(&encode(&'é')[..], &0xe9u32.to_le_bytes());
        assert_eq!(encode(&1.0f32).len(), 4);
        assert!(decode::<u8>(&encode(&256u64)).is_err());
        assert!(decode::<i16>(&encode(&i64::MIN)).is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode(&sample()), encode(&sample()));
        let key = |n: u64| encode_hex(&(n, "x".to_string()));
        assert_eq!(key(1), key(1));
        assert_ne!(key(1), key(2));
        assert_eq!(key(1), "0100000000000000010000000000000078");
    }

    #[test]
    fn different_values_encode_differently() {
        assert_ne!(encode(&1u64), encode(&2u64));
        assert_ne!(encode(&"a".to_string()), encode(&"b".to_string()));
    }

    #[test]
    fn decode_rejects_truncated_and_trailing_input() {
        let bytes = encode(&12345u64);
        assert!(decode::<u64>(&bytes[..4]).is_err());
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(decode::<u64>(&extended).is_err());
    }

    #[test]
    fn decode_rejects_invalid_bool_and_option_tags() {
        assert!(decode::<bool>(&[7]).is_err());
        assert!(decode::<Option<u64>>(&[9]).is_err());
        assert!(decode::<char>(&encode(&u32::MAX)[..4]).is_err());
        assert!(decode::<char>(&0xd800u32.to_le_bytes()).is_err());
    }

    #[test]
    fn decode_rejects_bad_utf8() {
        // Manually build: len=1, byte 0xff.
        let mut buf = encode(&1u64).to_vec();
        buf.push(0xff);
        assert!(decode::<String>(&buf).is_err());
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocating() {
        for len in [9, u64::MAX >> 4, u64::MAX] {
            let mut buf = len.to_le_bytes().to_vec();
            buf.extend_from_slice(&[0; 8]);
            assert!(decode::<String>(&buf).is_err());
            assert!(decode::<Vec<u64>>(&buf).is_err());
            assert!(decode::<Vec<Option<String>>>(&buf).is_err());
        }
        // Zero-sized elements take no bytes, so only the count bounds them.
        assert_eq!(decode::<Vec<()>>(&encode(&3u64)).unwrap().len(), 3);
    }

    #[test]
    fn error_display() {
        let e = CodecError("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
