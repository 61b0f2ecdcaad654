//! The compact binary wire codec and its byte-accounting twin.
//!
//! The evaluation attributes bytes to the control plane with
//! [`serialized_size`], a counting serializer that models a compact binary
//! encoding (fixed-width little-endian integers, length-prefixed sequences
//! and strings, one byte per enum discriminant) without allocating buffers on
//! the control-plane hot path.
//!
//! [`encode`] and [`decode`] are the *real* codec over the same data model
//! and the same layout, used by the TCP transport. Because the encoder and
//! the counter walk the identical `Serialize` structure and add the identical
//! byte widths, `encode(m)?.len() == serialized_size(&m)` holds by
//! construction — the property tests in `tests/roundtrip.rs` pin this.
//!
//! Wire layout, per serde data-model shape:
//!
//! | shape                  | bytes                                        |
//! |------------------------|----------------------------------------------|
//! | `bool`                 | 1 (`0`/`1`)                                  |
//! | `iN`/`uN`/`fN`         | N/8, little endian                           |
//! | `char`                 | 4 (the scalar value, LE)                     |
//! | `str` / `bytes`        | 4-byte LE length + contents                  |
//! | `None` / `Some(v)`     | 1 tag byte (+ `v`)                           |
//! | unit (struct)          | 0                                            |
//! | enum variant           | 1 discriminant byte + payload                |
//! | seq / map              | 4-byte LE element/entry count + contents     |
//! | tuple / struct         | fields in declaration order, no framing      |

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use serde::de::{self, Deserialize, Deserializer};
use serde::ser::{self, Serialize};

/// Returns the number of bytes `value` occupies in the wire encoding.
pub fn serialized_size<T: Serialize + ?Sized>(value: &T) -> usize {
    let mut counter = ByteCounter { bytes: 0 };
    #[expect(
        clippy::expect_used,
        reason = "counting cannot fail: every ByteCounter method only adds to the counter"
    )]
    value
        .serialize(&mut counter)
        .expect("byte counting serializer never fails");
    counter.bytes
}

/// Encodes `value` into the compact binary wire format.
pub fn encode<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut buf = Vec::new();
    encode_into(value, &mut buf)?;
    Ok(buf)
}

/// Appends the encoding of `value` to `buf` without clearing it, reserving
/// exactly the needed capacity up front (the counting serializer and the
/// encoder share one layout, so [`serialized_size`] is an exact
/// reservation, not a guess). This is the allocation-free hot path: a caller
/// that clears and reuses one buffer per connection encodes every
/// steady-state message with zero allocations once the buffer has grown to
/// its working size.
pub fn encode_into<T: Serialize + ?Sized>(value: &T, buf: &mut Vec<u8>) -> Result<(), CodecError> {
    buf.reserve(serialized_size(value));
    let mut encoder = Encoder { buf };
    value.serialize(&mut encoder)
}

/// Encodes `value` prefixed with its 4-byte little-endian payload length —
/// the TCP transport's frame layout — in a single buffer, so large payloads
/// are not copied a second time just to prepend the header.
pub fn encode_framed<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut buf = Vec::new();
    encode_framed_into(value, &mut buf)?;
    Ok(buf)
}

/// Appends a length-prefixed frame containing `value` to `buf` (the
/// buffer-reuse twin of [`encode_framed`]): 4 placeholder header bytes are
/// appended, the payload is encoded in place, and the header is patched with
/// the payload length. Returns the payload length in bytes.
pub fn encode_framed_into<T: Serialize + ?Sized>(
    value: &T,
    buf: &mut Vec<u8>,
) -> Result<usize, CodecError> {
    let start = buf.len();
    buf.reserve(4 + serialized_size(value));
    buf.extend_from_slice(&[0u8; 4]);
    let mut encoder = Encoder { buf };
    value.serialize(&mut encoder)?;
    let payload_len = buf.len() - start - 4;
    let len = u32::try_from(payload_len)
        .map_err(|_| CodecError("frame payload length exceeds u32".to_string()))?;
    #[expect(
        clippy::indexing_slicing,
        reason = "patches the 4 header bytes appended above"
    )]
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    Ok(payload_len)
}

/// Decodes a value from the compact binary wire format. The input must be
/// exactly one encoded value: trailing bytes are rejected, as is any
/// truncated or malformed prefix.
pub fn decode<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut decoder = Decoder { bytes, pos: 0 };
    let value = T::deserialize(&mut decoder)?;
    if decoder.pos != bytes.len() {
        return Err(CodecError(format!(
            "{} trailing bytes after decoded value",
            bytes.len() - decoder.pos
        )));
    }
    Ok(value)
}

/// Error produced by the codec: unencodable values (oversized lengths,
/// enums with more than 255 variants) on the encode side, malformed or
/// truncated input on the decode side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl CodecError {
    /// Crate-internal constructor for framing-level errors that share this
    /// error type.
    pub(crate) fn msg(message: impl Into<String>) -> Self {
        CodecError(message.into())
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl ser::Error for CodecError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

/// Error type required by the `Serializer` trait; counting never fails.
#[derive(Debug)]
pub struct CountError(String);

impl std::fmt::Display for CountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CountError {}

impl ser::Error for CountError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        CountError(msg.to_string())
    }
}

struct ByteCounter {
    bytes: usize,
}

impl ByteCounter {
    fn add(&mut self, n: usize) {
        self.bytes += n;
    }
}

macro_rules! count_fixed {
    ($name:ident, $ty:ty, $n:expr) => {
        fn $name(self, _v: $ty) -> Result<(), CountError> {
            self.add($n);
            Ok(())
        }
    };
}

impl<'a> ser::Serializer for &'a mut ByteCounter {
    type Ok = ();
    type Error = CountError;
    type SerializeSeq = &'a mut ByteCounter;
    type SerializeTuple = &'a mut ByteCounter;
    type SerializeTupleStruct = &'a mut ByteCounter;
    type SerializeTupleVariant = &'a mut ByteCounter;
    type SerializeMap = &'a mut ByteCounter;
    type SerializeStruct = &'a mut ByteCounter;
    type SerializeStructVariant = &'a mut ByteCounter;

    count_fixed!(serialize_bool, bool, 1);
    count_fixed!(serialize_i8, i8, 1);
    count_fixed!(serialize_i16, i16, 2);
    count_fixed!(serialize_i32, i32, 4);
    count_fixed!(serialize_i64, i64, 8);
    count_fixed!(serialize_u8, u8, 1);
    count_fixed!(serialize_u16, u16, 2);
    count_fixed!(serialize_u32, u32, 4);
    count_fixed!(serialize_u64, u64, 8);
    count_fixed!(serialize_f32, f32, 4);
    count_fixed!(serialize_f64, f64, 8);
    count_fixed!(serialize_char, char, 4);

    fn serialize_str(self, v: &str) -> Result<(), CountError> {
        self.add(4 + v.len());
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), CountError> {
        self.add(4 + v.len());
        Ok(())
    }

    fn serialize_none(self) -> Result<(), CountError> {
        self.add(1);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CountError> {
        self.add(1);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), CountError> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CountError> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), CountError> {
        self.add(1);
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), CountError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), CountError> {
        self.add(1);
        value.serialize(self)
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Self::SerializeSeq, CountError> {
        self.add(4);
        Ok(self)
    }

    fn serialize_tuple(self, _len: usize) -> Result<Self::SerializeTuple, CountError> {
        Ok(self)
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleStruct, CountError> {
        Ok(self)
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleVariant, CountError> {
        self.add(1);
        Ok(self)
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Self::SerializeMap, CountError> {
        self.add(4);
        Ok(self)
    }

    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStruct, CountError> {
        Ok(self)
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStructVariant, CountError> {
        self.add(1);
        Ok(self)
    }
}

impl ser::SerializeSeq for &mut ByteCounter {
    type Ok = ();
    type Error = CountError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CountError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CountError> {
        Ok(())
    }
}

impl ser::SerializeTuple for &mut ByteCounter {
    type Ok = ();
    type Error = CountError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CountError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CountError> {
        Ok(())
    }
}

impl ser::SerializeTupleStruct for &mut ByteCounter {
    type Ok = ();
    type Error = CountError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CountError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CountError> {
        Ok(())
    }
}

impl ser::SerializeTupleVariant for &mut ByteCounter {
    type Ok = ();
    type Error = CountError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CountError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CountError> {
        Ok(())
    }
}

impl ser::SerializeMap for &mut ByteCounter {
    type Ok = ();
    type Error = CountError;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CountError> {
        key.serialize(&mut **self)
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CountError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CountError> {
        Ok(())
    }
}

impl ser::SerializeStruct for &mut ByteCounter {
    type Ok = ();
    type Error = CountError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CountError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CountError> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for &mut ByteCounter {
    type Ok = ();
    type Error = CountError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CountError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CountError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Encoder: the writing twin of ByteCounter.
// ---------------------------------------------------------------------------

struct Encoder<'a> {
    buf: &'a mut Vec<u8>,
}

impl Encoder<'_> {
    fn put_len(&mut self, len: usize, what: &str) -> Result<(), CodecError> {
        let len = u32::try_from(len)
            .map_err(|_| CodecError(format!("{what} length {len} exceeds u32")))?;
        self.buf.extend_from_slice(&len.to_le_bytes());
        Ok(())
    }

    fn put_variant(&mut self, index: u32) -> Result<(), CodecError> {
        let tag = u8::try_from(index)
            .map_err(|_| CodecError(format!("variant index {index} exceeds one byte")))?;
        self.buf.push(tag);
        Ok(())
    }
}

macro_rules! encode_fixed {
    ($name:ident, $ty:ty) => {
        fn $name(self, v: $ty) -> Result<(), CodecError> {
            self.buf.extend_from_slice(&v.to_le_bytes());
            Ok(())
        }
    };
}

impl<'a, 'b> ser::Serializer for &'a mut Encoder<'b> {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = &'a mut Encoder<'b>;
    type SerializeTuple = &'a mut Encoder<'b>;
    type SerializeTupleStruct = &'a mut Encoder<'b>;
    type SerializeTupleVariant = &'a mut Encoder<'b>;
    type SerializeMap = &'a mut Encoder<'b>;
    type SerializeStruct = &'a mut Encoder<'b>;
    type SerializeStructVariant = &'a mut Encoder<'b>;

    encode_fixed!(serialize_i8, i8);
    encode_fixed!(serialize_i16, i16);
    encode_fixed!(serialize_i32, i32);
    encode_fixed!(serialize_i64, i64);
    encode_fixed!(serialize_u8, u8);
    encode_fixed!(serialize_u16, u16);
    encode_fixed!(serialize_u32, u32);
    encode_fixed!(serialize_u64, u64);
    encode_fixed!(serialize_f32, f32);
    encode_fixed!(serialize_f64, f64);

    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.buf.push(u8::from(v));
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        self.buf.extend_from_slice(&(v as u32).to_le_bytes());
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.put_len(v.len(), "string")?;
        self.buf.extend_from_slice(v.as_bytes());
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        self.put_len(v.len(), "byte buffer")?;
        self.buf.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), CodecError> {
        self.buf.push(0);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CodecError> {
        self.buf.push(1);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CodecError> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), CodecError> {
        self.put_variant(variant_index)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.put_variant(variant_index)?;
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, CodecError> {
        let len = len.ok_or_else(|| CodecError("sequences must be length-prefixed".to_string()))?;
        self.put_len(len, "sequence")?;
        Ok(self)
    }

    fn serialize_tuple(self, _len: usize) -> Result<Self::SerializeTuple, CodecError> {
        Ok(self)
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleStruct, CodecError> {
        Ok(self)
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleVariant, CodecError> {
        self.put_variant(variant_index)?;
        Ok(self)
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, CodecError> {
        let len = len.ok_or_else(|| CodecError("maps must be length-prefixed".to_string()))?;
        self.put_len(len, "map")?;
        Ok(self)
    }

    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStruct, CodecError> {
        Ok(self)
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStructVariant, CodecError> {
        self.put_variant(variant_index)?;
        Ok(self)
    }
}

impl ser::SerializeSeq for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeTuple for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeTupleStruct for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeTupleVariant for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeMap for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CodecError> {
        key.serialize(&mut **self)
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeStruct for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Decoder: bounds-checked positional reads over a byte slice.
// ---------------------------------------------------------------------------

struct Decoder<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Decoder<'b> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'b [u8], CodecError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or_else(|| {
                CodecError(format!(
                    "truncated input: need {n} bytes at offset {}, {} remain",
                    self.pos,
                    self.remaining()
                ))
            })?;
        self.pos += n;
        Ok(slice)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.take(N)?
            .try_into()
            .map_err(|_| CodecError("internal: take() returned a wrong-sized slice".to_string()))
    }

    /// Reads a 4-byte length prefix, rejecting lengths that cannot possibly
    /// fit in the remaining input (each element occupies at least
    /// `min_element_bytes`). This bounds work on malformed frames.
    fn take_len(&mut self, min_element_bytes: usize, what: &str) -> Result<usize, CodecError> {
        let len = u32::from_le_bytes(self.take_array::<4>()?) as usize;
        if len.saturating_mul(min_element_bytes) > self.remaining() {
            return Err(CodecError(format!(
                "{what} length {len} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

macro_rules! decode_fixed {
    ($name:ident, $ty:ty, $n:expr) => {
        fn $name(&mut self) -> Result<$ty, CodecError> {
            Ok(<$ty>::from_le_bytes(self.take_array::<$n>()?))
        }
    };
}

impl<'de> Deserializer<'de> for Decoder<'_> {
    type Error = CodecError;

    decode_fixed!(read_i8, i8, 1);
    decode_fixed!(read_i16, i16, 2);
    decode_fixed!(read_i32, i32, 4);
    decode_fixed!(read_i64, i64, 8);
    decode_fixed!(read_u8, u8, 1);
    decode_fixed!(read_u16, u16, 2);
    decode_fixed!(read_u32, u32, 4);
    decode_fixed!(read_u64, u64, 8);
    decode_fixed!(read_f32, f32, 4);
    decode_fixed!(read_f64, f64, 8);

    fn read_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_array::<1>()?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError(format!("invalid bool byte {other:#04x}"))),
        }
    }

    fn read_char(&mut self) -> Result<char, CodecError> {
        let scalar = u32::from_le_bytes(self.take_array::<4>()?);
        char::from_u32(scalar).ok_or_else(|| CodecError(format!("invalid char scalar {scalar:#x}")))
    }

    fn read_string(&mut self) -> Result<String, CodecError> {
        let len = self.take_len(1, "string")?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError(format!("invalid UTF-8 in string: {e}")))
    }

    fn read_byte_buf(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.take_len(1, "byte buffer")?;
        Ok(self.take(len)?.to_vec())
    }

    fn read_option_tag(&mut self) -> Result<bool, CodecError> {
        match self.take_array::<1>()?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError(format!("invalid option tag {other:#04x}"))),
        }
    }

    fn read_seq_len(&mut self) -> Result<usize, CodecError> {
        // Elements of zero serialized size do not occur in this workspace's
        // message types, so requiring one byte per element is a safe bound.
        self.take_len(1, "sequence")
    }

    fn read_map_len(&mut self) -> Result<usize, CodecError> {
        self.take_len(2, "map")
    }

    fn read_variant_tag(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from(self.take_array::<1>()?[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Serialize)]
    struct Small {
        a: u32,
        b: bool,
    }

    #[derive(Serialize)]
    enum Kind {
        Unit,
        Payload { values: Vec<u64>, label: String },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Wire {
        id: u64,
        label: String,
        values: Vec<f64>,
        flag: Option<bool>,
        pair: (u32, i16),
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum WireKind {
        Empty,
        One(u32),
        Named { x: i64, tags: Vec<String> },
    }

    fn sample_wire() -> Wire {
        Wire {
            id: 42,
            label: "control-plane".to_string(),
            values: vec![1.5, -2.25, 0.0],
            flag: Some(true),
            pair: (7, -3),
        }
    }

    #[test]
    fn primitives_have_fixed_sizes() {
        assert_eq!(serialized_size(&7u64), 8);
        assert_eq!(serialized_size(&7u32), 4);
        assert_eq!(serialized_size(&true), 1);
        assert_eq!(serialized_size(&1.5f64), 8);
    }

    #[test]
    fn struct_size_is_sum_of_fields() {
        assert_eq!(serialized_size(&Small { a: 1, b: false }), 5);
    }

    #[test]
    fn sequences_and_strings_are_length_prefixed() {
        assert_eq!(serialized_size(&vec![1u64, 2, 3]), 4 + 24);
        assert_eq!(serialized_size("abc"), 4 + 3);
        assert_eq!(serialized_size(&Some(1u64)), 9);
        assert_eq!(serialized_size(&Option::<u64>::None), 1);
    }

    #[test]
    fn enum_variants_add_a_discriminant_byte() {
        assert_eq!(serialized_size(&Kind::Unit), 1);
        let k = Kind::Payload {
            values: vec![1, 2],
            label: "x".to_string(),
        };
        assert_eq!(serialized_size(&k), 1 + 4 + 16 + 4 + 1);
    }

    #[test]
    fn core_types_serialize() {
        let cmd = nimbus_core::Command::new(
            nimbus_core::CommandId(1),
            nimbus_core::CommandKind::DestroyData {
                object: nimbus_core::PhysicalObjectId(4),
            },
        );
        assert!(serialized_size(&cmd) > 8);
    }

    #[test]
    fn encode_matches_serialized_size() {
        let w = sample_wire();
        assert_eq!(encode(&w).unwrap().len(), serialized_size(&w));
        let k = WireKind::Named {
            x: -9,
            tags: vec!["a".to_string(), "bb".to_string()],
        };
        assert_eq!(encode(&k).unwrap().len(), serialized_size(&k));
    }

    #[test]
    fn struct_and_enum_roundtrip() {
        let w = sample_wire();
        assert_eq!(decode::<Wire>(&encode(&w).unwrap()).unwrap(), w);
        for k in [
            WireKind::Empty,
            WireKind::One(3),
            WireKind::Named {
                x: i64::MIN,
                tags: vec!["ß∂ƒ".to_string()],
            },
        ] {
            assert_eq!(decode::<WireKind>(&encode(&k).unwrap()).unwrap(), k);
        }
    }

    #[test]
    fn core_command_roundtrips() {
        let cmd = nimbus_core::Command::new(
            nimbus_core::CommandId(9),
            nimbus_core::CommandKind::SaveData {
                object: nimbus_core::PhysicalObjectId(4),
                key: "ckpt/1/2/3".to_string(),
            },
        )
        .with_before(vec![nimbus_core::CommandId(5)]);
        let bytes = encode(&cmd).unwrap();
        assert_eq!(bytes.len(), serialized_size(&cmd));
        assert_eq!(decode::<nimbus_core::Command>(&bytes).unwrap(), cmd);
    }

    #[test]
    fn truncated_input_is_rejected_not_panicking() {
        let w = sample_wire();
        let bytes = encode(&w).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode::<Wire>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn encode_framed_is_encode_with_a_length_header() {
        let w = sample_wire();
        let plain = encode(&w).unwrap();
        let framed = encode_framed(&w).unwrap();
        assert_eq!(&framed[..4], (plain.len() as u32).to_le_bytes());
        assert_eq!(&framed[4..], plain);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&7u64).unwrap();
        bytes.push(0);
        assert!(decode::<u64>(&bytes).is_err());
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        // Invalid variant tag.
        assert!(decode::<WireKind>(&[200]).is_err());
        // Sequence length far beyond the remaining input.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&8u64.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes()); // claims 4-byte string "xxxx"
        bytes.extend_from_slice(&[0xff, 0xfe, 0x00, 0x01]);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd vec length
        assert!(decode::<Wire>(&bytes).is_err());
        // Invalid UTF-8 string contents.
        let mut s = Vec::new();
        s.extend_from_slice(&2u32.to_le_bytes());
        s.extend_from_slice(&[0xff, 0xff]);
        assert!(decode::<String>(&s).is_err());
        // Invalid bool / option tags.
        assert!(decode::<bool>(&[7]).is_err());
        assert!(decode::<Option<u8>>(&[9, 0]).is_err());
    }
}
