//! A compact binary serde format for synopsis shipping.
//!
//! Non-self-describing (like bincode): values are encoded in declaration
//! order with little-endian fixed-width numbers, `u64` length prefixes for
//! sequences/strings/maps, a one-byte tag for `Option`, and a `u32`
//! variant index for enums. Written from scratch so the workspace stays
//! within its sanctioned dependency set; supports exactly the serde data
//! model subset our types use (no `deserialize_any`).

use serde::de::{self, DeserializeOwned, IntoDeserializer};
use serde::{ser, Serialize};
use std::fmt;

/// Encode `value` into a byte vector.
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(128);
    encode_into(value, &mut out)?;
    Ok(out)
}

/// Encode `value`, appending to `out`.
pub fn encode_into<T: Serialize>(value: &T, out: &mut Vec<u8>) -> Result<(), CodecError> {
    value.serialize(&mut Encoder { out })
}

/// Decode a value of type `T` from `bytes`, requiring all input consumed.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut d = Decoder { input: bytes };
    let v = T::deserialize(&mut d)?;
    if !d.input.is_empty() {
        return Err(CodecError::TrailingBytes(d.input.len()));
    }
    Ok(v)
}

/// Codec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Eof,
    /// Input had bytes left after the value.
    TrailingBytes(usize),
    /// A length prefix exceeded the remaining input (corrupt or hostile).
    BadLength(u64),
    /// Invalid byte where a bool/Option tag was expected.
    BadTag(u8),
    /// Invalid UTF-8 in a string.
    BadUtf8,
    /// The type used a serde feature this compact format does not encode.
    Unsupported(&'static str),
    /// Error propagated from a Serialize/Deserialize impl.
    Message(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::BadLength(n) => write!(f, "length prefix {n} exceeds input"),
            CodecError::BadTag(b) => write!(f, "invalid tag byte {b:#x}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::Unsupported(what) => write!(f, "unsupported serde feature: {what}"),
            CodecError::Message(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl ser::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Message(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Message(msg.to_string())
    }
}

// ---------------------------------------------------------------- encoder

struct Encoder<'a> {
    out: &'a mut Vec<u8>,
}

impl Encoder<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }
}

impl<'a, 'b> ser::Serializer for &'a mut Encoder<'b> {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.put(&[v as u8]);
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), CodecError> {
        self.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i16(self, v: i16) -> Result<(), CodecError> {
        self.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> Result<(), CodecError> {
        self.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<(), CodecError> {
        self.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), CodecError> {
        self.put(&[v]);
        Ok(())
    }
    fn serialize_u16(self, v: u16) -> Result<(), CodecError> {
        self.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u32(self, v: u32) -> Result<(), CodecError> {
        self.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<(), CodecError> {
        self.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), CodecError> {
        self.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), CodecError> {
        self.put(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        self.serialize_u32(v as u32)
    }
    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.serialize_u64(v.len() as u64)?;
        self.put(v.as_bytes());
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        self.serialize_u64(v.len() as u64)?;
        self.put(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<(), CodecError> {
        self.put(&[0]);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, v: &T) -> Result<(), CodecError> {
        self.put(&[1]);
        v.serialize(self)
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
        self.serialize_u32(variant_index)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        v: &T,
    ) -> Result<(), CodecError> {
        v.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        v: &T,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)?;
        v.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or(CodecError::Unsupported("unsized sequence"))?;
        self.put(&(len as u64).to_le_bytes());
        Ok(self)
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.put(&variant_index.to_le_bytes());
        Ok(self)
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or(CodecError::Unsupported("unsized map"))?;
        self.put(&(len as u64).to_le_bytes());
        Ok(self)
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.put(&variant_index.to_le_bytes());
        Ok(self)
    }
}

macro_rules! forward_compound {
    ($trait:path, $method:ident $(, $key:ident)?) => {
        impl<'a, 'b> $trait for &'a mut Encoder<'b> {
            type Ok = ();
            type Error = CodecError;
            $(fn $key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CodecError> {
                key.serialize(&mut **self)
            })?
            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), CodecError> {
                Ok(())
            }
        }
    };
}

forward_compound!(ser::SerializeSeq, serialize_element);
forward_compound!(ser::SerializeTuple, serialize_element);
forward_compound!(ser::SerializeTupleStruct, serialize_field);
forward_compound!(ser::SerializeTupleVariant, serialize_field);
forward_compound!(ser::SerializeMap, serialize_value, serialize_key);

impl<'a, 'b> ser::SerializeStruct for &'a mut Encoder<'b> {
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

impl<'a, 'b> ser::SerializeStructVariant for &'a mut Encoder<'b> {
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

// ---------------------------------------------------------------- decoder

struct Decoder<'de> {
    input: &'de [u8],
}

impl<'de> Decoder<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError::Eof);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.take(N)?.try_into().map_err(|_| CodecError::Eof)
    }

    fn read_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    fn read_len(&mut self) -> Result<usize, CodecError> {
        let n = self.read_u64()?;
        // Each encoded element needs at least one byte only for some
        // types; use a loose sanity bound to reject hostile prefixes.
        if n > (self.input.len() as u64).saturating_mul(64) + 1_000_000 {
            return Err(CodecError::BadLength(n));
        }
        Ok(n as usize)
    }
}

macro_rules! decode_num {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
            let v = <$ty>::from_le_bytes(self.take_array()?);
            visitor.$visit(v)
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Decoder<'de> {
    type Error = CodecError;

    fn deserialize_any<V: de::Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Unsupported("deserialize_any"))
    }

    fn deserialize_bool<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(CodecError::BadTag(b)),
        }
    }

    decode_num!(deserialize_i8, visit_i8, i8);
    decode_num!(deserialize_i16, visit_i16, i16);
    decode_num!(deserialize_i32, visit_i32, i32);
    decode_num!(deserialize_i64, visit_i64, i64);
    decode_num!(deserialize_u16, visit_u16, u16);
    decode_num!(deserialize_u32, visit_u32, u32);
    decode_num!(deserialize_u64, visit_u64, u64);
    decode_num!(deserialize_f32, visit_f32, f32);
    decode_num!(deserialize_f64, visit_f64, f64);

    fn deserialize_u8<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_u8(self.take(1)?[0])
    }

    fn deserialize_char<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let v = u32::from_le_bytes(self.take_array()?);
        visitor.visit_char(char::from_u32(v).ok_or(CodecError::BadTag(0))?)
    }

    fn deserialize_str<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        let bytes = self.take(len)?;
        visitor.visit_borrowed_str(std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?)
    }

    fn deserialize_string<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(CodecError::BadTag(b)),
        }
    }

    fn deserialize_unit<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: de::Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: de::Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        visitor.visit_seq(Counted { de: self, left: len })
    }

    fn deserialize_tuple<V: de::Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_seq(Counted { de: self, left: len })
    }

    fn deserialize_tuple_struct<V: de::Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        visitor.visit_map(Counted { de: self, left: len })
    }

    fn deserialize_struct<V: de::Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_seq(Counted {
            de: self,
            left: fields.len(),
        })
    }

    fn deserialize_enum<V: de::Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_enum(Variant { de: self })
    }

    fn deserialize_identifier<V: de::Visitor<'de>>(
        self,
        _visitor: V,
    ) -> Result<V::Value, CodecError> {
        Err(CodecError::Unsupported("identifier"))
    }

    fn deserialize_ignored_any<V: de::Visitor<'de>>(
        self,
        _visitor: V,
    ) -> Result<V::Value, CodecError> {
        Err(CodecError::Unsupported("ignored_any"))
    }
}

struct Counted<'a, 'de> {
    de: &'a mut Decoder<'de>,
    left: usize,
}

impl<'de> de::SeqAccess<'de> for Counted<'_, 'de> {
    type Error = CodecError;
    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, CodecError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

impl<'de> de::MapAccess<'de> for Counted<'_, 'de> {
    type Error = CodecError;
    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, CodecError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

struct Variant<'a, 'de> {
    de: &'a mut Decoder<'de>,
}

impl<'de> de::EnumAccess<'de> for Variant<'_, 'de> {
    type Error = CodecError;
    type Variant = Self;
    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), CodecError> {
        let index = u32::from_le_bytes(self.de.take_array()?);
        let value = seed.deserialize(index.into_deserializer())?;
        Ok((value, self))
    }
}

impl<'de> de::VariantAccess<'de> for Variant<'_, 'de> {
    type Error = CodecError;
    fn unit_variant(self) -> Result<(), CodecError> {
        Ok(())
    }
    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, CodecError> {
        seed.deserialize(self.de)
    }
    fn tuple_variant<V: de::Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }
    fn struct_variant<V: de::Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

// Convenience alias so callers can round-trip any synopsis type.
/// Re-export: round-trip helper for tests.
pub fn round_trip<T: Serialize + DeserializeOwned>(value: &T) -> Result<T, CodecError> {
    from_bytes(&to_bytes(value)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    #[derive(Debug, Serialize, Deserialize, PartialEq)]
    enum Kind {
        Unit,
        Newtype(u32),
        Tuple(u8, i64),
        Struct { a: bool, b: String },
    }

    #[derive(Debug, Serialize, Deserialize, PartialEq)]
    struct Everything {
        flag: bool,
        small: u8,
        neg: i64,
        real: f64,
        text: String,
        list: Vec<u64>,
        map: BTreeMap<u32, String>,
        opt_some: Option<u16>,
        opt_none: Option<u16>,
        kind: Vec<Kind>,
        pair: (u8, u8),
    }

    fn sample() -> Everything {
        Everything {
            flag: true,
            small: 7,
            neg: -123456789,
            real: 3.5,
            text: "héllo".into(),
            list: vec![1, 2, 3, u64::MAX],
            map: [(1, "one".to_string()), (2, "two".to_string())].into(),
            opt_some: Some(99),
            opt_none: None,
            kind: vec![
                Kind::Unit,
                Kind::Newtype(5),
                Kind::Tuple(1, -2),
                Kind::Struct {
                    a: false,
                    b: "x".into(),
                },
            ],
            pair: (9, 10),
        }
    }

    #[test]
    fn full_round_trip() {
        let v = sample();
        let back = round_trip(&v).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn primitives_round_trip() {
        assert!(round_trip(&true).unwrap());
        assert_eq!(round_trip(&u64::MAX).unwrap(), u64::MAX);
        assert_eq!(round_trip(&i64::MIN).unwrap(), i64::MIN);
        assert_eq!(round_trip(&-0.0f64).unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(round_trip(&"".to_string()).unwrap(), "");
        assert_eq!(round_trip(&Vec::<u8>::new()).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncated_input_is_eof() {
        let bytes = to_bytes(&sample()).unwrap();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let r: Result<Everything, _> = from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&42u32).unwrap();
        bytes.push(0);
        let r: Result<u32, _> = from_bytes(&bytes);
        assert_eq!(r, Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // A seq claiming u64::MAX elements must not allocate.
        let bytes = u64::MAX.to_le_bytes().to_vec();
        let r: Result<Vec<u64>, _> = from_bytes(&bytes);
        assert!(matches!(r, Err(CodecError::BadLength(_)) | Err(CodecError::Eof)));
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let r: Result<bool, _> = from_bytes(&[7]);
        assert_eq!(r, Err(CodecError::BadTag(7)));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut bytes = 2u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let r: Result<String, _> = from_bytes(&bytes);
        assert_eq!(r, Err(CodecError::BadUtf8));
    }

    #[test]
    fn encoding_is_compact() {
        // A Vec<i64> of length n costs exactly 8 + 8n bytes.
        let v: Vec<i64> = (0..100).collect();
        assert_eq!(to_bytes(&v).unwrap().len(), 8 + 800);
    }

    #[test]
    fn sketch_types_round_trip() {
        use setstream_core::{SketchConfig, TwoLevelSketch};
        let mut s = TwoLevelSketch::new(
            SketchConfig {
                levels: 8,
                second_level: 4,
                ..Default::default()
            },
            42,
        );
        for e in 0..500u64 {
            s.insert(e);
        }
        s.delete(3);
        let back: TwoLevelSketch = round_trip(&s).unwrap();
        assert_eq!(back.counters(), s.counters());
        assert_eq!(back.seed(), s.seed());
        assert_eq!(back.config(), s.config());
        // Behavioral check: the reconstructed hash functions agree.
        let mut a = s.clone();
        let mut b = back.clone();
        a.insert(777);
        b.insert(777);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn bit_sketch_and_baselines_round_trip() {
        use setstream_baselines::{BottomKSketch, FmEstimator, MinwiseSignature};
        use setstream_core::{BitSketch, SketchConfig};

        let mut bits = BitSketch::new(SketchConfig::default(), 3);
        bits.insert(10);
        let back: BitSketch = round_trip(&bits).unwrap();
        assert!(back.cell(bits.bucket_of(10), 0, 0) || back.cell(bits.bucket_of(10), 0, 1));

        let mut fm = FmEstimator::new(8, 1);
        fm.insert(5);
        let fm2: FmEstimator = round_trip(&fm).unwrap();
        assert_eq!(fm.bit_sketches(), fm2.bit_sketches());

        let mut mw = MinwiseSignature::new(4, 3);
        mw.insert(11);
        let mw2: MinwiseSignature = round_trip(&mw).unwrap();
        assert_eq!(mw.jaccard(&mw2), 1.0);

        let mut bk = BottomKSketch::new(4, 4);
        bk.insert(12);
        let bk2: BottomKSketch = round_trip(&bk).unwrap();
        assert_eq!(
            bk.sample().collect::<Vec<_>>(),
            bk2.sample().collect::<Vec<_>>()
        );
    }

    #[test]
    fn hostile_bit_sketch_payloads_are_refused() {
        use setstream_core::{BitSketch, SketchConfig};

        /// `BitSketch`'s wire form.
        #[derive(Serialize)]
        struct Repr {
            config: SketchConfig,
            seed: u64,
            words: Vec<u64>,
        }
        let config = SketchConfig::default();
        let good = to_bytes(&Repr { config, seed: 3, words: vec![0; 64] }).unwrap();
        assert!(from_bytes::<BitSketch>(&good).is_ok());
        // Three words where the shape needs 64.
        let short = to_bytes(&Repr { config, seed: 3, words: vec![0; 3] }).unwrap();
        let err = from_bytes::<BitSketch>(&short).unwrap_err();
        assert!(matches!(&err, CodecError::Message(m) if m.contains("3 words")), "{err:?}");
        // An impossible shape.
        let flat = SketchConfig { levels: 0, ..config };
        let zero = to_bytes(&Repr { config: flat, seed: 3, words: vec![] }).unwrap();
        let err = from_bytes::<BitSketch>(&zero).unwrap_err();
        assert!(matches!(&err, CodecError::Message(m) if m.contains("levels")), "{err:?}");
    }
}
