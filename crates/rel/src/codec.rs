//! Fixed-width record encoding of tuples.
//!
//! The paper's storage substrate is record-oriented: relations live in
//! extent-based files of fixed-width binary records (8-byte divisor and
//! quotient records, 16-byte dividend records). [`RecordCodec`] converts
//! between [`Tuple`]s and those byte records according to a [`Schema`].
//!
//! Integers are encoded little-endian in 8 bytes; strings are zero-padded
//! to their declared fixed width (embedded NUL bytes are therefore not
//! representable, which the encoder rejects).

use bytes::{Buf, BufMut};

use crate::error::RelError;
use crate::schema::{ColumnType, Schema};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// Encoder/decoder for fixed-width records of one schema.
#[derive(Debug, Clone)]
pub struct RecordCodec {
    schema: Schema,
}

impl RecordCodec {
    /// Creates a codec for `schema`.
    pub fn new(schema: Schema) -> Self {
        RecordCodec { schema }
    }

    /// The codec's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Encoded record size in bytes.
    pub fn record_width(&self) -> usize {
        self.schema.record_width()
    }

    /// Encodes `tuple` into a fresh byte vector.
    pub fn encode(&self, tuple: &Tuple) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.record_width());
        self.encode_into(tuple, &mut out)?;
        Ok(out)
    }

    /// Encodes `tuple`, appending to `out`.
    pub fn encode_into(&self, tuple: &Tuple, out: &mut Vec<u8>) -> Result<()> {
        self.schema.validate(tuple.values())?;
        for (i, (field, value)) in self.schema.fields().iter().zip(tuple.values()).enumerate() {
            match (&field.ty, value) {
                (ColumnType::Int, Value::Int(v)) => out.put_i64_le(*v),
                (ColumnType::Str(w), Value::Str(s)) => {
                    if s.as_bytes().contains(&0) {
                        return Err(embedded_nul(i));
                    }
                    out.put_slice(s.as_bytes());
                    out.put_bytes(0, w - s.len());
                }
                // validate() above guarantees type agreement.
                _ => unreachable!("schema validation admitted a mismatched value"),
            }
        }
        Ok(())
    }

    /// Decodes one record from the front of `bytes`.
    pub fn decode(&self, mut bytes: &[u8]) -> Result<Tuple> {
        check_width(&self.schema, bytes)?;
        let mut values = Vec::with_capacity(self.schema.arity());
        for field in self.schema.fields() {
            match field.ty {
                ColumnType::Int => values.push(Value::Int(bytes.get_i64_le())),
                ColumnType::Str(w) => {
                    values.push(Value::Str(str_field(&bytes[..w])?.to_owned()));
                    bytes.advance(w);
                }
            }
        }
        Ok(Tuple::new(values))
    }
}

#[cold]
pub(crate) fn embedded_nul(column: usize) -> RelError {
    RelError::Decode(format!(
        "column {column}: embedded NUL not representable in fixed-width string"
    ))
}

/// Checks that `tuple` has a record of `schema` — what
/// [`RecordCodec::encode_into`] checks (inline, in its one pass over the
/// values), without writing the record.
pub(crate) fn check_tuple(schema: &Schema, tuple: &Tuple) -> Result<()> {
    schema.validate(tuple.values())?;
    for (i, value) in tuple.values().iter().enumerate() {
        if matches!(value, Value::Str(s) if s.as_bytes().contains(&0)) {
            return Err(embedded_nul(i));
        }
    }
    Ok(())
}

/// Rejects a byte string too short to hold one record of `schema`.
pub(crate) fn check_width(schema: &Schema, bytes: &[u8]) -> Result<()> {
    let need = schema.record_width();
    if bytes.len() < need {
        return Err(RelError::Decode(format!(
            "record truncated: need {need} bytes, have {}",
            bytes.len()
        )));
    }
    Ok(())
}

/// The string a zero-padded fixed-width field holds.
pub(crate) fn str_field(raw: &[u8]) -> Result<&str> {
    let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
    std::str::from_utf8(&raw[..end]).map_err(|e| RelError::Decode(format!("invalid UTF-8: {e}")))
}

/// Encodes the columns `cols` of `tuple` as an **order-preserving** byte
/// string: byte-wise comparison of two encodings orders exactly like
/// [`Tuple::cmp_keys`] on the same columns.
///
/// This is the key format for B+-tree indexes: equality search needs only
/// injectivity, range scans need order preservation.
///
/// * `Int(v)`: tag `0x01`, then `v` with the sign bit flipped, big-endian
///   (so negative values order before positive ones byte-wise),
/// * `Str(s)`: tag `0x02`, then the bytes, then a `0x00` terminator
///   (strings containing NUL are not representable, matching the
///   fixed-width codec's restriction).
pub fn index_key(tuple: &Tuple, cols: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(cols.len() * 9);
    for &c in cols {
        match tuple.value(c) {
            Value::Int(v) => {
                out.push(0x01);
                out.extend_from_slice(&((*v as u64) ^ (1 << 63)).to_be_bytes());
            }
            Value::Str(s) => {
                out.push(0x02);
                out.extend_from_slice(s.as_bytes());
                out.push(0x00);
            }
        }
    }
    out
}

/// The **normalized sort key** of one schema's fixed-width records on a
/// key-column list: a byte string read straight off a record, whose
/// byte-wise order is [`Tuple::cmp_keys`]'s on the same columns, so a sort
/// never decodes a value. An `Int` is its sign-flipped big-endian bytes
/// ([`index_key`]'s transformation; no tag, all keys share one layout); a
/// string is its zero-padded field as stored (a record holds no embedded
/// NUL, so the padding sorts a prefix first).
#[derive(Debug, Clone)]
pub struct RecordKey {
    /// `(offset in the record, width, is an Int)` of each key column.
    parts: Vec<(usize, usize, bool)>,
    width: usize,
}

impl RecordKey {
    /// The key of `schema`'s records on `keys` (major to minor).
    pub fn new(schema: &Schema, keys: &[usize]) -> RecordKey {
        let parts: Vec<_> = keys
            .iter()
            .map(|&k| {
                let ty = schema.fields()[k].ty;
                (schema.column_offset(k), ty.width(), ty == ColumnType::Int)
            })
            .collect();
        let width = parts.iter().map(|p| p.1).sum();
        RecordKey { parts, width }
    }

    /// Bytes per key.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Writes `record`'s key into `out`, [`RecordKey::width`] bytes long.
    #[inline]
    pub fn write(&self, record: &[u8], out: &mut [u8]) {
        let mut at = 0;
        for &(offset, width, int) in &self.parts {
            let (field, slot) = (&record[offset..offset + width], &mut out[at..at + width]);
            if int {
                let v = u64::from_le_bytes(field.try_into().expect("an Int field is 8 bytes"));
                slot.copy_from_slice(&(v ^ (1 << 63)).to_be_bytes());
            } else {
                slot.copy_from_slice(field);
            }
            at += width;
        }
    }

    /// A key of at most 16 bytes as one integer that orders like its bytes.
    #[inline]
    pub fn packed(&self, record: &[u8]) -> u128 {
        let mut bytes = [0u8; 16];
        self.write(record, &mut bytes[..self.width]);
        u128::from_be_bytes(bytes)
    }

    /// Whether two records agree on every key column.
    #[inline]
    pub fn same(&self, a: &[u8], b: &[u8]) -> bool {
        self.parts
            .iter()
            .all(|&(offset, width, _)| a[offset..offset + width] == b[offset..offset + width])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::tuple::ints;

    #[test]
    fn record_keys_order_like_cmp_keys() {
        let schema = Schema::new(vec![
            Field::str("s", 4),
            Field::int("i"),
            Field::int("payload"),
        ]);
        let codec = RecordCodec::new(schema.clone());
        let mut rows = Vec::new();
        for s in ["", "a", "ab", "abc", "b", "é"] {
            for i in [i64::MIN, -5, -1, 0, 1, i64::MAX] {
                rows.push(Tuple::new(vec![
                    Value::from(s),
                    Value::Int(i),
                    Value::Int(7),
                ]));
            }
        }
        for keys in [vec![0usize, 1], vec![1, 0], vec![1], vec![0]] {
            let key = RecordKey::new(&schema, &keys);
            assert_eq!(key.width(), keys.iter().map(|&k| [4, 8][k]).sum::<usize>());
            let encoded: Vec<(Vec<u8>, Vec<u8>)> = rows
                .iter()
                .map(|t| {
                    let record = codec.encode(t).unwrap();
                    let mut k = vec![0; key.width()];
                    key.write(&record, &mut k);
                    (record, k)
                })
                .collect();
            for (a, (ra, ka)) in rows.iter().zip(&encoded) {
                for (b, (rb, kb)) in rows.iter().zip(&encoded) {
                    let want = a.cmp_keys(b, &keys);
                    assert_eq!(ka.cmp(kb), want, "{a} vs {b} on {keys:?}");
                    assert_eq!(key.packed(ra).cmp(&key.packed(rb)), want);
                    assert_eq!(key.same(ra, rb), want == std::cmp::Ordering::Equal);
                }
            }
        }
    }

    #[test]
    fn index_key_preserves_integer_order() {
        let values = [i64::MIN, -5, -1, 0, 1, 42, i64::MAX];
        let keys: Vec<Vec<u8>> = values
            .iter()
            .map(|&v| index_key(&ints(&[v]), &[0]))
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "byte order must match numeric order");
        }
    }

    #[test]
    fn index_key_preserves_string_order_and_is_prefix_free() {
        let a = Tuple::new(vec![Value::from("ab"), Value::Int(0)]);
        let b = Tuple::new(vec![Value::from("abc"), Value::Int(0)]);
        let ka = index_key(&a, &[0, 1]);
        let kb = index_key(&b, &[0, 1]);
        assert!(ka < kb);
        // The terminator keeps ("ab", big-int) from colliding with
        // ("abc", ...) prefixes.
        assert!(!kb.starts_with(&ka));
    }

    #[test]
    fn index_key_is_injective_across_types() {
        let i = index_key(&Tuple::new(vec![Value::Int(0x61)]), &[0]);
        let s = index_key(&Tuple::new(vec![Value::from("a")]), &[0]);
        assert_ne!(i, s, "type tags keep Int(0x61) and \"a\" apart");
    }

    #[test]
    fn index_key_respects_column_selection_and_order() {
        let t = ints(&[7, 8]);
        assert_ne!(index_key(&t, &[0, 1]), index_key(&t, &[1, 0]));
        assert_eq!(index_key(&t, &[1]), index_key(&ints(&[99, 8]), &[1]));
    }

    fn codec(fields: Vec<Field>) -> RecordCodec {
        RecordCodec::new(Schema::new(fields))
    }

    #[test]
    fn int_roundtrip_is_exact_and_16_bytes() {
        let c = codec(vec![Field::int("student-id"), Field::int("course-no")]);
        assert_eq!(c.record_width(), 16);
        let t = ints(&[i64::MIN, i64::MAX]);
        let bytes = c.encode(&t).unwrap();
        assert_eq!(bytes.len(), 16);
        assert_eq!(c.decode(&bytes).unwrap(), t);
    }

    #[test]
    fn string_roundtrip_pads_and_trims() {
        let c = codec(vec![Field::str("title", 10)]);
        let t = Tuple::new(vec![Value::from("db")]);
        let bytes = c.encode(&t).unwrap();
        assert_eq!(bytes.len(), 10);
        assert_eq!(&bytes[..2], b"db");
        assert!(bytes[2..].iter().all(|&b| b == 0));
        assert_eq!(c.decode(&bytes).unwrap(), t);
    }

    #[test]
    fn full_width_string_roundtrips_without_terminator() {
        let c = codec(vec![Field::str("s", 3)]);
        let t = Tuple::new(vec![Value::from("abc")]);
        let bytes = c.encode(&t).unwrap();
        assert_eq!(c.decode(&bytes).unwrap(), t);
    }

    #[test]
    fn mixed_schema_roundtrip() {
        let c = codec(vec![
            Field::int("id"),
            Field::str("name", 6),
            Field::int("x"),
        ]);
        let t = Tuple::new(vec![Value::Int(7), Value::from("ann"), Value::Int(-1)]);
        let bytes = c.encode(&t).unwrap();
        assert_eq!(bytes.len(), 22);
        assert_eq!(c.decode(&bytes).unwrap(), t);
    }

    #[test]
    fn decode_rejects_truncated_records() {
        let c = codec(vec![Field::int("id")]);
        assert!(matches!(c.decode(&[0u8; 4]), Err(RelError::Decode(_))));
    }

    #[test]
    fn encode_rejects_oversized_strings_and_type_mismatch() {
        let c = codec(vec![Field::str("s", 2)]);
        assert!(matches!(
            c.encode(&Tuple::new(vec![Value::from("abc")])),
            Err(RelError::StringTooLong { .. })
        ));
        assert!(matches!(
            c.encode(&ints(&[1])),
            Err(RelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn encode_rejects_embedded_nul() {
        let c = codec(vec![Field::str("s", 4)]);
        let t = Tuple::new(vec![Value::from("a\0b")]);
        assert!(matches!(c.encode(&t), Err(RelError::Decode(_))));
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let c = codec(vec![Field::str("s", 2)]);
        assert!(matches!(c.decode(&[0xff, 0xfe]), Err(RelError::Decode(_))));
    }
}
