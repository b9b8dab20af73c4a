//! The frame payload codec: one serde [`Value`] in a compact binary form,
//! read through the bounded [`vine_core::wire::Reader`].
//!
//! A payload is the magic `VFR1` followed by one value. A value is a tag
//! byte and a body:
//!
//! | tag | value   | body                                            |
//! |-----|---------|-------------------------------------------------|
//! | 0   | `Null`  | —                                               |
//! | 1/2 | `Bool`  | — (false/true)                                  |
//! | 3   | `I64`   | zigzag varint                                   |
//! | 4   | `U64`   | varint                                          |
//! | 5   | `U128`  | 16 bytes LE (content hashes: varints only grow) |
//! | 6   | `F64`   | 8 bytes LE                                      |
//! | 7   | `Str`   | varint length, UTF-8 bytes                      |
//! | 8   | `Bytes` | varint length, raw bytes                        |
//! | 9   | `Seq`   | varint count, values                            |
//! | 10  | `Map`   | varint count, key/value pairs                   |
//!
//! Varints are LEB128. Byte fields travel raw, so a frame is its payload
//! plus a few bytes per field. Decoding shares the reader's limits with
//! `VPK2` and `VBC2`: sequences and maps spend the one nesting budget,
//! and counts and lengths are checked against the bytes left before
//! anything is reserved.

use serde::Value;
use vine_core::wire::{Reader, Writer};
use vine_core::Result;

/// The payload magic. A JSON-era peer's frame fails on it instead of being
/// misread.
pub const MAGIC: &[u8; 4] = b"VFR1";

mod tag {
    pub const NULL: u8 = 0;
    pub const FALSE: u8 = 1;
    pub const TRUE: u8 = 2;
    pub const I64: u8 = 3;
    pub const U64: u8 = 4;
    pub const U128: u8 = 5;
    pub const F64: u8 = 6;
    pub const STR: u8 = 7;
    pub const BYTES: u8 = 8;
    pub const SEQ: u8 = 9;
    pub const MAP: u8 = 10;
}

pub(crate) fn write_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.u8(tag::NULL),
        Value::Bool(false) => w.u8(tag::FALSE),
        Value::Bool(true) => w.u8(tag::TRUE),
        Value::I64(n) => {
            w.u8(tag::I64);
            w.zigzag(*n);
        }
        Value::U64(n) => {
            w.u8(tag::U64);
            w.varint(*n);
        }
        Value::U128(n) => {
            w.u8(tag::U128);
            w.u128(*n);
        }
        Value::F64(x) => {
            w.u8(tag::F64);
            w.f64(*x);
        }
        Value::Str(s) => {
            w.u8(tag::STR);
            w.varint(s.len() as u64);
            w.raw(s.as_bytes());
        }
        Value::Bytes(b) => {
            w.u8(tag::BYTES);
            w.varint(b.len() as u64);
            w.raw(b);
        }
        Value::Seq(items) => {
            w.u8(tag::SEQ);
            w.varint(items.len() as u64);
            for item in items {
                write_value(w, item);
            }
        }
        Value::Map(entries) => {
            w.u8(tag::MAP);
            w.varint(entries.len() as u64);
            for (k, val) in entries {
                write_value(w, k);
                write_value(w, val);
            }
        }
    }
}

pub(crate) fn read_value(r: &mut Reader) -> Result<Value> {
    Ok(match r.u8()? {
        tag::NULL => Value::Null,
        tag::FALSE => Value::Bool(false),
        tag::TRUE => Value::Bool(true),
        tag::I64 => Value::I64(r.zigzag()?),
        tag::U64 => Value::U64(r.varint()?),
        tag::U128 => Value::U128(r.u128()?),
        tag::F64 => Value::F64(r.f64()?),
        tag::STR => {
            let n = r.varint_len()?;
            let bytes = r.take(n)?;
            let s = std::str::from_utf8(bytes).map_err(|_| r.err("invalid utf-8 in string"))?;
            Value::Str(s.to_owned())
        }
        tag::BYTES => {
            let n = r.varint_len()?;
            Value::Bytes(r.take(n)?.to_vec())
        }
        tag::SEQ => {
            let n = r.varint_len()?;
            r.descend()?;
            let items = r.items(n, read_value)?;
            r.ascend();
            Value::Seq(items)
        }
        tag::MAP => {
            let n = r.varint_len()?;
            r.descend()?;
            let entries = r.items(n, |r| Ok((read_value(r)?, read_value(r)?)))?;
            r.ascend();
            Value::Map(entries)
        }
        other => return Err(r.err(format!("unknown value tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let mut w = Writer::new(MAGIC);
        write_value(&mut w, v);
        let mut r = Reader::new(&w.buf, MAGIC).unwrap();
        let back = read_value(&mut r).unwrap();
        r.finish().unwrap();
        back
    }

    #[test]
    fn every_variant_round_trips_exactly() {
        let v = Value::Seq(vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::I64(0),
            Value::I64(-1),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::U64(u64::MAX),
            Value::U128(u128::MAX - 3),
            Value::F64(-0.0),
            Value::F64(f64::NAN),
            Value::Str("hé\n".into()),
            Value::Bytes(vec![0, 255, 7]),
            Value::Bytes(vec![]),
            Value::Map(vec![(Value::U64(1), Value::Seq(vec![]))]),
        ]);
        let back = roundtrip(&v);
        // NaN != NaN, so compare the encodings
        let enc = |v: &Value| {
            let mut w = Writer::new(MAGIC);
            write_value(&mut w, v);
            w.buf
        };
        assert_eq!(enc(&back), enc(&v));
        assert_eq!(roundtrip(&Value::I64(-5)), Value::I64(-5));
    }

    #[test]
    fn small_integers_and_byte_fields_are_compact() {
        let mut w = Writer::new(MAGIC);
        write_value(&mut w, &Value::I64(-1));
        write_value(&mut w, &Value::U64(5));
        write_value(&mut w, &Value::Bytes(vec![9; 3]));
        assert_eq!(&w.buf[4..], &[3, 1, 4, 5, 8, 3, 9, 9, 9]);
    }

    #[test]
    fn bad_tags_and_strings_are_errors() {
        for payload in [&b"VFR1\x0b"[..], b"VFR1\x07\x01\xff", b"VFR1\x09\x02\x00"] {
            let mut r = Reader::new(payload, MAGIC).unwrap();
            assert!(read_value(&mut r).is_err(), "{payload:?}");
        }
    }
}
