//! Offline stand-in for `serde_json` over the serde shim's `Value` model.
//!
//! Output conventions follow the real crate where the workspace can
//! observe them: compact form uses `":"` and `","` with no spaces, pretty
//! form indents two spaces and separates keys with `": "`, and whole
//! floats print with a trailing `.0`.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

#[derive(Debug)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0)?;
    Ok(out)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse(s)?;
    T::from_value(&value).map_err(|e| Error(e.0))
}

// ---- writer ----

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) -> Result<()> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::U128(n) => out.push_str(&n.to_string()),
        Value::F64(x) => out.push_str(&format_f64(*x)),
        Value::Str(s) => write_string(out, s),
        Value::Bytes(bytes) => write_seq(out, bytes, indent, depth, |out, b| {
            out.push_str(&b.to_string());
            Ok(())
        })?,
        Value::Seq(items) => write_seq(out, items, indent, depth, |out, item| {
            write_value(out, item, indent, depth + 1)
        })?,
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_key(out, k)?;
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

/// A JSON array of `items`, each rendered by `item` one level deeper.
fn write_seq<T>(
    out: &mut String,
    items: &[T],
    indent: Option<usize>,
    depth: usize,
    mut item: impl FnMut(&mut String, &T) -> Result<()>,
) -> Result<()> {
    if items.is_empty() {
        out.push_str("[]");
        return Ok(());
    }
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline_indent(out, indent, depth + 1);
        item(out, x)?;
    }
    newline_indent(out, indent, depth);
    out.push(']');
    Ok(())
}

/// JSON object keys must be strings; scalar keys are stringified like the
/// real serde_json does for integer map keys.
fn write_key(out: &mut String, k: &Value) -> Result<()> {
    match k {
        Value::Str(s) => write_string(out, s),
        Value::I64(n) => write_string(out, &n.to_string()),
        Value::U64(n) => write_string(out, &n.to_string()),
        Value::U128(n) => write_string(out, &n.to_string()),
        Value::Bool(b) => write_string(out, &b.to_string()),
        other => return Err(Error(format!("map key must be scalar, got {other:?}"))),
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn format_f64(x: f64) -> String {
    if !x.is_finite() {
        // serde_json rejects non-finite floats; rendering null keeps the
        // output loadable instead of failing an entire experiment dump
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e16 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser ----

/// Deepest array/object nesting `parse` accepts (serde_json's default
/// recursion limit): the parser recurses once per level, so the bound keeps
/// hostile input from overflowing the parsing thread's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

pub fn parse(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error(format!("unexpected {other:?} at byte {}", self.pos))),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error(format!("bad keyword at byte {}", self.pos)))
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("short \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            // surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(Error(format!("bad escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // bulk-copy the run up to the next quote or escape; both
                    // delimiters are ASCII, so the boundary cannot split a
                    // UTF-8 scalar and the run validates as a unit
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error("invalid utf-8".into()))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error(format!("bad float {text:?}")))
        } else if let Ok(n) = text.parse::<i64>() {
            Ok(Value::I64(n))
        } else if let Ok(n) = text.parse::<u64>() {
            Ok(Value::U64(n))
        } else if let Ok(n) = text.parse::<u128>() {
            Ok(Value::U128(n))
        } else {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error(format!("bad number {text:?}")))
        }
    }

    fn seq(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => return Err(Error(format!("bad sequence at {other:?}"))),
            }
        }
    }

    fn map(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((Value::Str(key), val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                other => return Err(Error(format!("bad map at {other:?}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_forms() {
        let v = Value::Map(vec![
            (Value::Str("id".into()), Value::Str("t1".into())),
            (Value::Str("n".into()), Value::I64(3)),
        ]);
        let mut compact = String::new();
        write_value(&mut compact, &v, None, 0).unwrap();
        assert_eq!(compact, r#"{"id":"t1","n":3}"#);
        let mut pretty = String::new();
        write_value(&mut pretty, &v, Some(2), 0).unwrap();
        assert!(pretty.contains("\"id\": \"t1\""), "{pretty}");
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(format_f64(2.0), "2.0");
        assert_eq!(format_f64(2.5), "2.5");
        assert_eq!(format_f64(-0.125), "-0.125");
    }

    #[test]
    fn parse_round_trips() {
        let text = r#"{"a":[1,2.5,"x\né",null,true],"b":{"c":-7}}"#;
        let v = parse(text).unwrap();
        let mut out = String::new();
        write_value(&mut out, &v, None, 0).unwrap();
        assert_eq!(parse(&out).unwrap(), v);
    }

    #[test]
    fn typed_round_trip() {
        let data: Vec<(u64, String)> = vec![(1, "a".into()), (2, "b".into())];
        let s = to_string(&data).unwrap();
        let back: Vec<(u64, String)> = from_str(&s).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowing() {
        // parse on a thread with the default 2 MiB stack, as the reactor
        // and transport threads that decode peer frames run
        let deep = "[".repeat(100_000);
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&deep).map(|_| ()))
            .unwrap()
            .join()
            .unwrap()
            .unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");

        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn byte_vectors_render_as_number_arrays() {
        // pinned: byte fields lower to `Value::Bytes`, and JSON output must
        // stay what it was when they lowered to sequences of integers
        #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
        struct Setup {
            function: String,
            args_blob: Vec<u8>,
        }
        let v: Vec<u8> = vec![0, 7, 255];
        assert_eq!(to_string(&v).unwrap(), "[0,7,255]");
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  0,\n  7,\n  255\n]");
        let empty: Vec<u8> = vec![];
        assert_eq!(to_string(&empty).unwrap(), "[]");
        assert_eq!(to_string_pretty(&empty).unwrap(), "[]");
        let some: Option<Vec<u8>> = Some(vec![1, 2]);
        let none: Option<Vec<u8>> = None;
        assert_eq!(to_string(&some).unwrap(), "[1,2]");
        assert_eq!(to_string_pretty(&some).unwrap(), "[\n  1,\n  2\n]");
        assert_eq!(to_string(&none).unwrap(), "null");
        assert_eq!(to_string_pretty(&none).unwrap(), "null");
        let nested: Vec<Option<Vec<u8>>> = vec![Some(vec![9]), None, Some(vec![])];
        assert_eq!(to_string(&nested).unwrap(), "[[9],null,[]]");
        assert_eq!(
            to_string_pretty(&nested).unwrap(),
            "[\n  [\n    9\n  ],\n  null,\n  []\n]"
        );
        let setup = Setup {
            function: "f".into(),
            args_blob: v,
        };
        assert_eq!(
            to_string(&setup).unwrap(),
            r#"{"function":"f","args_blob":[0,7,255]}"#
        );
        assert_eq!(
            to_string_pretty(&setup).unwrap(),
            "{\n  \"function\": \"f\",\n  \"args_blob\": [\n    0,\n    7,\n    255\n  ]\n}"
        );
        // and JSON input still parses back into byte vectors
        assert_eq!(
            from_str::<Setup>(&to_string(&setup).unwrap()).unwrap(),
            setup
        );
    }

    #[test]
    fn big_u128_survives() {
        let n: u128 = u128::MAX - 3;
        let s = to_string(&n).unwrap();
        let back: u128 = from_str(&s).unwrap();
        assert_eq!(back, n);
    }
}
