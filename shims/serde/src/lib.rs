//! Offline stand-in for `serde`.
//!
//! The real crates.io registry is unavailable in this build environment, so
//! this crate supplies the subset of serde the workspace actually uses: a
//! self-describing [`Value`] data model, [`Serialize`]/[`Deserialize`]
//! traits expressed against it, and `#[derive(Serialize, Deserialize)]`
//! macros (re-exported from `serde_derive_shim`). `vine_proto::codec`
//! writes [`Value`] as binary frames; nothing renders it as text.
//!
//! The data model follows serde's conventions: structs are maps, newtype
//! structs are transparent, unit enum variants are strings, and
//! data-carrying variants are single-entry maps keyed by the variant name.
//! Each type reads back only the form it lowers to: byte vectors and
//! slices are one [`Value::Bytes`] (never a sequence of numbers), and
//! floats are [`Value::F64`] (never an integer).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

pub use serde_derive_shim::{Deserialize, Serialize};

/// The self-describing data model every serializable type lowers to.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    U128(u128),
    F64(f64),
    Str(String),
    /// Raw bytes (`Vec<u8>`, `[u8]`).
    Bytes(Vec<u8>),
    Seq(Vec<Value>),
    /// Keys are full values so maps with non-string keys still lower.
    Map(Vec<(Value, Value)>),
}

impl Value {
    pub fn as_map(&self) -> Option<&[(Value, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a field in a map value by string key.
    pub fn get_field(&self, name: &str) -> Option<&Value> {
        self.as_map()?.iter().find_map(|(k, v)| match k {
            Value::Str(s) if s == name => Some(v),
            _ => None,
        })
    }
}

/// Deserialization error.
#[derive(Clone, Debug, PartialEq)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

impl DeError {
    pub fn custom(msg: impl fmt::Display) -> DeError {
        DeError(msg.to_string())
    }
}

pub trait Serialize {
    fn to_value(&self) -> Value;

    /// Lower a slice of `Self`: a [`Value::Seq`] of the elements. `u8`
    /// overrides it to lower byte vectors and slices to one
    /// [`Value::Bytes`].
    #[doc(hidden)]
    fn __slice_to_value(items: &[Self]) -> Value
    where
        Self: Sized,
    {
        Value::Seq(items.iter().map(Serialize::to_value).collect())
    }
}

pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Rebuild a vector of `Self` from a [`Value::Seq`]. `u8` overrides it
    /// to read a [`Value::Bytes`] instead.
    #[doc(hidden)]
    fn __vec_from_value(v: &Value) -> Result<Vec<Self>, DeError> {
        seq_from_value(v)
    }
}

fn seq_from_value<T: Deserialize>(v: &Value) -> Result<Vec<T>, DeError> {
    v.as_seq()
        .ok_or_else(|| DeError(format!("expected sequence, got {v:?}")))?
        .iter()
        .map(T::from_value)
        .collect()
}

/// Helper used by derived code: fetch a struct field or error.
pub fn __field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, DeError> {
    v.get_field(name)
        .ok_or_else(|| DeError(format!("missing field `{name}`")))
}

/// Helper used by derived code: fetch a sequence element or error.
pub fn __elem(v: &Value, idx: usize) -> Result<&Value, DeError> {
    v.as_seq()
        .and_then(|s| s.get(idx))
        .ok_or_else(|| DeError(format!("missing tuple element {idx}")))
}

// ---- scalar impls ----

macro_rules! ser_int_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range"))),
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range"))),
                    other => Err(DeError(format!("expected integer, got {other:?}"))),
                }
            }
        }
    )*};
}

macro_rules! ser_int_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range"))),
                    Value::I64(n) => u64::try_from(*n)
                        .ok()
                        .and_then(|n| <$t>::try_from(n).ok())
                        .ok_or_else(|| DeError(format!("{n} out of range"))),
                    Value::U128(n) => <$t>::try_from(u64::try_from(*n).map_err(|_| DeError(format!("{n} out of range")))?)
                        .map_err(|_| DeError(format!("{n} out of range"))),
                    other => Err(DeError(format!("expected integer, got {other:?}"))),
                }
            }
        }
    )*};
}

ser_int_signed!(i8, i16, i32, i64, isize);
ser_int_unsigned!(u16, u32, u64, usize);

impl Serialize for u8 {
    fn to_value(&self) -> Value {
        Value::U64(u64::from(*self))
    }

    fn __slice_to_value(items: &[u8]) -> Value {
        Value::Bytes(items.to_vec())
    }
}

impl Deserialize for u8 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let n = u64::from_value(v)?;
        u8::try_from(n).map_err(|_| DeError(format!("{n} out of range")))
    }

    fn __vec_from_value(v: &Value) -> Result<Vec<u8>, DeError> {
        match v {
            Value::Bytes(b) => Ok(b.clone()),
            other => Err(DeError(format!("expected bytes, got {other:?}"))),
        }
    }
}

impl Serialize for u128 {
    fn to_value(&self) -> Value {
        Value::U128(*self)
    }
}

impl Deserialize for u128 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::U128(n) => Ok(*n),
            Value::U64(n) => Ok(u128::from(*n)),
            Value::I64(n) => u128::try_from(*n).map_err(|_| DeError(format!("{n} out of range"))),
            other => Err(DeError(format!("expected integer, got {other:?}"))),
        }
    }
}

impl Serialize for i128 {
    fn to_value(&self) -> Value {
        // the workspace only serializes non-negative i128s (none today)
        Value::U128(*self as u128)
    }
}

impl Deserialize for i128 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        u128::from_value(v).map(|n| n as i128)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::F64(x) => Ok(*x),
            other => Err(DeError(format!("expected float, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = String::from_value(v)?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError(format!("expected single char, got {s:?}"))),
        }
    }
}

// ---- references and smart pointers ----

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Rc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Rc::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Arc::new)
    }
}

// ---- containers ----

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        T::__slice_to_value(self)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::__vec_from_value(v)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        T::__slice_to_value(self)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize, E: Serialize> Serialize for Result<T, E> {
    fn to_value(&self) -> Value {
        match self {
            Ok(x) => Value::Map(vec![(Value::Str("Ok".into()), x.to_value())]),
            Err(e) => Value::Map(vec![(Value::Str("Err".into()), e.to_value())]),
        }
    }
}

impl<T: Deserialize, E: Deserialize> Deserialize for Result<T, E> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError(format!("expected Result map, got {v:?}")))?;
        match m {
            [(Value::Str(tag), payload)] if tag == "Ok" => T::from_value(payload).map(Ok),
            [(Value::Str(tag), payload)] if tag == "Err" => E::from_value(payload).map(Err),
            other => Err(DeError(format!("malformed Result: {other:?}"))),
        }
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_value(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_map()
            .ok_or_else(|| DeError(format!("expected map, got {v:?}")))?
            .iter()
            .map(|(k, val)| Ok((K::from_value(k)?, V::from_value(val)?)))
            .collect()
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_value(), v.to_value()))
                .collect(),
        )
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                Ok(($($t::from_value(__elem(v, $n)?)?,)+))
            }
        }
    )+};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(_: &Value) -> Result<Self, DeError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(i64::from_value(&42i64.to_value()).unwrap(), 42);
        assert_eq!(u128::from_value(&7u128.to_value()).unwrap(), 7);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hé".to_string().to_value()).unwrap(),
            "hé"
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        let o: Option<String> = Some("x".into());
        assert_eq!(Option::<String>::from_value(&o.to_value()).unwrap(), o);
        let none: Option<String> = None;
        assert_eq!(
            Option::<String>::from_value(&none.to_value()).unwrap(),
            none
        );
        let r: Result<Vec<u8>, String> = Err("boom".into());
        assert_eq!(
            Result::<Vec<u8>, String>::from_value(&r.to_value()).unwrap(),
            r
        );
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 9u64);
        assert_eq!(
            BTreeMap::<String, u64>::from_value(&m.to_value()).unwrap(),
            m
        );
        let t = (3u64, 1.5f64);
        assert_eq!(<(u64, f64)>::from_value(&t.to_value()).unwrap(), t);
    }

    #[test]
    fn byte_vectors_lower_to_bytes_and_refuse_numbers() {
        let v = vec![0u8, 7, 255];
        assert_eq!(v.to_value(), Value::Bytes(v.clone()));
        assert_eq!(v[..].to_value(), Value::Bytes(v.clone()));
        assert_eq!(Vec::<u8>::from_value(&v.to_value()).unwrap(), v);
        let numbers = Value::Seq(vec![Value::I64(0), Value::U64(7), Value::I64(255)]);
        assert!(Vec::<u8>::from_value(&numbers).is_err());
        assert!(Vec::<u8>::from_value(&Value::Seq(vec![Value::I64(256)])).is_err());
        // and floats read back only as floats
        assert_eq!(f64::from_value(&2.0f64.to_value()).unwrap(), 2.0);
        assert!(f64::from_value(&Value::I64(2)).is_err());
        // other element types keep their sequences
        assert!(matches!(vec![1u16].to_value(), Value::Seq(_)));
        assert!(Vec::<u16>::from_value(&Value::Bytes(vec![1])).is_err());
    }

    #[test]
    fn missing_field_errors() {
        let v = Value::Map(vec![(Value::Str("a".into()), Value::I64(1))]);
        assert!(__field(&v, "a").is_ok());
        assert!(__field(&v, "b").is_err());
    }
}
