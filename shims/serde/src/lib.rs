//! Offline stand-in for `serde`, API-compatible with the subset this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal serialization framework under the same crate name:
//! a JSON-shaped [`Value`] model, [`Serialize`]/[`Deserialize`] traits
//! over it, and derive macros (re-exported from `serde_derive`) that
//! understand plain structs, tuple structs and externally-tagged enums,
//! plus the `#[serde(skip)]` helper attribute.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::Hash;
use std::rc::Rc;
use std::sync::Arc;

/// A JSON-shaped dynamic value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer.
    Uint(u64),
    /// Negative integer.
    Int(i64),
    /// Floating point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for non-objects and misses.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Builds an error from anything printable.
    pub fn msg(m: impl std::fmt::Display) -> Self {
        Error(m.to_string())
    }
}

/// Converts a value into the [`Value`] data model.
pub trait Serialize {
    /// The [`Value`] representation of `self`.
    fn to_value(&self) -> Value;

    /// `self` when it already is a [`Value`], so a writer can read the
    /// tree in place instead of copying it through
    /// [`Serialize::to_value`]. Default: `None`.
    fn as_value(&self) -> Option<&Value> {
        None
    }
}

/// Rebuilds a value from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Parses `self` out of `v`.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------
// Derive-macro support (stable names the generated code calls into).
// ---------------------------------------------------------------------

#[doc(hidden)]
pub fn __object(v: &Value) -> Result<&[(String, Value)], Error> {
    match v {
        Value::Object(o) => Ok(o),
        other => Err(Error::msg(format!("expected object, got {other:?}"))),
    }
}

#[doc(hidden)]
pub fn __array(v: &Value) -> Result<&[Value], Error> {
    match v {
        Value::Array(a) => Ok(a),
        other => Err(Error::msg(format!("expected array, got {other:?}"))),
    }
}

#[doc(hidden)]
pub fn __field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, Error> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v),
        None => {
            T::from_value(&Value::Null).map_err(|_| Error::msg(format!("missing field `{name}`")))
        }
    }
}

#[doc(hidden)]
pub fn __index<T: Deserialize>(arr: &[Value], idx: usize) -> Result<T, Error> {
    match arr.get(idx) {
        Some(v) => T::from_value(v),
        None => Err(Error::msg(format!("missing tuple element {idx}"))),
    }
}

/// Map keys serialize through [`Value`]; JSON object keys are strings, so
/// numeric keys are rendered in decimal (as `serde_json` does).
#[doc(hidden)]
pub fn __key_to_string(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Uint(n) => n.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => panic!("unsupported map key {other:?}"),
    }
}

#[doc(hidden)]
pub fn __key_from_string<K: Deserialize>(s: &str) -> Result<K, Error> {
    if let Ok(k) = K::from_value(&Value::Str(s.to_string())) {
        return Ok(k);
    }
    if let Ok(n) = s.parse::<u64>() {
        if let Ok(k) = K::from_value(&Value::Uint(n)) {
            return Ok(k);
        }
    }
    if let Ok(n) = s.parse::<i64>() {
        if let Ok(k) = K::from_value(&Value::Int(n)) {
            return Ok(k);
        }
    }
    if let Ok(b) = s.parse::<bool>() {
        if let Ok(k) = K::from_value(&Value::Bool(b)) {
            return Ok(k);
        }
    }
    Err(Error::msg(format!("cannot parse map key `{s}`")))
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! uint_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Uint(u64::from(*self))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::Uint(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u64,
                    Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => *f as u64,
                    other => return Err(Error::msg(format!("expected unsigned, got {other:?}"))),
                };
                <$t>::try_from(n).map_err(|_| Error::msg("integer out of range"))
            }
        }
    )*};
}
uint_impl!(u8, u16, u32, u64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::Uint(*self as u64)
    }
}
impl Deserialize for usize {
    fn from_value(v: &Value) -> Result<Self, Error> {
        u64::from_value(v).map(|n| n as usize)
    }
}

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = i64::from(*self);
                if n >= 0 { Value::Uint(n as u64) } else { Value::Int(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::Int(n) => *n,
                    Value::Uint(n) => i64::try_from(*n).map_err(|_| Error::msg("overflow"))?,
                    Value::Float(f) if f.fract() == 0.0 => *f as i64,
                    other => return Err(Error::msg(format!("expected integer, got {other:?}"))),
                };
                <$t>::try_from(n).map_err(|_| Error::msg("integer out of range"))
            }
        }
    )*};
}
int_impl!(i8, i16, i32, i64);

impl Serialize for isize {
    fn to_value(&self) -> Value {
        (*self as i64).to_value()
    }
}
impl Deserialize for isize {
    fn from_value(v: &Value) -> Result<Self, Error> {
        i64::from_value(v).map(|n| n as isize)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Uint(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            other => Err(Error::msg(format!("expected number, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::msg(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(Error::msg(format!("expected char, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::msg(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}
impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            other => Err(Error::msg(format!("expected null, got {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Option<&Value> {
        (**self).as_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        __array(v)?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize + Default + Copy, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let arr = __array(v)?;
        if arr.len() != N {
            return Err(Error::msg(format!("expected {N}-element array")));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(arr) {
            *slot = T::from_value(item)?;
        }
        Ok(out)
    }
}

macro_rules! tuple_impl {
    ($(($($t:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let arr = __array(v)?;
                Ok(($(__index::<$t>(arr, $idx)?,)+))
            }
        }
    )+};
}
tuple_impl!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
);

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Arc::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
impl<T: Deserialize> Deserialize for Rc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Rc::new)
    }
}

macro_rules! map_impl {
    ($name:ident, $($bound:tt)+) => {
        impl<K: Serialize + $($bound)+, V: Serialize> Serialize for $name<K, V> {
            fn to_value(&self) -> Value {
                let mut entries: Vec<(String, Value)> = self
                    .iter()
                    .map(|(k, v)| (__key_to_string(&k.to_value()), v.to_value()))
                    .collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                Value::Object(entries)
            }
        }
        impl<K: Deserialize + $($bound)+, V: Deserialize> Deserialize for $name<K, V> {
            fn from_value(v: &Value) -> Result<Self, Error> {
                __object(v)?
                    .iter()
                    .map(|(k, v)| Ok((__key_from_string::<K>(k)?, V::from_value(v)?)))
                    .collect()
            }
        }
    };
}
map_impl!(HashMap, Eq + Hash);
map_impl!(BTreeMap, Ord);

macro_rules! set_impl {
    ($name:ident, $($bound:tt)+) => {
        impl<T: Serialize + $($bound)+> Serialize for $name<T> {
            fn to_value(&self) -> Value {
                Value::Array(self.iter().map(Serialize::to_value).collect())
            }
        }
        impl<T: Deserialize + $($bound)+> Deserialize for $name<T> {
            fn from_value(v: &Value) -> Result<Self, Error> {
                __array(v)?.iter().map(T::from_value).collect()
            }
        }
    };
}
set_impl!(HashSet, Eq + Hash);
set_impl!(BTreeSet, Ord);

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Option<&Value> {
        Some(self)
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()), Ok(42));
        assert_eq!(i32::from_value(&(-7i32).to_value()), Ok(-7));
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, "a".to_string()), (2, "b".to_string())];
        let round: Vec<(u32, String)> = Deserialize::from_value(&v.to_value()).unwrap();
        assert_eq!(round, v);

        let mut m = HashMap::new();
        m.insert(3u32, vec![1u8, 2]);
        let round: HashMap<u32, Vec<u8>> = Deserialize::from_value(&m.to_value()).unwrap();
        assert_eq!(round, m);
    }

    #[test]
    fn option_null_round_trip() {
        let some: Option<u8> = Some(5);
        let none: Option<u8> = None;
        assert_eq!(Option::<u8>::from_value(&some.to_value()), Ok(Some(5)));
        assert_eq!(Option::<u8>::from_value(&none.to_value()), Ok(None));
    }

    #[test]
    fn arrays_round_trip() {
        let mac = [1u8, 2, 3, 4, 5, 6];
        assert_eq!(<[u8; 6]>::from_value(&mac.to_value()), Ok(mac));
    }
}
