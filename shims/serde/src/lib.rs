//! Offline shim for `serde`: a self-describing `Content` tree plus
//! `Serialize`/`Deserialize` traits that convert to and from it, and a
//! re-export of the shim derive macros. `serde_json` (the sibling shim)
//! renders `Content` to JSON text and parses it back.
//!
//! This is intentionally the *data model* subset the workspace needs:
//! named-field structs, unit/struct/newtype enum variants, primitives,
//! `String`, `Vec<T>`, `Option<T>`, and string-keyed maps.

use std::collections::{BTreeMap, HashMap};

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialized value (the shim's serde data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    /// Insertion-ordered map with string keys (JSON object).
    Map(Vec<(String, Content)>),
}

impl Content {
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Content::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Content::U64(v) => Some(*v),
            Content::I64(v) if *v >= 0 => Some(*v as u64),
            Content::F64(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Content::I64(v) => Some(*v),
            Content::U64(v) if *v <= i64::MAX as u64 => Some(*v as i64),
            Content::F64(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Some(*v as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Content::F64(v) => Some(*v),
            Content::I64(v) => Some(*v as f64),
            Content::U64(v) => Some(*v as f64),
            // serde_json renders non-finite floats as null.
            Content::Null => Some(f64::NAN),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_map(&self) -> Option<&[(String, Content)]> {
        match self {
            Content::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Look up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Content> {
        self.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// Compact JSON rendering (what `serde_json::to_string` emits).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Content::Null => out.push_str("null"),
            Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Content::I64(v) => out.push_str(&v.to_string()),
            Content::U64(v) => out.push_str(&v.to_string()),
            Content::F64(v) => {
                if v.is_finite() {
                    // `Display` on f64 is shortest-roundtrip, so parsing
                    // the text recovers the exact bit pattern.
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Content::Str(s) => write_json_string(s, out),
            Content::Seq(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Content::Map(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
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

impl std::fmt::Display for Content {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

/// Deserialization error: a plain message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

pub trait Serialize {
    fn to_content(&self) -> Content;
}

pub trait Deserialize: Sized {
    fn from_content(content: &Content) -> Result<Self, DeError>;

    /// Value to use when a struct field is absent (`Some` only for
    /// `Option<T>`, mirroring serde's missing-field behaviour loosely).
    fn missing_field_value() -> Option<Self> {
        None
    }
}

/// Derive-macro helper: fetch + deserialize struct field `name`.
pub fn __field<T: Deserialize>(map: &[(String, Content)], name: &str) -> Result<T, DeError> {
    match map.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_content(v).map_err(|e| DeError(format!("field `{name}`: {e}"))),
        None => T::missing_field_value().ok_or_else(|| DeError(format!("missing field `{name}`"))),
    }
}

/// Derive-macro helper for `#[serde(default)]` fields: absent keys
/// deserialize to `Default::default()` instead of erroring.
pub fn __field_or_default<T: Deserialize + Default>(
    map: &[(String, Content)],
    name: &str,
) -> Result<T, DeError> {
    match map.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_content(v).map_err(|e| DeError(format!("field `{name}`: {e}"))),
        None => Ok(T::default()),
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
}

impl Deserialize for Content {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(content.clone())
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let v = c.as_u64().ok_or_else(|| {
                    DeError(format!(concat!("expected ", stringify!($t), ", got {}"), c))
                })?;
                <$t>::try_from(v)
                    .map_err(|_| DeError(format!("{v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            /// Non-negative values take the `U64` form, as upstream
            /// `serde_json::Number` does, so a value equals its own
            /// parsed-back JSON (the parser reads `1` as `U64`).
            fn to_content(&self) -> Content {
                let v = *self as i64;
                if v >= 0 {
                    Content::U64(v as u64)
                } else {
                    Content::I64(v)
                }
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let v = c.as_i64().ok_or_else(|| {
                    DeError(format!(concat!("expected ", stringify!($t), ", got {}"), c))
                })?;
                <$t>::try_from(v)
                    .map_err(|_| DeError(format!("{v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_f64()
            .map(|v| v as f32)
            .ok_or_else(|| DeError(format!("expected f32, got {c}")))
    }
}

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_f64()
            .ok_or_else(|| DeError(format!("expected f64, got {c}")))
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_bool()
            .ok_or_else(|| DeError(format!("expected bool, got {c}")))
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError(format!("expected string, got {c}")))
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let seq = c
            .as_seq()
            .ok_or_else(|| DeError(format!("expected array, got {c}")))?;
        seq.iter().map(T::from_content).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }

    fn missing_field_value() -> Option<Self> {
        Some(None)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_content(&self) -> Content {
        Content::Seq(vec![self.0.to_content(), self.1.to_content()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c.as_seq() {
            Some([a, b]) => Ok((A::from_content(a)?, B::from_content(b)?)),
            _ => Err(DeError(format!("expected 2-tuple, got {c}"))),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_content()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| DeError(format!("expected object, got {c}")))?;
        map.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_content(v)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_content(&self) -> Content {
        // Sort for deterministic output, like serde_json's BTreeMap advice.
        let mut entries: Vec<(String, Content)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_content()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Content::Map(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let map = c
            .as_map()
            .ok_or_else(|| DeError(format!("expected object, got {c}")))?;
        map.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_content(v)?)))
            .collect()
    }
}
