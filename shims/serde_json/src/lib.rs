//! Offline shim for `serde_json`: JSON emission/parsing over the shim
//! serde `Content` data model, plus `Value`, `json!`, and `Error`.

use serde::{Content, Deserialize, Serialize};

/// A parsed JSON value (the serde shim's content tree directly).
pub type Value = Content;

/// JSON (de)serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Serialize `value` to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_content().to_json_string())
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_content()
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_content(&value).map_err(|e| Error::new(e.to_string()))
}

/// Deepest array/object nesting [`parse_value`] accepts (upstream
/// serde_json's default recursion limit). The parser recurses once per
/// level, so without a limit one hostile line of `[[[…` would overflow
/// the stack and abort the process instead of returning an error.
const MAX_DEPTH: usize = 128;

/// Parse JSON text into a [`Value`] tree. Arrays and objects nested
/// deeper than 128 levels are an error.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Content::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Content::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Content::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Content::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// Parse one array or object one nesting level down.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` in object, found {:?} at byte {}",
                        other.map(|c| c as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` in array, found {:?} at byte {}",
                        other.map(|c| c as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape"))?;
                            // Surrogate pairs: JSON-escape UTF-16.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if !self.eat_keyword("\\u") {
                                    return Err(Error::new("lone high surrogate"));
                                }
                                let hex2 = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| Error::new("truncated \\u escape"))?;
                                self.pos += 4;
                                let low = u32::from_str_radix(
                                    std::str::from_utf8(hex2)
                                        .map_err(|_| Error::new("bad \\u escape"))?,
                                    16,
                                )
                                .map_err(|_| Error::new("bad \\u escape"))?;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Re-decode UTF-8 from the raw bytes.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::new("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
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
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Content::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Content::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

/// Build a [`Value`] from JSON-ish literal syntax. Supports objects,
/// arrays, `null`/`true`/`false`, and arbitrary serializable expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $($tt:tt)* ]) => { $crate::Value::Seq($crate::json_array_internal!([] $($tt)*)) };
    ({ $($tt:tt)* }) => { $crate::Value::Map($crate::json_map_internal!([] $($tt)*)) };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_map_internal {
    // End of input.
    ([$($out:tt)*]) => { ::std::vec![$($out)*] };
    // "key": <value tts...>
    ([$($out:tt)*] $key:literal : $($rest:tt)+) => {
        $crate::json_map_value_internal!([$($out)*] $key [] $($rest)+)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_map_value_internal {
    // Comma ends this entry.
    ([$($out:tt)*] $key:literal [$($val:tt)+] , $($rest:tt)*) => {
        $crate::json_map_internal!(
            [$($out)* (::std::string::String::from($key), $crate::json!($($val)+)),]
            $($rest)*
        )
    };
    // End of input ends this entry.
    ([$($out:tt)*] $key:literal [$($val:tt)+]) => {
        ::std::vec![$($out)* (::std::string::String::from($key), $crate::json!($($val)+))]
    };
    // Otherwise munch one token into the value accumulator.
    ([$($out:tt)*] $key:literal [$($val:tt)*] $t:tt $($rest:tt)*) => {
        $crate::json_map_value_internal!([$($out)*] $key [$($val)* $t] $($rest)*)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_array_internal {
    ([$($out:tt)*]) => { ::std::vec![$($out)*] };
    ([$($out:tt)*] $($rest:tt)+) => {
        $crate::json_array_value_internal!([$($out)*] [] $($rest)+)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_array_value_internal {
    ([$($out:tt)*] [$($val:tt)+] , $($rest:tt)*) => {
        $crate::json_array_internal!([$($out)* $crate::json!($($val)+),] $($rest)*)
    };
    ([$($out:tt)*] [$($val:tt)+]) => {
        ::std::vec![$($out)* $crate::json!($($val)+)]
    };
    ([$($out:tt)*] [$($val:tt)*] $t:tt $($rest:tt)*) => {
        $crate::json_array_value_internal!([$($out)*] [$($val)* $t] $($rest)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_value() {
        let v = json!({
            "name": "trkx",
            "count": 3usize,
            "ratio": 1.5 + 0.25,
            "flag": true,
            "missing": null,
            "nested": { "xs": [1, 2, 3] },
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("count").and_then(|c| c.as_u64()), Some(3));
        assert_eq!(back.get("ratio").and_then(|c| c.as_f64()), Some(1.75));
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for &x in &[
            0.1f32,
            1.0,
            -3.25e-7,
            f32::MAX,
            f32::MIN_POSITIVE,
            0.30000001,
        ] {
            let text = to_string(&x).unwrap();
            let back: f32 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nbreak \"quoted\" \\ tab\t unicode: π ∂";
        let text = to_string(s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_value(&nested(MAX_DEPTH)).is_ok());
        let mixed = format!("{}{}", "{\"a\":[".repeat(64), "]}".repeat(64));
        assert!(parse_value(&mixed).is_ok(), "128 levels of objects and arrays");
        for n in [MAX_DEPTH + 1, 100_000] {
            let err = parse_value(&nested(n)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("nul").is_err());
    }
}
