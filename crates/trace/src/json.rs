//! The workspace's one JSON reader and writer.
//!
//! The build environment is offline, so `serde_json` is not available;
//! this hand-rolled parser covers the full JSON grammar (objects,
//! arrays, strings with escapes, numbers, booleans, null), and
//! [`Value::to_json`] is the canonical writer every document goes
//! through: service replies, scenario specs, profile reports, bench
//! records and span traces. Build a document with [`Value::obj`] and
//! the `From` conversions:
//!
//! ```
//! use orderlight_trace::json::{parse, Value};
//! let doc = Value::obj([("name", "add".into()), ("cycles", 42u64.into())]);
//! assert_eq!(doc.to_json(), r#"{"cycles":42,"name":"add"}"#);
//! assert_eq!(parse(&doc.to_json()).unwrap(), doc);
//! ```
//!
//! Only the Chrome trace exporter ([`crate::chrome`]) writes rows by
//! hand: a trace holds millions of events and is streamed, not built
//! as one tree.

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a line of `[`s overflows the
/// stack; every document this workspace writes nests a handful deep.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// An object from `(key, value)` pairs; a repeated key keeps its
    /// last value.
    #[must_use]
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        // Inserting one by one, rather than `collect`, keeps each call
        // site from instantiating its own copy of the collect-time sort.
        let mut map = BTreeMap::new();
        for (k, v) in fields {
            map.insert(k.into(), v);
        }
        Value::Obj(map)
    }

    /// Object field lookup (`None` for non-objects / missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Serialises to **canonical** compact JSON: no whitespace, object
    /// keys in `BTreeMap` (lexicographic) order, integral numbers
    /// without a fraction, non-integral numbers via Rust's
    /// shortest-round-trip float formatting. Two semantically equal
    /// values always produce the same bytes, and
    /// `parse(v.to_json()).to_json() == v.to_json()` — the property the
    /// service layer relies on to compare replies with `cmp`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(&format_number(*n)),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_json(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

/// Integers convert through `f64`: exact up to 2^53, far above any
/// counter a run produces.
macro_rules! value_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            #[allow(clippy::cast_precision_loss, clippy::cast_lossless)]
            fn from(n: $t) -> Value {
                Value::Num(n as f64)
            }
        }
    )*};
}
value_from_int!(u32, u64, usize, i64);

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

/// Canonical number formatting: finite integral values in `i64` range
/// print without a fraction (`5`, not `5.0`); everything else uses
/// Rust's shortest-round-trip `f64` formatting. Non-finite values have
/// no JSON spelling and serialise as `null`.
fn format_number(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_string();
    }
    #[allow(clippy::cast_possible_truncation)]
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

impl Value {
    /// The array items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
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

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure with byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parser stopped at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document. Trailing non-whitespace is an error,
/// and so is nesting arrays and objects more than 128 levels deep.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included). Handles `"`/`\\`, the mandated control-character escapes,
/// and arbitrary other control characters via `\u00XX`.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object a level deeper, rejecting nesting
    /// past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-ascii in \\u escape"))?;
        let n = u16::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(n)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the maximal plain-UTF-8 run in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000
                                        + ((u32::from(hi) - 0xd800) << 10)
                                        + (u32::from(lo) - 0xdc00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                u32::from(hi)
                            };
                            out.push(char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        s.parse::<f64>().map(Value::Num).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":"e"}}"#).unwrap();
        let a = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].get("b"), Some(&Value::Null));
        assert_eq!(doc.get("c").unwrap().get("d").unwrap().as_str(), Some("e"));
    }

    #[test]
    fn decodes_escapes_and_surrogate_pairs() {
        let doc = parse(r#""a\n\t\"\\\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\n\t\"\\A\u{1f600}"));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote:\" back:\\ nl:\n tab:\t ctrl:\u{01} emoji:\u{1f600}";
        let literal = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&literal).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "01x", "[1] junk", "tru"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn canonical_writer_round_trips_and_is_stable() {
        let doc =
            parse(r#"{ "b": [1, 2.5, -3], "a": {"z": null, "y": true}, "s": "q\"\n" }"#).unwrap();
        let canon = doc.to_json();
        // Keys in lexicographic order, compact, integral floats as ints.
        assert_eq!(canon, "{\"a\":{\"y\":true,\"z\":null},\"b\":[1,2.5,-3],\"s\":\"q\\\"\\n\"}");
        // Fixed point: parse(write(v)) writes the same bytes again.
        assert_eq!(parse(&canon).unwrap().to_json(), canon);
        // Field order in the source text does not matter.
        let reordered = parse(r#"{"s":"q\"\n","a":{"y":true,"z":null},"b":[1,2.5,-3]}"#).unwrap();
        assert_eq!(reordered.to_json(), canon);
    }

    #[test]
    fn canonical_writer_number_forms() {
        assert_eq!(Value::Num(5.0).to_json(), "5");
        assert_eq!(Value::Num(-0.125).to_json(), "-0.125");
        assert_eq!(Value::Num(1e18).to_json(), "1000000000000000000");
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        // Shortest-round-trip: the parsed value re-serialises identically.
        for s in ["0.1", "1234.5678", "1e18"] {
            let v = parse(s).unwrap();
            assert_eq!(parse(&v.to_json()).unwrap(), v, "{s}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (MAX_DEPTH, "nesting too deep"));
        // Far past the bound, unbalanced: a typed error, not a stack
        // overflow.
        assert!(parse(&"[".repeat(500_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(500_000)).is_err());
    }

    #[test]
    fn rejects_lone_surrogates() {
        assert!(parse(r#""\ud800""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }
}
