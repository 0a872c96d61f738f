//! Minimal, dependency-free JSON: the one [`Writer`] the workspace's JSON
//! (the Chrome trace export) is emitted through, so punctuation, string
//! escaping and number formatting live in one place, and a parser that tests use to check that what they
//! wrote is well-formed without pulling a serde stack into the workspace.
//! The parser is a straightforward recursive-descent one: strict on
//! structure (trailing garbage is an error), depth-limited, and entirely
//! `Result`-based — no panics.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// A compact JSON writer. Values are written in document order;
/// [`obj`](Self::obj) and [`arr`](Self::arr) take a closure that writes
/// the members, so every bracket opened is closed, and the writer puts
/// the commas in.
///
/// ```
/// use asset_common::json::Writer;
///
/// let mut w = Writer::default();
/// w.obj(|w| {
///     w.key("n").u64(1).key("ts").f64(2.5, 3);
///     w.key("tags").arr(|w| {
///         w.str("a\"b");
///     });
/// });
/// assert_eq!(w.finish(), "{\"n\":1,\"ts\":2.500,\"tags\":[\"a\\\"b\"]}\n");
/// ```
#[derive(Default)]
pub struct Writer {
    out: String,
    /// The open container holds a value: the next one needs a comma.
    comma: bool,
}

impl Writer {
    fn value(&mut self) -> &mut String {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        &mut self.out
    }

    /// Begin an object member named `k`; its value is written next.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.str(k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, v: &str) -> &mut Self {
        let out = self.value();
        out.push('"');
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        self
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.value(), "{v}");
        self
    }

    /// A number with `decimals` digits after the point; `null` if `v` is
    /// not finite, which JSON cannot spell.
    pub fn f64(&mut self, v: f64, decimals: usize) -> &mut Self {
        let out = self.value();
        if v.is_finite() {
            let _ = write!(out, "{v:.decimals$}");
        } else {
            out.push_str("null");
        }
        self
    }

    /// An object whose members `members` writes.
    pub fn obj(&mut self, members: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('{', members, '}')
    }

    /// An array whose elements `elements` writes.
    pub fn arr(&mut self, elements: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('[', elements, ']')
    }

    fn nest(&mut self, open: char, inner: impl FnOnce(&mut Self), close: char) -> &mut Self {
        self.value().push(open);
        self.comma = false;
        inner(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// The document, ending in a newline.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// Maximum nesting depth accepted before bailing out (guards the parser's
/// recursion against adversarial input).
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (key order normalized).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The text if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next_byte(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &'static [u8], v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek_byte() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal(b"true", Value::Bool(true)),
            Some(b'f') => self.literal(b"false", Value::Bool(false)),
            Some(b'n') => self.literal(b"null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek_byte() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            m.insert(key, v);
            self.skip_ws();
            match self.next_byte() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(m)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek_byte() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.next_byte() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(v)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.next_byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next_byte() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs: a leading surrogate must be
                        // followed by \uXXXX with a trailing surrogate.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.next_byte() != Some(b'\\') || self.next_byte() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid unicode escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // Re-decode multi-byte UTF-8 from the source slice.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(b);
                        let end = start + width;
                        if width == 0 || end > self.bytes.len() {
                            return Err(self.err("invalid UTF-8 in string"));
                        }
                        match std::str::from_utf8(&self.bytes[start..end]) {
                            Ok(s) => {
                                out.push_str(s);
                                self.pos = end;
                            }
                            Err(_) => return Err(self.err("invalid UTF-8 in string")),
                        }
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.next_byte() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a') as u32 + 10,
                Some(b @ b'A'..=b'F') => (b - b'A') as u32 + 10,
                _ => return Err(self.err("invalid hex escape")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek_byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek_byte() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek_byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek_byte(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_width(lead: u8) -> usize {
    match lead {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("b").and_then(|b| b.as_str()), Some("x\ny"));
        let a = v.get("a").and_then(|a| a.as_array()).unwrap();
        assert_eq!(a[2].as_f64(), Some(-300.0));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_structure() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1, ]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn resolves_unicode_escapes_and_surrogates() {
        let v = parse(r#""é 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("é 😀"));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn passes_through_utf8() {
        let v = parse(r#""naïve — ütf""#).unwrap();
        assert_eq!(v.as_str(), Some("naïve — ütf"));
    }

    fn written(f: impl FnOnce(&mut Writer)) -> String {
        let mut w = Writer::default();
        f(&mut w);
        w.finish()
    }

    #[test]
    fn escapes_control_characters_and_parses_back_unchanged() {
        assert_eq!(
            written(|w| {
                w.str("a\"b\\c\nd");
            }),
            "\"a\\\"b\\\\c\\nd\"\n"
        );
        assert_eq!(
            written(|w| {
                w.str("\u{1}");
            }),
            "\"\\u0001\"\n"
        );
        let raw = "quote \" slash \\ nl \n cr \r tab \t bell \u{7} — ütf";
        let doc = written(|w| {
            w.str(raw);
        });
        assert_eq!(parse(&doc).unwrap().as_str(), Some(raw));
    }

    #[test]
    fn writes_nested_containers_and_numbers_that_parse_back() {
        let doc = written(|w| {
            w.obj(|w| {
                w.key("empty").obj(|_| {}).key("xs").arr(|w| {
                    w.u64(u64::MAX).f64(1.0 / 3.0, 3).f64(f64::NAN, 3);
                    w.arr(|_| {});
                });
            });
        });
        assert_eq!(
            doc,
            "{\"empty\":{},\"xs\":[18446744073709551615,0.333,null,[]]}\n"
        );
        let xs = parse(&doc).unwrap();
        let xs = xs.get("xs").and_then(|x| x.as_array()).unwrap();
        assert_eq!(xs[1].as_f64(), Some(0.333));
        assert_eq!(xs[2], Value::Null);
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }
}
