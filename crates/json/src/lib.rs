//! Minimal JSON support with zero dependencies.
//!
//! The workspace exchanges telemetry through a small, fixed JSON schema
//! (see `wp_telemetry::io`); this crate supplies just enough JSON — a
//! value type, a recursive-descent parser with positional errors, and
//! compact/pretty writers — to serve that schema offline, with no
//! registry crates.
//!
//! Object member order is preserved (members are a `Vec`, not a map),
//! so emitted documents are deterministic and diffs stay readable.
//! Numbers are `f64`; non-finite values serialize as `null`, matching
//! the common interchange convention.

use std::fmt;

/// A JSON value. Object members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered `(key, value)` members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document, requiring it to span the whole input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as a usize, if this is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            // `usize::MAX as f64` rounds up to 2^64 (on 64-bit), which
            // does not fit: the bound must be strict.
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < usize::MAX as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Serializes with 2-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.compact())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(f64::from(v))
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`Json::Obj`] with literal syntax:
/// `obj! { "key" => value, "other" => value }`. Values go through
/// `Into<Json>`.
#[macro_export]
macro_rules! obj {
    ( $( $key:expr => $value:expr ),* $(,)? ) => {
        $crate::Json::Obj(vec![ $( ($key.to_string(), $crate::Json::from($value)) ),* ])
    };
}

fn write_value(out: &mut String, v: &Json, indent: Option<usize>, depth: usize) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(x) => write_number(out, *x),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => write_seq(
            out,
            items.iter(),
            items.len(),
            indent,
            depth,
            |out, item, ind, d| {
                write_value(out, item, ind, d);
            },
            ('[', ']'),
        ),
        Json::Obj(members) => write_seq(
            out,
            members.iter(),
            members.len(),
            indent,
            depth,
            |out, (key, value), ind, d| {
                write_string(out, key);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                write_value(out, value, ind, d);
            },
            ('{', '}'),
        ),
    }
}

fn write_seq<I: Iterator>(
    out: &mut String,
    items: I,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    mut write_item: impl FnMut(&mut String, I::Item, Option<usize>, usize),
    (open, close): (char, char),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for (idx, item) in items.enumerate() {
        if idx > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            for _ in 0..step * (depth + 1) {
                out.push(' ');
            }
        }
        write_item(out, item, indent, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..step * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    if x == x.trunc() && x.abs() < 1e15 {
        // Integral values print without a fractional part or exponent.
        out.push_str(&format!("{}", x as i64));
    } else {
        // Rust's f64 Display is the shortest round-trip representation.
        out.push_str(&format!("{x}"));
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Recursive-descent parser over validated UTF-8. Token scans walk
/// `bytes`; every token ends on an ASCII byte, so its text is sliced
/// from `text` without re-validating it.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected character '{}' at byte {}",
                b as char, self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                s.push_str(
                    self.text
                        .get(start..self.pos)
                        .ok_or_else(|| format!("invalid UTF-8 in string at byte {start}"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000C}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                // Surrogate pair: require the low half.
                                if !self.eat_literal("\\u") {
                                    return Err(format!("unpaired surrogate at byte {}", self.pos));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!(
                                        "invalid low surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            s.push(ch.ok_or_else(|| {
                                format!("invalid \\u escape at byte {}", self.pos)
                            })?);
                            continue; // hex4 already advanced pos
                        }
                        _ => {
                            return Err(format!("invalid escape at byte {}", self.pos));
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("unescaped control byte at {}", self.pos));
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = self
            .text
            .get(self.pos..end)
            .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-7", "3.25", "1e3"] {
            let v = Json::parse(text).unwrap();
            let again = Json::parse(&v.compact()).unwrap();
            assert_eq!(v, again, "{text}");
        }
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn numbers_round_trip_shortest() {
        assert_eq!(Json::Num(1.0).compact(), "1");
        assert_eq!(Json::Num(-0.125).compact(), "-0.125");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        let x = 0.1 + 0.2;
        let back = Json::parse(&Json::Num(x).compact()).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nbreak \"quote\" back\\slash tab\t unicode ü 統 \u{1}";
        let v = Json::Str(s.to_string());
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
        assert_eq!(
            Json::parse(r#""ü 😀""#).unwrap(),
            Json::Str("ü 😀".to_string())
        );
    }

    #[test]
    fn objects_preserve_member_order() {
        let v = obj! { "zeta" => 1.0, "alpha" => 2.0, "mid" => "x" };
        assert_eq!(v.compact(), r#"{"zeta":1,"alpha":2,"mid":"x"}"#);
        let parsed = Json::parse(&v.pretty()).unwrap();
        assert_eq!(parsed, v);
        assert_eq!(parsed.get("alpha").and_then(Json::as_f64), Some(2.0));
        assert_eq!(parsed.get("missing"), None);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = obj! { "a" => vec![1.0, 2.0], "b" => Json::Obj(vec![]) };
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}"
        );
    }

    #[test]
    fn parse_errors_carry_position() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("[1, 2").unwrap_err().contains("']'"));
        assert!(Json::parse("{\"a\" 1}").unwrap_err().contains("':'"));
        assert!(Json::parse("[1] trailing")
            .unwrap_err()
            .contains("trailing"));
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn as_usize_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(4.0).as_usize(), Some(4));
        assert_eq!(Json::Num(4.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Str("4".into()).as_usize(), None);
        assert_eq!(
            Json::parse("18446744073709551616").unwrap().as_usize(),
            None
        );
        let top_bit = usize::MAX / 2 + 1;
        assert_eq!(Json::Num(top_bit as f64).as_usize(), Some(top_bit));
    }
}
