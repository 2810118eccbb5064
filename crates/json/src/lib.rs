//! Minimal JSON support with zero dependencies.
//!
//! The workspace exchanges telemetry through a small, fixed JSON schema
//! (see `wp_telemetry::io`); this crate supplies just enough JSON — a
//! value type, a pull tokenizer with positional errors ([`Tokenizer`],
//! the one lexer; [`Json::parse`] builds trees over it), and
//! compact/pretty writers — to serve that schema offline, with no
//! registry crates.
//!
//! Object member order is preserved (members are a `Vec`, not a map),
//! so emitted documents are deterministic and diffs stay readable.
//! Numbers are `f64`; non-finite values serialize as `null`, matching
//! the common interchange convention.

use std::fmt;

mod events;

pub use events::{build_value, skip_value, Event, EventSource, JsonEvents, Tokenizer, MAX_DEPTH};

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
    /// Nesting deeper than [`MAX_DEPTH`] is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut tokens = Tokenizer::new(text);
        let first = tokens.next_in_value()?;
        let value = build_value(&mut tokens, first)?;
        tokens.finish()?;
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
