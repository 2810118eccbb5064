//! The crate's one JSON lexer: a pull tokenizer that emits events.
//!
//! [`Tokenizer`] walks a document without recursion. Open containers
//! live on a heap stack bounded by [`MAX_DEPTH`], so no input can
//! overflow the thread's stack. Its error strings are the parse error
//! contract of [`Json::parse`](crate::Json::parse), which is a thin tree
//! builder ([`build_value`]) over it.
//!
//! Typed decoders read the same events through [`EventSource`]: from the
//! tokenizer when text arrives, or from [`JsonEvents`], a walk of an
//! already built tree. One decoder then serves both, so its schema
//! errors are written once.

use std::borrow::Cow;

use crate::Json;

/// Deepest container nesting the tokenizer accepts (serde_json's
/// default). The next `[` or `{` fails with `nesting deeper than 128 at
/// byte N`.
pub const MAX_DEPTH: usize = 128;

/// One step of a JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// `{`
    BeginObject,
    /// `}`
    EndObject,
    /// `[`
    BeginArray,
    /// `]`
    EndArray,
    /// An object member's key; its value's events follow.
    Key(Cow<'a, str>),
    /// A string value (borrowed unless it held escapes).
    Str(Cow<'a, str>),
    /// A number value.
    Num(f64),
    /// `true` / `false`
    Bool(bool),
    /// `null`
    Null,
}

impl Event<'_> {
    fn opens(&self) -> bool {
        matches!(self, Event::BeginObject | Event::BeginArray)
    }
}

/// A stream of events for one document.
pub trait EventSource<'a> {
    /// The next event, or `Ok(None)` once the top-level value is
    /// complete. `Err` is a syntax error; the source must not be polled
    /// after one.
    fn next_event(&mut self) -> Result<Option<Event<'a>>, String>;

    /// An upper bound on the items of the array whose
    /// [`Event::BeginArray`] was just returned. Decoders cap a
    /// reservation sized from lengths the document claims with it.
    fn array_capacity_bound(&self) -> usize;

    /// The next event inside a value still being read, where the end of
    /// the document is itself an error.
    fn next_in_value(&mut self) -> Result<Event<'a>, String> {
        self.next_event()?
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    /// Appends the numbers that come next in the array being read to
    /// `out`, and returns the first event that is not a number. The
    /// same as taking [`Event::Num`]s from
    /// [`next_in_value`](Self::next_in_value) one at a time, which is
    /// what this default does; sources override it with a loop that
    /// skips the per-event work, since numbers are most of a telemetry
    /// document.
    fn read_numbers(&mut self, out: &mut Vec<f64>) -> Result<Event<'a>, String> {
        loop {
            match self.next_in_value()? {
                Event::Num(x) => out.push(x),
                other => return Ok(other),
            }
        }
    }
}

/// Reads past the rest of the value that began with `first`.
pub fn skip_value<'a>(src: &mut impl EventSource<'a>, first: &Event<'a>) -> Result<(), String> {
    let mut depth = usize::from(first.opens());
    while depth > 0 {
        match src.next_in_value()? {
            Event::BeginObject | Event::BeginArray => depth += 1,
            Event::EndObject | Event::EndArray => depth -= 1,
            _ => {}
        }
    }
    Ok(())
}

/// Builds the [`Json`] tree of the value that began with `first`. The
/// tree is built with an explicit stack, not by recursion.
pub fn build_value<'a>(src: &mut impl EventSource<'a>, first: Event<'a>) -> Result<Json, String> {
    enum Open {
        Arr(Vec<Json>),
        /// Members so far and the key whose value comes next.
        Obj(Vec<(String, Json)>, String),
    }
    let mut stack: Vec<Open> = Vec::new();
    let mut event = first;
    loop {
        let value = match event {
            Event::BeginArray => {
                stack.push(Open::Arr(Vec::new()));
                event = src.next_in_value()?;
                continue;
            }
            Event::BeginObject => {
                stack.push(Open::Obj(Vec::new(), String::new()));
                event = src.next_in_value()?;
                continue;
            }
            Event::Key(k) => {
                if let Some(Open::Obj(_, key)) = stack.last_mut() {
                    *key = k.into_owned();
                }
                event = src.next_in_value()?;
                continue;
            }
            Event::EndArray | Event::EndObject => match stack.pop() {
                Some(Open::Arr(items)) => Json::Arr(items),
                Some(Open::Obj(members, _)) => Json::Obj(members),
                None => return Err("unbalanced end of container".to_string()),
            },
            Event::Str(s) => Json::Str(s.into_owned()),
            Event::Num(x) => Json::Num(x),
            Event::Bool(b) => Json::Bool(b),
            Event::Null => Json::Null,
        };
        match stack.last_mut() {
            None => return Ok(value),
            Some(Open::Arr(items)) => items.push(value),
            Some(Open::Obj(members, key)) => members.push((std::mem::take(key), value)),
        }
        event = src.next_in_value()?;
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Container {
    Array,
    Object,
}

/// What the tokenizer reads next.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    /// A value (the document start, after `:`, after `,` in an array).
    Value,
    /// The first item of an array, or its `]`.
    ArrayFirst,
    /// The first key of an object, or its `}`.
    ObjectFirst,
    /// A key and its `:` (after `,` in an object).
    Key,
    /// `,` or the close of the open container, or the document's end.
    AfterValue,
    /// The document is complete.
    Done,
}

/// Pull tokenizer over validated UTF-8. Token scans walk `bytes`; every
/// token ends on an ASCII byte, so its text is sliced from `text`
/// without re-validating it.
pub struct Tokenizer<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    offset: usize,
    stack: Vec<Container>,
    state: State,
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            offset: 0,
            stack: Vec::new(),
            state: State::Value,
        }
    }

    /// Byte offset where the last returned event began.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Requires the document to be complete: reads its end, which also
    /// rejects trailing characters.
    pub fn finish(&mut self) -> Result<(), String> {
        match self.next_event()? {
            None => Ok(()),
            Some(_) => Err(format!("trailing characters at byte {}", self.offset)),
        }
    }

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

    fn value(&mut self) -> Result<Event<'a>, String> {
        self.skip_ws();
        self.offset = self.pos;
        self.state = State::AfterValue;
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') if self.eat_literal("null") => Ok(Event::Null),
            Some(b't') if self.eat_literal("true") => Ok(Event::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Event::Bool(false)),
            Some(b'"') => self.string().map(Event::Str),
            Some(b'[') => self.open(Container::Array),
            Some(b'{') => self.open(Container::Object),
            Some(b'-' | b'0'..=b'9') => self.number().map(Event::Num),
            Some(b) => Err(format!(
                "unexpected character '{}' at byte {}",
                b as char, self.pos
            )),
        }
    }

    fn open(&mut self, container: Container) -> Result<Event<'a>, String> {
        if self.stack.len() == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        self.stack.push(container);
        Ok(match container {
            Container::Array => {
                self.state = State::ArrayFirst;
                Event::BeginArray
            }
            Container::Object => {
                self.state = State::ObjectFirst;
                Event::BeginObject
            }
        })
    }

    fn close(&mut self) -> Event<'a> {
        self.offset = self.pos;
        self.pos += 1;
        self.state = State::AfterValue;
        match self.stack.pop() {
            Some(Container::Object) => Event::EndObject,
            _ => Event::EndArray,
        }
    }

    fn key(&mut self) -> Result<Event<'a>, String> {
        self.skip_ws();
        self.offset = self.pos;
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.state = State::Value;
        Ok(Event::Key(key))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            // Fast path: take a run of plain bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let chunk = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| format!("invalid UTF-8 in string at byte {start}"))?;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(match owned {
                    None => Cow::Borrowed(chunk),
                    Some(mut s) => {
                        s.push_str(chunk);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(chunk);
            match self.peek() {
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
                            s.push(self.unicode_escape()?);
                            continue; // the escape already advanced pos
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

    /// The character of a `\u` escape whose four hex digits start at
    /// `pos`, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        let ch = if (0xD800..0xDC00).contains(&code) {
            // Surrogate pair: require the low half.
            if !self.eat_literal("\\u") {
                return Err(format!("unpaired surrogate at byte {}", self.pos));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("invalid low surrogate at byte {}", self.pos));
            }
            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(combined)
        } else {
            char::from_u32(code)
        };
        ch.ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))
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

    fn number(&mut self) -> Result<f64, String> {
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
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

impl<'a> EventSource<'a> for Tokenizer<'a> {
    fn next_event(&mut self) -> Result<Option<Event<'a>>, String> {
        loop {
            match self.state {
                State::Value => return self.value().map(Some),
                State::Key => return self.key().map(Some),
                State::ArrayFirst => {
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        return Ok(Some(self.close()));
                    }
                    self.state = State::Value;
                }
                State::ObjectFirst => {
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        return Ok(Some(self.close()));
                    }
                    self.state = State::Key;
                }
                State::AfterValue => {
                    self.skip_ws();
                    let Some(&container) = self.stack.last() else {
                        if self.pos != self.bytes.len() {
                            return Err(format!("trailing characters at byte {}", self.pos));
                        }
                        self.state = State::Done;
                        return Ok(None);
                    };
                    let (close, next) = match container {
                        Container::Array => (b']', State::Value),
                        Container::Object => (b'}', State::Key),
                    };
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                            self.state = next;
                        }
                        Some(b) if b == close => return Ok(Some(self.close())),
                        _ => {
                            return Err(format!(
                                "expected ',' or '{}' at byte {}",
                                close as char, self.pos
                            ))
                        }
                    }
                }
                State::Done => return Ok(None),
            }
        }
    }

    /// Each item takes a byte and so does its `,` or the closing `]`.
    fn array_capacity_bound(&self) -> usize {
        (self.bytes.len() - self.pos) / 2
    }

    /// Walks the steps [`next_event`](Self::next_event) takes between
    /// two numbers of an array, and leaves anything else (the array's
    /// end, another value, an error) to it from the same state, so
    /// events and errors are unchanged.
    fn read_numbers(&mut self, out: &mut Vec<f64>) -> Result<Event<'a>, String> {
        while self.stack.last() == Some(&Container::Array) {
            if self.state == State::AfterValue {
                self.skip_ws();
                if self.peek() != Some(b',') {
                    break;
                }
                self.pos += 1;
                self.state = State::Value;
            } else if !matches!(self.state, State::ArrayFirst | State::Value) {
                break;
            }
            self.skip_ws();
            if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
                break;
            }
            self.offset = self.pos;
            self.state = State::AfterValue;
            out.push(self.number()?);
        }
        self.next_in_value()
    }
}

/// The events of an already built [`Json`] tree, in document order.
pub struct JsonEvents<'a> {
    root: Option<&'a Json>,
    stack: Vec<Walk<'a>>,
    last_array_len: usize,
}

enum Walk<'a> {
    Arr(std::slice::Iter<'a, Json>),
    /// Members still to visit and the value of the key just returned.
    Obj(std::slice::Iter<'a, (String, Json)>, Option<&'a Json>),
}

impl<'a> JsonEvents<'a> {
    /// A walk of `root`.
    pub fn new(root: &'a Json) -> Self {
        Self {
            root: Some(root),
            stack: Vec::new(),
            last_array_len: 0,
        }
    }

    fn enter(&mut self, value: &'a Json) -> Event<'a> {
        match value {
            Json::Null => Event::Null,
            Json::Bool(b) => Event::Bool(*b),
            Json::Num(x) => Event::Num(*x),
            Json::Str(s) => Event::Str(Cow::Borrowed(s)),
            Json::Arr(items) => {
                self.last_array_len = items.len();
                self.stack.push(Walk::Arr(items.iter()));
                Event::BeginArray
            }
            Json::Obj(members) => {
                self.stack.push(Walk::Obj(members.iter(), None));
                Event::BeginObject
            }
        }
    }
}

impl<'a> EventSource<'a> for JsonEvents<'a> {
    fn next_event(&mut self) -> Result<Option<Event<'a>>, String> {
        if let Some(root) = self.root.take() {
            return Ok(Some(self.enter(root)));
        }
        let next = match self.stack.last_mut() {
            None => return Ok(None),
            Some(Walk::Arr(items)) => items.next(),
            Some(Walk::Obj(members, pending)) => match pending.take() {
                Some(value) => Some(value),
                None => match members.next() {
                    Some((key, value)) => {
                        *pending = Some(value);
                        return Ok(Some(Event::Key(Cow::Borrowed(key))));
                    }
                    None => None,
                },
            },
        };
        Ok(Some(match next {
            Some(value) => self.enter(value),
            None => match self.stack.pop() {
                Some(Walk::Obj(..)) => Event::EndObject,
                _ => Event::EndArray,
            },
        }))
    }

    fn array_capacity_bound(&self) -> usize {
        self.last_array_len
    }

    fn read_numbers(&mut self, out: &mut Vec<f64>) -> Result<Event<'a>, String> {
        if let Some(Walk::Arr(items)) = self.stack.last_mut() {
            while let Some(Json::Num(x)) = items.as_slice().first() {
                out.push(*x);
                items.next();
            }
        }
        self.next_in_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(text: &str) -> Result<Vec<(usize, Event<'_>)>, String> {
        let mut tokens = Tokenizer::new(text);
        let mut out = Vec::new();
        while let Some(event) = tokens.next_event()? {
            out.push((tokens.offset(), event));
        }
        Ok(out)
    }

    #[test]
    fn events_carry_their_byte_offsets() {
        let got = events(" {\"a\": [1, \"x\\n\"], \"b\": null}").unwrap();
        let want = vec![
            (1, Event::BeginObject),
            (2, Event::Key("a".into())),
            (7, Event::BeginArray),
            (8, Event::Num(1.0)),
            (11, Event::Str(Cow::Owned("x\n".into()))),
            (16, Event::EndArray),
            (19, Event::Key("b".into())),
            (24, Event::Null),
            (28, Event::EndObject),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn plain_strings_are_borrowed() {
        let got = events("[\"plain\",\"esc\\t\"]").unwrap();
        assert!(matches!(got[1].1, Event::Str(Cow::Borrowed("plain"))));
        assert!(matches!(got[2].1, Event::Str(Cow::Owned(_))));
    }

    #[test]
    fn nesting_is_bounded_without_recursion() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert_eq!(
            Json::parse(&deep).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert_eq!(
            Json::parse(&objects).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} at byte {}", 5 * MAX_DEPTH)
        );
    }

    #[test]
    fn tree_walk_replays_the_tokenized_events() {
        let text = "{\"k\":[1,{\"z\":true,\"y\":[]},\"s\"],\"e\":{},\"n\":null}";
        let tree = Json::parse(text).unwrap();
        let mut walk = JsonEvents::new(&tree);
        let mut replayed = Vec::new();
        while let Some(event) = walk.next_event().unwrap() {
            replayed.push(event);
        }
        let tokenized: Vec<Event> = events(text).unwrap().into_iter().map(|(_, e)| e).collect();
        assert_eq!(replayed, tokenized);
    }

    #[test]
    fn array_bounds_cap_claimed_lengths() {
        let mut tokens = Tokenizer::new("[1,2,3]");
        assert_eq!(tokens.next_event().unwrap(), Some(Event::BeginArray));
        assert!(tokens.array_capacity_bound() >= 3);
        let tree = Json::parse("[[1,2,3,4]]").unwrap();
        let mut walk = JsonEvents::new(&tree);
        walk.next_event().unwrap();
        walk.next_event().unwrap();
        assert_eq!(walk.array_capacity_bound(), 4);
    }

    /// The tokenizer with the trait's default `read_numbers`.
    struct OneByOne<'a>(Tokenizer<'a>);

    impl<'a> EventSource<'a> for OneByOne<'a> {
        fn next_event(&mut self) -> Result<Option<Event<'a>>, String> {
            self.0.next_event()
        }
        fn array_capacity_bound(&self) -> usize {
            self.0.array_capacity_bound()
        }
    }

    /// The numbers `read_numbers` takes after the opening `[`, then the
    /// rest of the events, or the first error.
    fn numbers<'a>(src: &mut impl EventSource<'a>) -> (Vec<f64>, Vec<Result<Event<'a>, String>>) {
        let mut out = Vec::new();
        let mut rest = vec![src.next_in_value()];
        if rest[0] == Ok(Event::BeginArray) {
            rest.push(src.read_numbers(&mut out));
        }
        while let Some(Ok(_)) = rest.last() {
            match src.next_event() {
                Ok(None) => break,
                other => rest.push(other.map(|e| e.expect("some"))),
            }
        }
        (out, rest)
    }

    #[test]
    fn read_numbers_matches_one_event_at_a_time() {
        for text in [
            "[]",
            "[ ]",
            "[1, 2 ,3]",
            "[ -0.5e3 ,1E+2]",
            "[1,]",
            "[1 2]",
            "[-]",
            "[1,\"x\",2]",
            "[1,[2],3]",
            "[1.5.2]",
            "[",
            "[1,",
            "[1",
            "[1] x",
            "[01, -.5, 1.]",
            "[1,null]",
        ] {
            let fast = numbers(&mut Tokenizer::new(text));
            let slow = numbers(&mut OneByOne(Tokenizer::new(text)));
            assert_eq!(fast, slow, "{text}");
        }
    }

    #[test]
    fn skip_value_reads_past_nested_containers() {
        let mut tokens = Tokenizer::new("[[1,[2]],{\"a\":[3]},4]");
        tokens.next_event().unwrap();
        let first = tokens.next_in_value().unwrap();
        skip_value(&mut tokens, &first).unwrap();
        let first = tokens.next_in_value().unwrap();
        skip_value(&mut tokens, &first).unwrap();
        assert_eq!(tokens.next_in_value().unwrap(), Event::Num(4.0));
        assert_eq!(tokens.next_in_value().unwrap(), Event::EndArray);
        tokens.finish().unwrap();
    }
}
