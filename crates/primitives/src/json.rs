//! A small JSON layer: one encoder, a value tree, and its parser.
//!
//! The build environment has no serde, so the workspace carries its own.
//! Object key order is preserved, integers are `i128` (the SMACS protocol
//! uses no floats), and strings support the full escape set including
//! `\uXXXX` surrogate pairs.
//!
//! **Encoding has one path**: [`ToJson::write_json`] appends a value's
//! compact text to a `String` — on the wire, the envelope a sender is
//! writing — so no tree is built on the way out.
//! [`json_codec!`](crate::json_codec) generates it from a struct's field
//! list, and every object encoder goes through [`ObjectWriter`].
//! [`ToJson::to_json`] (the tree, parsed back from that text) and
//! [`to_string`] are for tests and tools.
//!
//! **Decoding keeps a borrowed tree**: [`Json::parse`] builds a
//! [`Json<'a>`](Json) whose unescaped strings and keys are slices of the
//! text (only an escaped one is copied), so an escape-free document costs
//! one `Vec` per non-empty array or object; [`FromJson`] walks it, copying
//! only what it keeps. The tree caps nesting depth before any domain code
//! runs and lets a decoder look members up by name, in any order, reading
//! absent ones as defaults. Large members, such as an envelope's body, are
//! moved out with [`Json::take`], never cloned.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

/// A JSON value, borrowing its unescaped strings and keys from the text it
/// was parsed from.
#[derive(Clone, Debug, PartialEq)]
pub enum Json<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (the protocol uses no floats).
    Int(i128),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object; insertion-ordered.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

/// Parse or schema failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl<'a> Json<'a> {
    // ---- accessors ----

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(Cow<'a, str>, Json<'a>)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Object member lookup by key.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        self.as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Object member lookup that errors with the key name when missing —
    /// the common shape in `FromJson` impls.
    pub fn want(&self, key: &str) -> Result<&Json<'a>, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// Move member `key` out of this object, leaving `null` in its place:
    /// how a decoder takes a large member without cloning it. `null` when
    /// the member is absent or this is not an object.
    pub fn take(&mut self, key: &str) -> Json<'a> {
        let Json::Obj(members) = self else {
            return Json::Null;
        };
        members
            .iter_mut()
            .find(|(k, _)| k == key)
            .map_or(Json::Null, |(_, v)| std::mem::replace(v, Json::Null))
    }

    /// Compact rendering: [`to_string`] of the tree.
    pub fn render(&self) -> String {
        to_string(self)
    }

    /// The same tree with every string and key copied out of the text.
    fn into_owned(self) -> Json<'static> {
        let owned = |s: Cow<'_, str>| Cow::Owned(s.into_owned());
        match self {
            Json::Null => Json::Null,
            Json::Bool(b) => Json::Bool(b),
            Json::Int(v) => Json::Int(v),
            Json::Str(s) => Json::Str(owned(s)),
            Json::Arr(items) => Json::Arr(items.into_iter().map(Json::into_owned).collect()),
            Json::Obj(members) => Json::Obj(
                members
                    .into_iter()
                    .map(|(k, v)| (owned(k), v.into_owned()))
                    .collect(),
            ),
        }
    }

    // ---- parsing ----

    /// Parse a complete JSON document; unescaped strings and keys borrow
    /// from `input`. Nesting deeper than `MAX_DEPTH` (64) levels is an
    /// error, not a stack overflow.
    pub fn parse(input: &'a str) -> Result<Json<'a>, JsonError> {
        let mut parser = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return err(format!("trailing characters at offset {}", parser.pos));
        }
        Ok(value)
    }
}

/// Length of the prefix of `bytes` that a JSON string carries verbatim:
/// everything before the first `"`, `\` or control character. Those are
/// ASCII, so the prefix ends on a character boundary. Whole 8-byte words
/// are classified at once (SWAR: a word holds a byte below `n` iff
/// `(x - n·0x01…) & !x & 0x80…` is non-zero); only the rest is scanned
/// byte by byte.
fn plain_prefix(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let below = |x: u64, n: u64| x.wrapping_sub(ONES * n) & !x & (ONES << 7);
    let plain_word = |word: &[u8]| {
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        // No `"` (0x22), no `\` (0x5c), no control character.
        below(x ^ (ONES * 0x22), 1) | below(x ^ (ONES * 0x5c), 1) | below(x, 0x20) == 0
    };
    let words = 8 * bytes.chunks_exact(8).take_while(|w| plain_word(w)).count();
    let stop = |&b: &u8| b == b'"' || b == b'\\' || b < 0x20;
    bytes[words..]
        .iter()
        .position(stop)
        .map_or(bytes.len(), |i| words + i)
}

/// Append `s` as a JSON string literal. Only `"`, `\` and control
/// characters are escaped; every run between them is copied whole.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    loop {
        let stop = plain + plain_prefix(&s.as_bytes()[plain..]);
        out.push_str(&s[plain..stop]);
        let Some(&b) = s.as_bytes().get(stop) else {
            break;
        };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        plain = stop + 1;
    }
    out.push('"');
}

/// Append `[item,item,…]`.
fn write_seq<'a, T: ToJson + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Writes one JSON object into a `String`, member by member: the encoder
/// [`json_codec!`](crate::json_codec) generates, and what hand codecs call.
///
/// ```
/// use smacs_primitives::json::ObjectWriter;
///
/// let mut out = String::new();
/// ObjectWriter::new(&mut out).member("v", &2).member("op", "ping").end();
/// assert_eq!(out, r#"{"v":2,"op":"ping"}"#);
/// ```
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Open an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Append the member `key: value`.
    pub fn member<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        write_str(self.out, key);
        self.out.push(':');
        value.write_json(self.out);
        self
    }

    /// Close the object.
    pub fn end(&mut self) {
        self.out.push('}');
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a network body of nested `[`
/// overflows the parsing thread's stack and aborts the whole process (at
/// ≈ 9,300 levels on a 2 MiB worker stack). The deepest document any TS op
/// accepts is a `set_rules` envelope with per-method or per-argument
/// lists: 8 levels (envelope → body → rules → types → type → method →
/// policy → list).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json<'a>) -> Result<Json<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return err(format!(
                        "nesting deeper than {MAX_DEPTH} at offset {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => err(format!(
                "unexpected character {:?} at offset {}",
                other as char, self.pos
            )),
            None => err("unexpected end of input"),
        }
    }

    /// An integer: `-? (0 | [1-9][0-9]*)` (RFC 8259 §6 — no leading zeros).
    fn number(&mut self) -> Result<Json<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos - digits > 1 && self.bytes[digits] == b'0' {
            return err(format!("leading zero in number at offset {start}"));
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return err(format!(
                "floating-point numbers are not supported (offset {start})"
            ));
        }
        self.text[start..self.pos]
            .parse::<i128>()
            .map(Json::Int)
            .map_err(|_| JsonError(format!("invalid number at offset {start}")))
    }

    /// The four hex digits of a `\u` escape — exactly four ASCII hex
    /// digits, no sign.
    fn hex4(&mut self) -> Result<u16, JsonError> {
        let Some(digits) = self.bytes.get(self.pos..self.pos + 4) else {
            return err("truncated \\u escape");
        };
        let mut v = 0u16;
        for &b in digits {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| JsonError(format!("bad \\u escape at offset {}", self.pos)))?;
            v = v << 4 | digit as u16;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Advance over the plain string bytes ahead (see `plain_prefix`):
    /// always a whole `str` slice.
    fn plain_span(&mut self) -> &'a str {
        let start = self.pos;
        self.pos += plain_prefix(&self.bytes[start..]);
        &self.text[start..self.pos]
    }

    /// A string literal: a slice of the input when it holds no escape,
    /// else unescaped into its own `String`.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let plain = self.plain_span();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = String::from(plain);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return err("unpaired surrogate");
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return err("invalid low surrogate");
                                }
                                let code =
                                    0x10000 + ((hi as u32 - 0xD800) << 10) + (lo as u32 - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError("invalid surrogate pair".into()))?
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| JsonError("invalid \\u escape".into()))?
                            };
                            out.push(c);
                            out.push_str(self.plain_span());
                            continue;
                        }
                        _ => return err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                    out.push_str(self.plain_span());
                }
                Some(_) => return err("control character in string"),
                None => return err("unterminated string"),
            }
        }
    }

    fn array(&mut self) -> Result<Json<'a>, JsonError> {
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
                _ => return err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json<'a>, JsonError> {
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
                _ => return err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

/// Types that encode to JSON.
pub trait ToJson {
    /// Append this value's compact JSON text to `out` — the one encoder.
    fn write_json(&self, out: &mut String);

    /// The value as an owned tree, parsed back from
    /// [`ToJson::write_json`]'s text. For tests and tools: nothing that
    /// sends JSON builds one.
    ///
    /// # Panics
    /// Panics if the value nests deeper than [`Json::parse`] accepts.
    fn to_json(&self) -> Json<'static> {
        Json::parse(&to_string(self))
            .expect("write_json emits JSON Json::parse accepts")
            .into_owned()
    }
}

/// Types that decode from a tree over text that lives for `'a`; a type
/// that owns its data implements `FromJson<'_>`.
pub trait FromJson<'a>: Sized {
    /// Parse from a JSON value.
    fn from_json(json: &Json<'a>) -> Result<Self, JsonError>;

    /// Parse the member `key` of object `obj`. The default requires the
    /// member to be present; `Option<T>` overrides it so that an absent
    /// member reads as `None` (matching what serde's `Option` derive
    /// accepted). [`json_codec!`](crate::json_codec)-generated codecs go through this hook.
    fn from_json_field(obj: &Json<'a>, key: &str) -> Result<Self, JsonError> {
        Self::from_json(obj.want(key)?)
    }
}

/// Compact JSON text of `value`: [`ToJson::write_json`] into a new string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Parse a JSON string into `T`, which may borrow from `input`.
pub fn from_str<'a, T: FromJson<'a>>(input: &'a str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(input)?)
}

/// Bytes written as a `"0x…"` hex string, straight into the output: hex
/// needs no escaping, so nothing is built or scanned on the way.
pub struct Hex<'b>(pub &'b [u8]);

impl ToJson for Hex<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str("\"0x");
        hex::encode_to(self.0, out);
        out.push('"');
    }
}

// ---- blanket/basic impls ----

impl ToJson for Json<'_> {
    fn write_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::Int(v) => v.write_json(out),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, items),
            Json::Obj(members) => {
                let mut object = ObjectWriter::new(out);
                for (key, value) in members {
                    object.member(key, value);
                }
                object.end();
            }
        }
    }
}

impl<'a> FromJson<'a> for Json<'a> {
    fn from_json(json: &Json<'a>) -> Result<Self, JsonError> {
        Ok(json.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson<'_> for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool()
            .ok_or_else(|| JsonError("expected bool".into()))
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl FromJson<'_> for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError("expected string".into()))
    }
}

impl ToJson for Cow<'_, str> {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<'a> FromJson<'a> for Cow<'a, str> {
    fn from_json(json: &Json<'a>) -> Result<Self, JsonError> {
        match json {
            Json::Str(s) => Ok(s.clone()),
            _ => err("expected string"),
        }
    }
}

macro_rules! int_to_json {
    ($($t:ty),+ $(,)?) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
        impl FromJson<'_> for $t {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                let v = json.as_int().ok_or_else(|| JsonError("expected integer".into()))?;
                <$t>::try_from(v).map_err(|_| JsonError("integer out of range".into()))
            }
        }
    )+};
}

int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, i128);

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Option<T> {
    fn from_json(json: &Json<'a>) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }

    fn from_json_field(obj: &Json<'a>, key: &str) -> Result<Self, JsonError> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => Ok(Some(T::from_json(v)?)),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn from_json(json: &Json<'a>) -> Result<Self, JsonError> {
        json.as_arr()
            .ok_or_else(|| JsonError("expected array".into()))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn write_json(&self, out: &mut String) {
        let mut object = ObjectWriter::new(out);
        for (key, value) in self {
            object.member(key, value);
        }
        object.end();
    }
}

impl<'a, V: FromJson<'a>> FromJson<'a> for BTreeMap<String, V> {
    fn from_json(json: &Json<'a>) -> Result<Self, JsonError> {
        json.as_obj()
            .ok_or_else(|| JsonError("expected object".into()))?
            .iter()
            .map(|(k, v)| Ok((k.to_string(), V::from_json(v)?)))
            .collect()
    }
}

impl ToJson for BTreeSet<String> {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl FromJson<'_> for BTreeSet<String> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr()
            .ok_or_else(|| JsonError("expected array".into()))?
            .iter()
            .map(String::from_json)
            .collect()
    }
}

/// Derive-style codec generator: defines a plain struct and hand-rolls the
/// [`ToJson`]/[`FromJson`] impls serde would have derived — one object
/// member per field, named after the field.
///
/// Attributes (doc comments, `#[derive(...)]`) pass through to the struct;
/// `Option<T>` fields tolerate absent members on parse (via
/// [`FromJson::from_json_field`]) and render as `null` when `None`.
///
/// A struct may take one lifetime, `struct Name<'a>`, and then its fields
/// may borrow from the tree it decodes (a [`Json<'a>`](Json) member, a
/// `Cow<'a, str>`).
///
/// ```
/// use smacs_primitives::json_codec;
///
/// json_codec! {
///     /// A labelled point.
///     #[derive(Clone, Debug, PartialEq)]
///     pub struct Pin {
///         /// Display label.
///         pub label: String,
///         pub x: i64,
///         pub note: Option<String>,
///     }
/// }
///
/// let pin = Pin { label: "a".into(), x: 3, note: None };
/// let text = smacs_primitives::json::to_string(&pin);
/// assert_eq!(text, r#"{"label":"a","x":3,"note":null}"#);
/// let back: Pin = smacs_primitives::json::from_str(&text).unwrap();
/// assert_eq!(back, pin);
/// // Absent Option members parse as None.
/// let sparse: Pin = smacs_primitives::json::from_str(r#"{"label":"b","x":1}"#).unwrap();
/// assert_eq!(sparse.note, None);
/// ```
#[macro_export]
macro_rules! json_codec {
    ($(#[$meta:meta])* $vis:vis struct $name:ident $(<$lt:lifetime>)? {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name $(<$lt>)? {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $(<$lt>)? $crate::json::ToJson for $name $(<$lt>)? {
            fn write_json(&self, out: &mut String) {
                $crate::json::ObjectWriter::new(out)
                    $(.member(stringify!($field), &self.$field))*
                    .end();
            }
        }

        impl<'json $(, $lt)?> $crate::json::FromJson<'json> for $name $(<$lt>)?
        $(where 'json: $lt)?
        {
            fn from_json(json: &$crate::json::Json<'json>) -> Result<Self, $crate::json::JsonError> {
                Ok($name {
                    $($field: <$ty as $crate::json::FromJson>::from_json_field(json, stringify!($field))?,)*
                })
            }
        }
    };
}

impl ToJson for crate::Address {
    fn write_json(&self, out: &mut String) {
        Hex(&self.0).write_json(out);
    }
}

impl FromJson<'_> for crate::Address {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let s = json
            .as_str()
            .ok_or_else(|| JsonError("expected address".into()))?;
        crate::Address::from_hex(s).ok_or_else(|| JsonError(format!("bad address {s:?}")))
    }
}

impl ToJson for crate::U256 {
    fn write_json(&self, out: &mut String) {
        write_str(out, &self.to_dec_string());
    }
}

impl FromJson<'_> for crate::U256 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let s = json
            .as_str()
            .ok_or_else(|| JsonError("expected decimal string".into()))?;
        crate::U256::from_dec_str(s).ok_or_else(|| JsonError(format!("bad u256 {s:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "170141183460469231731687303715884105727",
        ] {
            assert_eq!(Json::parse(text).unwrap().render(), text);
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("line\nquote\" back\\ tab\t unicode \u{1F600} nul\u{0}".into());
        let rendered = original.render();
        assert_eq!(Json::parse(&rendered).unwrap(), original);
    }

    #[test]
    fn string_escapes_are_exactly_the_minimal_set() {
        // Quote, backslash and the five short forms by name, other control
        // characters as lower-case `\u00xx`, everything else verbatim
        // (DEL and non-ASCII included).
        let text = to_string("a\"b\\c\n\r\t\u{0}\u{8}\u{1f}\u{7f}/é€😀");
        let expected = concat!(r#""a\"b\\c\n\r\t\u0000\u0008\u001f"#, "\u{7f}", r#"/é€😀""#);
        assert_eq!(text, expected);
        assert_eq!(to_string(""), r#""""#);
    }

    #[test]
    fn surrogate_pair_parsing() {
        assert_eq!(
            Json::parse(r#""😀""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert!(Json::parse(r#""\u+041""#).is_err());
        assert!(Json::parse(r#""\u004""#).is_err());
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        assert_eq!(
            Json::parse(r#""\ud83D\uDE00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
    }

    #[test]
    fn numbers_refuse_leading_zeros() {
        for text in [r#"{"v":02}"#, "-007", "00", "-01", "[0,01]", "-", "--1"] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
        assert!(Json::parse("01").unwrap_err().0.contains("leading zero"));
        for (text, value) in [("0", 0), ("-0", 0), ("10", 10), ("-100", -100)] {
            assert_eq!(Json::parse(text).unwrap(), Json::Int(value), "{text}");
        }
        assert_eq!(
            Json::parse(r#"{"v":0}"#).unwrap().get("v"),
            Some(&Json::Int(0))
        );
    }

    #[test]
    fn unescaped_strings_and_keys_borrow_from_the_input() {
        let v = Json::parse(r#"{"plain":"text","esc\u0061ped":"a\"b","😀":"é"}"#).unwrap();
        let borrowed = |s: &Cow<str>| matches!(s, Cow::Borrowed(_));
        let members = v.as_obj().unwrap();
        assert!(borrowed(&members[0].0));
        assert!(matches!(&members[0].1, Json::Str(s) if borrowed(s)));
        assert!(!borrowed(&members[1].0));
        assert_eq!(members[1].0, "escaped");
        assert!(matches!(&members[1].1, Json::Str(s) if !borrowed(s) && s == "a\"b"));
        assert!(borrowed(&members[2].0));
        assert!(matches!(&members[2].1, Json::Str(s) if borrowed(s)));
        // The owned form compares equal to the borrowed one.
        assert_eq!(v.to_json(), v);
    }

    #[test]
    fn plain_prefix_matches_the_bytewise_scan() {
        let stops = [
            b'"', b'\\', 0x00, 0x1f, b' ', b'!', 0x7f, 0x80, 0xff, 0x20, 0x21, 0x5b,
        ];
        let mut rng = proptest::test_runner::TestRng::deterministic("plain_prefix", 0);
        for _ in 0..2_000 {
            let len = rng.below(40) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| match rng.below(4) {
                    0 => stops[rng.below(stops.len() as u64) as usize],
                    _ => rng.below(256) as u8,
                })
                .collect();
            let naive = bytes
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(bytes.len());
            assert_eq!(plain_prefix(&bytes), naive, "{bytes:?}");
        }
    }

    #[test]
    fn nested_structures() {
        let text = r#"{"a": [1, 2, {"b": null}], "c": {"d": "e"}, "empty": [], "eo": {}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("e"));
        assert_eq!(
            v.render(),
            r#"{"a":[1,2,{"b":null}],"c":{"d":"e"},"empty":[],"eo":{}}"#
        );
        assert_eq!(v.to_json(), v);
    }

    #[test]
    fn take_moves_a_member_out_and_leaves_null() {
        let mut v = Json::parse(r#"{"v":2,"body":{"big":[1,2,3]}}"#).unwrap();
        let body = v.take("body");
        assert_eq!(body.render(), r#"{"big":[1,2,3]}"#);
        assert_eq!(v.render(), r#"{"v":2,"body":null}"#);
        assert_eq!(v.take("absent"), Json::Null);
        assert_eq!(Json::Int(1).take("body"), Json::Null);
    }

    #[test]
    fn rejects_garbage() {
        for text in [
            "{not json",
            "[1,",
            "\"open",
            "{\"a\":}",
            "1.5",
            "1e9",
            "[] []",
            "",
        ] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let open_arrays = "[".repeat(1 << 20);
        assert!(Json::parse(&open_arrays).is_err());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(1 << 16), "}".repeat(1 << 16));
        assert!(Json::parse(&objects).is_err());
        // The cap itself still parses; one level more does not.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let over = format!("[{at_cap}]");
        assert!(Json::parse(&over).unwrap_err().0.contains("nesting"));
    }

    #[test]
    fn preserves_key_order() {
        let v = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn json_codec_macro_round_trips_and_tolerates_absent_options() {
        crate::json_codec! {
            #[derive(Clone, Debug, PartialEq)]
            struct Sample {
                name: String,
                count: u32,
                tag: Option<String>,
                items: Vec<u64>,
            }
        }
        let full = Sample {
            name: "x".into(),
            count: 7,
            tag: Some("t".into()),
            items: vec![1, 2],
        };
        let text = super::to_string(&full);
        assert_eq!(text, r#"{"name":"x","count":7,"tag":"t","items":[1,2]}"#);
        assert_eq!(super::from_str::<Sample>(&text).unwrap(), full);
        // Absent option → None; absent required field → error naming it.
        let sparse: Sample = super::from_str(r#"{"name":"y","count":1,"items":[]}"#).unwrap();
        assert_eq!(sparse.tag, None);
        let missing = super::from_str::<Sample>(r#"{"name":"z"}"#).unwrap_err();
        assert!(missing.0.contains("count"), "{missing}");
    }

    #[test]
    fn primitive_codecs() {
        let addr = crate::Address::from_low_u64(0xabcd);
        assert_eq!(crate::Address::from_json(&addr.to_json()).unwrap(), addr);
        let v = crate::U256::from_u64(12345);
        assert_eq!(crate::U256::from_json(&v.to_json()).unwrap(), v);
        let xs: Vec<u64> = vec![1, 2, 3];
        assert_eq!(Vec::<u64>::from_json(&xs.to_json()).unwrap(), xs);
        let none: Option<String> = None;
        assert_eq!(Option::<String>::from_json(&none.to_json()).unwrap(), none);
        assert_eq!(to_string(&i128::MIN), i128::MIN.to_string());
        assert_eq!(to_string(&u64::MAX), u64::MAX.to_string());
    }
}
