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
//! **Decoding keeps a tree**: [`Json::parse`] builds a [`Json`] and
//! [`FromJson`] walks it. The tree caps nesting depth before any domain
//! code runs and lets a decoder look members up by name, in any order,
//! reading absent ones as defaults; a streaming decoder has not been
//! measured to pay for its extra code. Large members, such as an
//! envelope's body, are moved out with [`Json::take`], never cloned.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (the protocol uses no floats).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered.
    Obj(Vec<(String, Json)>),
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

impl Json {
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
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Object member lookup by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Object member lookup that errors with the key name when missing —
    /// the common shape in `FromJson` impls.
    pub fn want(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// Move member `key` out of this object, leaving `null` in its place:
    /// how a decoder takes a large member without cloning it. `null` when
    /// the member is absent or this is not an object.
    pub fn take(&mut self, key: &str) -> Json {
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

    // ---- parsing ----

    /// Parse a complete JSON document. Nesting deeper than `MAX_DEPTH`
    /// (64) levels is an error, not a stack overflow.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
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

/// Append `s` as a JSON string literal. Only `"`, `\` and control
/// characters are escaped; they are ASCII, so they never occur inside a
/// multi-byte character and every run between them is copied whole.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[plain..i]);
        plain = i + 1;
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
    }
    out.push_str(&s[plain..]);
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
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
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

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return err(format!(
                "floating-point numbers are not supported (offset {start})"
            ));
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits and minus are ASCII");
        text.parse::<i128>()
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the plain span.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError("invalid UTF-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
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
                                    .ok_or(JsonError("invalid surrogate pair".into()))?
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or(JsonError("invalid \\u escape".into()))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => return err("control character in string"),
                None => return err("unterminated string"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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

    fn object(&mut self) -> Result<Json, JsonError> {
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

    /// The value as a tree, parsed back from [`ToJson::write_json`]'s
    /// text. For tests and tools: nothing that sends JSON builds one.
    ///
    /// # Panics
    /// Panics if the value nests deeper than [`Json::parse`] accepts.
    fn to_json(&self) -> Json {
        Json::parse(&to_string(self)).expect("write_json emits JSON Json::parse accepts")
    }
}

/// Types that parse from JSON.
pub trait FromJson: Sized {
    /// Parse from a JSON value.
    fn from_json(json: &Json) -> Result<Self, JsonError>;

    /// Parse the member `key` of object `obj`. The default requires the
    /// member to be present; `Option<T>` overrides it so that an absent
    /// member reads as `None` (matching what serde's `Option` derive
    /// accepted). [`json_codec!`](crate::json_codec)-generated codecs go through this hook.
    fn from_json_field(obj: &Json, key: &str) -> Result<Self, JsonError> {
        Self::from_json(obj.want(key)?)
    }
}

/// Compact JSON text of `value`: [`ToJson::write_json`] into a new string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Parse a JSON string into `T`.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(input)?)
}

// ---- blanket/basic impls ----

impl ToJson for Json {
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

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
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

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool().ok_or(JsonError("expected bool".into()))
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

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str()
            .map(str::to_string)
            .ok_or(JsonError("expected string".into()))
    }
}

macro_rules! int_to_json {
    ($($t:ty),+ $(,)?) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                let v = json.as_int().ok_or(JsonError("expected integer".into()))?;
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

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }

    fn from_json_field(obj: &Json, key: &str) -> Result<Self, JsonError> {
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

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr()
            .ok_or(JsonError("expected array".into()))?
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

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_obj()
            .ok_or(JsonError("expected object".into()))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

impl ToJson for BTreeSet<String> {
    fn write_json(&self, out: &mut String) {
        write_seq(out, self);
    }
}

impl FromJson for BTreeSet<String> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr()
            .ok_or(JsonError("expected array".into()))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or(JsonError("expected string".into()))
            })
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
/// A field may be suffixed `= default`: on parse an absent member becomes
/// `Default::default()` instead of an error (rendering still always emits
/// the member). Use it for fields added after serialized data already
/// exists in the wild — old JSON keeps decoding.
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
///         /// Added in v2: absent in old JSON, decodes to empty.
///         pub tags: Vec<String> = default,
///     }
/// }
///
/// let pin = Pin { label: "a".into(), x: 3, note: None, tags: vec!["t".into()] };
/// let text = smacs_primitives::json::to_string(&pin);
/// assert_eq!(text, r#"{"label":"a","x":3,"note":null,"tags":["t"]}"#);
/// let back: Pin = smacs_primitives::json::from_str(&text).unwrap();
/// assert_eq!(back, pin);
/// // Absent Option members parse as None; absent `= default` members
/// // parse as Default::default().
/// let sparse: Pin = smacs_primitives::json::from_str(r#"{"label":"b","x":1}"#).unwrap();
/// assert_eq!(sparse.note, None);
/// assert_eq!(sparse.tags, Vec::<String>::new());
/// ```
#[macro_export]
macro_rules! json_codec {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty $(= $marker:ident)?),* $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut String) {
                $crate::json::ObjectWriter::new(out)
                    $(.member(stringify!($field), &self.$field))*
                    .end();
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(json: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($name {
                    $($field: $crate::json_codec!(@parse json, $field, $ty $(, $marker)?),)*
                })
            }
        }
    };
    // Plain field: delegate to from_json_field (Option-aware, else required).
    (@parse $json:ident, $field:ident, $ty:ty) => {
        <$ty as $crate::json::FromJson>::from_json_field($json, stringify!($field))?
    };
    // `= default` field: absent member decodes to Default::default().
    (@parse $json:ident, $field:ident, $ty:ty, default) => {
        match $json.get(stringify!($field)) {
            Some(value) => <$ty as $crate::json::FromJson>::from_json(value)?,
            None => <$ty as ::core::default::Default>::default(),
        }
    };
}

impl ToJson for crate::Address {
    fn write_json(&self, out: &mut String) {
        write_str(out, &self.to_hex());
    }
}

impl FromJson for crate::Address {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let s = json.as_str().ok_or(JsonError("expected address".into()))?;
        crate::Address::from_hex(s).ok_or(JsonError(format!("bad address {s:?}")))
    }
}

impl ToJson for crate::U256 {
    fn write_json(&self, out: &mut String) {
        write_str(out, &self.to_dec_string());
    }
}

impl FromJson for crate::U256 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let s = json
            .as_str()
            .ok_or(JsonError("expected decimal string".into()))?;
        crate::U256::from_dec_str(s).ok_or(JsonError(format!("bad u256 {s:?}")))
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
