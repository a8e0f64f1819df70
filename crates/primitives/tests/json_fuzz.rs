//! Seeded mutation fuzz of `smacs_primitives::json` on its own.
//!
//! Four properties, each over 10,000 cases in release and 300 in debug:
//!
//! - mutated documents (bit flips, truncations, splices, inserted
//!   structural bytes) never panic the parser, and whatever it accepts
//!   respects the nesting cap and survives `parse(render(v)) == v`;
//! - documents nested around the cap parse exactly when they are within it;
//! - generated trees, with strings that need every kind of escaping,
//!   survive `parse(render(v)) == v`, and their rendering holds no raw
//!   control character (RFC 8259 §7);
//! - an escaped and a plain spelling of the same string, `\u` surrogate
//!   pairs included, decode to equal values, as a string and as a key, and
//!   only the spelling with an escape is copied out of the text; the same
//!   spelling with one raw control character spliced in is refused.

use proptest::test_runner::TestRng;
use smacs_primitives::json::Json;
use std::borrow::Cow;

const CASES: u64 = if cfg!(debug_assertions) { 300 } else { 10_000 };

/// The nesting cap `Json::parse` documents.
const MAX_DEPTH: usize = 64;

/// The documents mutations start from: envelopes as the TS writes them,
/// every scalar kind at its limits, every escape, and free whitespace.
const SEEDS: &[&str] = &[
    r#"{"v":2,"op":"issue","body":{"ttype":"method","contract":"0x00000000000000000000000000000000000000c0","sender":"0x0000000000000000000000000000000000000001","method":"transfer(address,uint256)","args":[],"calldata":"0x00ff","one_time":false}}"#,
    r#"{"v":2,"ok":true,"body":{"results":[{"ok":true,"token_hex":"01ab","error":null},{"ok":false,"token_hex":null,"error":{"code":"rule_violation","message":"denied"}}]},"error":null}"#,
    "[0,-0,-1,170141183460469231731687303715884105727,-170141183460469231731687303715884105728,true,false,null]",
    r#"{"esc":"q\"b\\s\u0007\n\u001f\tè\/\b\f\r","astral":"😀😀","empty":"","nest":[[[{"a":{}}]]]}"#,
    "  { \"ws\" :\t[ 1 ,\r\n 2 ] , \"\u{7f}é\" : \"€\" }  ",
];

/// Bytes a mutation inserts: every byte the grammar gives meaning to.
const STRUCTURAL: &[u8] = b"{}[]\",:\\/0123456789-+.eEunltrfasbx \t\n\x00\x1f\x7f\xc3\xa9";

fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(members) => 1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

fn pick<'t, T>(rng: &mut TestRng, items: &'t [T]) -> &'t T {
    &items[rng.below(items.len() as u64) as usize]
}

/// One to four byte-level mutations of a seed.
fn mutate(rng: &mut TestRng) -> Vec<u8> {
    let mut bytes = pick(rng, SEEDS).as_bytes().to_vec();
    for _ in 0..=rng.below(4) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        match rng.below(5) {
            0 if !bytes.is_empty() => {
                let i = at.min(bytes.len() - 1);
                bytes[i] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(at),
            2 => {
                let other = pick(rng, SEEDS).as_bytes();
                let from = rng.below(other.len() as u64 + 1) as usize;
                bytes.truncate(at);
                bytes.extend_from_slice(&other[from..]);
            }
            3 => {
                let end = (at + rng.below(16) as usize).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => bytes.insert(at, *pick(rng, STRUCTURAL)),
        }
    }
    bytes
}

#[test]
fn mutated_documents_never_panic_and_round_trip() {
    let mut rng = TestRng::deterministic("mutated_documents_never_panic_and_round_trip", 0);
    let mut accepted = 0;
    for case in 0..CASES {
        let bytes = mutate(&mut rng);
        let text = String::from_utf8_lossy(&bytes);
        let Ok(v) = Json::parse(&text) else {
            continue;
        };
        accepted += 1;
        assert!(depth(&v) <= MAX_DEPTH, "case {case}: {text:?}");
        let rendered = v.render();
        let again = Json::parse(&rendered)
            .unwrap_or_else(|e| panic!("case {case}: {e}: {text:?} rendered {rendered:?}"));
        assert_eq!(again, v, "case {case}: {text:?}");
        assert_eq!(again.render(), rendered, "case {case}: not a fixed point");
    }
    assert!(accepted >= CASES / 20, "only {accepted} of {CASES} parsed");
}

#[test]
fn nesting_is_accepted_exactly_up_to_the_cap() {
    let mut rng = TestRng::deterministic("nesting_is_accepted_exactly_up_to_the_cap", 0);
    for case in 0..CASES {
        let levels = MAX_DEPTH - 4 + rng.below(9) as usize;
        let (mut open, mut close) = (String::new(), String::new());
        for _ in 0..levels {
            if rng.below(2) == 0 {
                open.push('[');
                close.insert(0, ']');
            } else {
                open.push_str(r#"{"k":"#);
                close.insert(0, '}');
            }
        }
        let leaf = pick(&mut rng, &["1", "\"s\"", "[]", "{}", "null"]);
        let leaf_depth = if leaf.starts_with(['[', '{']) { 1 } else { 0 };
        let text = format!("{open}{leaf}{close}");
        let parsed = Json::parse(&text);
        let within = levels + leaf_depth <= MAX_DEPTH;
        assert_eq!(parsed.is_ok(), within, "case {case}: {levels} + {leaf}");
        if let Ok(v) = parsed {
            assert_eq!(depth(&v), levels + leaf_depth, "case {case}");
        } else {
            assert!(parsed.unwrap_err().0.contains("nesting"), "case {case}");
        }
    }
}

/// Characters that exercise every branch of the string codec: plain ASCII,
/// the two characters that must be escaped, every short escape, other
/// control characters, DEL, and one to four UTF-8 bytes up to the last
/// code point.
const PALETTE: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{8}',
    '\u{c}',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '€',
    '\u{ffff}',
    '😀',
    '\u{10000}',
    '\u{10ffff}',
];

/// Up to 24 characters: long enough to span several of the 8-byte words
/// the string scanner classifies at once.
fn random_string(rng: &mut TestRng) -> String {
    (0..rng.below(25)).map(|_| *pick(rng, PALETTE)).collect()
}

fn random_tree(rng: &mut TestRng, depth: u32) -> Json<'static> {
    let leaf = depth == 0 || rng.below(3) == 0;
    match rng.below(if leaf { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Int(rng.next_u128() as i128 >> rng.below(128)),
        3 => Json::Str(random_string(rng).into()),
        4 => Json::Arr(
            (0..rng.below(4))
                .map(|_| random_tree(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (random_string(rng).into(), random_tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn generated_trees_round_trip() {
    let mut rng = TestRng::deterministic("generated_trees_round_trip", 0);
    for case in 0..CASES {
        let v = random_tree(&mut rng, 4);
        let text = v.render();
        assert!(!text.bytes().any(|b| b < 0x20), "case {case}: {text:?}");
        assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "case {case}: {text:?}");
    }
}

/// `c` spelled with an escape: a short form where one exists (half the
/// time), else `\u` with four hex digits of random case — as a surrogate
/// pair above the BMP.
fn escaped(rng: &mut TestRng, c: char) -> String {
    let short = match c {
        '"' => Some("\\\""),
        '\\' => Some("\\\\"),
        '/' => Some("\\/"),
        '\u{8}' => Some("\\b"),
        '\u{c}' => Some("\\f"),
        '\n' => Some("\\n"),
        '\r' => Some("\\r"),
        '\t' => Some("\\t"),
        _ => None,
    };
    if let Some(short) = short.filter(|_| rng.below(2) == 0) {
        return short.to_string();
    }
    let mut units = [0u16; 2];
    c.encode_utf16(&mut units)
        .iter()
        .map(|unit| {
            let hex = format!("\\u{unit:04x}");
            if rng.below(2) == 0 {
                hex.to_uppercase().replacen("\\U", "\\u", 1)
            } else {
                hex
            }
        })
        .collect()
}

#[test]
fn escaped_and_plain_spellings_decode_equal() {
    let mut rng = TestRng::deterministic("escaped_and_plain_spellings_decode_equal", 0);
    for case in 0..CASES {
        let s = random_string(&mut rng);
        // The plain spelling escapes only what must be; the other escapes
        // each character with probability one half.
        let plain = Json::Str(s.as_str().into()).render();
        let mut spelled = String::from('"');
        for c in s.chars() {
            let must = c == '"' || c == '\\' || c < ' ';
            if must || rng.below(2) == 0 {
                spelled.push_str(&escaped(&mut rng, c));
            } else {
                spelled.push(c);
            }
        }
        spelled.push('"');
        let expect = Json::Str(s.as_str().into());
        for text in [&plain, &spelled] {
            assert_eq!(
                Json::parse(text).as_ref(),
                Ok(&expect),
                "case {case}: {text}"
            );
            let object = format!("{{{text}:{text}}}");
            let parsed = Json::parse(&object).unwrap();
            let (key, value) = &parsed.as_obj().unwrap()[0];
            assert_eq!((key.as_ref(), value), (s.as_str(), &expect), "case {case}");
            let has_escape = text[1..text.len() - 1].contains('\\');
            assert_eq!(
                matches!(key, Cow::Owned(_)),
                has_escape,
                "case {case}: {text}"
            );
            let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).skip(1).collect();
            let at = *pick(&mut rng, &boundaries);
            let raw = format!("{}{}{}", &text[..at], pick(&mut rng, CONTROL), &text[at..]);
            assert!(Json::parse(&raw).is_err(), "case {case}: accepted {raw:?}");
        }
    }
}

/// Raw control characters, which a JSON string may only hold escaped.
const CONTROL: &[char] = &[
    '\u{0}', '\u{1}', '\n', '\u{f}', '\u{10}', '\u{1b}', '\u{1f}',
];
