//! The string reader against the writer and against hand-made escapes:
//! every drawn string must come back from its own compact form, and
//! from a form with each character spelled any way JSON allows — raw,
//! as a short escape, or as `\uXXXX` (a surrogate pair past the BMP).
//! Malformed strings keep the byte offset and the message of each
//! error, which reach clients verbatim in `bad request JSON: …` bodies.

use beff_check::{check, Gen};
use beff_json::{parse, Json, JsonError};

const SPECIAL: [char; 12] =
    ['"', '\\', '\u{08}', '\t', '\n', '\u{0c}', '\r', '\u{0}', '\u{01}', '\u{1f}', '\u{7f}', '/'];
const WIDE: [char; 8] = ['é', 'ß', '€', '中', '\u{2028}', '\u{FFFF}', '\u{10000}', '\u{1F600}'];

fn text(g: &mut Gen) -> String {
    let len = g.usize(0..=24);
    (0..len)
        .map(|_| match g.usize(0..=4) {
            0 => *g.choose(&SPECIAL),
            1 => *g.choose(&WIDE),
            2 => char::from(g.u32(0..=0x1f) as u8),
            3 => char::from_u32(g.u32(0x80..=0x10_FFFF)).unwrap_or('\u{FFFD}'),
            _ => char::from(g.u32(0x20..=0x7e) as u8),
        })
        .collect()
}

/// `s` as a JSON string literal with each character spelled at random
/// among the spellings the grammar allows it.
fn spelled_any_way(g: &mut Gen, s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\u{08}' => Some("\\b"),
            '\u{0c}' => Some("\\f"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            _ => None,
        };
        let raw_ok = !matches!(c, '"' | '\\') && u32::from(c) >= 0x20;
        match (g.usize(0..=2), short) {
            (0, _) if raw_ok => out.push(c),
            (1, Some(escape)) => out.push_str(escape),
            _ => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let hex =
                        if g.bool() { format!("\\u{unit:04x}") } else { format!("\\u{unit:04X}") };
                    out.push_str(&hex);
                }
            }
        }
    }
    out.push('"');
    out
}

#[test]
fn strings_round_trip_through_the_writer() {
    check("strings_round_trip_through_the_writer", |g| {
        let s = text(g);
        assert_eq!(parse(&beff_json::to_string(&s)), Ok(Json::Str(s.clone())), "{s:?}");
    });
}

#[test]
fn strings_round_trip_from_every_spelling() {
    check("strings_round_trip_from_every_spelling", |g| {
        let s = text(g);
        let literal = spelled_any_way(g, &s);
        assert_eq!(parse(&literal), Ok(Json::Str(s.clone())), "{literal}");
        // the same text as an object key, beside a value
        let doc = format!("{{{literal}:{literal}}}");
        assert_eq!(parse(&doc), Ok(Json::Obj(vec![(s.clone(), Json::Str(s))])), "{doc}");
    });
}

#[test]
fn malformed_strings_keep_their_offsets_and_messages() {
    const UNTERMINATED: &str = "unterminated string";
    const CONTROL: &str = "unescaped control character in string";
    const BAD_ESCAPE: &str = "bad escape sequence";
    const BAD_U: &str = "bad \\u escape";
    const UNPAIRED: &str = "unpaired surrogate";
    let table: [(&str, usize, &str); 22] = [
        // unterminated, and truncated inside a run
        ("\"abc", 4, UNTERMINATED),
        ("{\"machine\":\"t3e", 15, UNTERMINATED),
        ("[\"abc\", \"de", 11, UNTERMINATED),
        ("\"h\u{e9}llo w\u{f6}r", 12, UNTERMINATED),
        ("{\"ab", 4, UNTERMINATED),
        ("\"", 1, UNTERMINATED),
        // a raw control character, in a value, after wide text, in a key
        ("\"a\nb\"", 2, CONTROL),
        ("\"tab\there\"", 4, CONTROL),
        ("\"\u{0}\"", 1, CONTROL),
        ("\"\u{e9}\u{1}\"", 3, CONTROL),
        ("{\"k\u{1f}\":1}", 3, CONTROL),
        // bad escapes
        ("\"\\x\"", 2, BAD_ESCAPE),
        ("\"\\", 2, BAD_ESCAPE),
        ("\"abc\\", 5, BAD_ESCAPE),
        ("\"\\u12G4\"", 5, BAD_U),
        ("\"\\u12", 5, BAD_U),
        // unpaired surrogates: high alone, high before a non-low unit,
        // high before another escape, high at the end, low alone
        ("\"\\ud800\"", 7, UNPAIRED),
        ("\"\\ud800\\u0041\"", 13, UNPAIRED),
        ("\"\\ud800\\n\"", 8, UNPAIRED),
        ("\"\\ud800", 7, UNPAIRED),
        ("\"\\udc00 alone\"", 7, UNPAIRED),
        ("\"ok\\u00e9 \\ude00\"", 16, UNPAIRED),
    ];
    for (input, at, msg) in table {
        assert_eq!(parse(input), Err(JsonError { at, msg: msg.to_string() }), "{input:?}");
    }
}
