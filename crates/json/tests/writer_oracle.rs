//! The writers against the per-`char` reference they replaced: every
//! string escaped one `char` at a time, every integer through a
//! temporary `String`, every object's key order sorted in a heap `Vec`.
//! `to_string` and `to_canonical` must stay byte-equal to it — quotes,
//! backslashes, control characters and non-ASCII text; the integer
//! edges; objects past the 16 fields the canonical writer sorts on the
//! stack; and duplicate keys, whose relative order must stay stable.

use beff_check::{check, Gen};
use beff_json::Json;

fn escape_per_char(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{08}' => out.push_str("\\b"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\u{0c}' => out.push_str("\\f"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The reference compact (`canonical == false`) and canonical writer.
fn oracle(v: &Json, canonical: bool, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::UInt(n) => out.push_str(&n.to_string()),
        // Float layout is pinned by the writer's own unit tests.
        Json::Float(_) => out.push_str(&beff_json::to_string(v)),
        Json::Str(s) => escape_per_char(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                oracle(item, canonical, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            let mut order: Vec<usize> = (0..fields.len()).collect();
            if canonical {
                order.sort_by(|&a, &b| fields[a].0.as_bytes().cmp(fields[b].0.as_bytes()));
            }
            out.push('{');
            for (i, &idx) in order.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_per_char(&fields[idx].0, out);
                out.push(':');
                oracle(&fields[idx].1, canonical, out);
            }
            out.push('}');
        }
    }
}

fn assert_matches_oracle(doc: &Json) {
    let (mut compact, mut canonical) = (String::new(), String::new());
    oracle(doc, false, &mut compact);
    oracle(doc, true, &mut canonical);
    assert_eq!(beff_json::to_string(doc), compact);
    assert_eq!(beff_json::to_canonical(doc), canonical);
}

const SPECIAL: [char; 12] =
    ['"', '\\', '\u{08}', '\t', '\n', '\u{0c}', '\r', '\u{0}', '\u{01}', '\u{1f}', '\u{7f}', '/'];
const WIDE: [char; 6] = ['é', 'ß', '€', '中', '\u{2028}', '\u{1F600}'];

fn text(g: &mut Gen) -> String {
    let len = g.usize(0..=12);
    (0..len)
        .map(|_| match g.usize(0..=3) {
            0 => *g.choose(&SPECIAL),
            1 => *g.choose(&WIDE),
            2 => char::from(g.u32(0..=0x1f) as u8),
            _ => char::from(g.u32(0x20..=0x7e) as u8),
        })
        .collect()
}

/// Keys from a small pool (duplicates are common, some need escaping),
/// or fresh text.
fn key(g: &mut Gen) -> String {
    const POOL: [&str; 7] = ["a", "b", "ab", "B", "", "é", "a\"\\\u{01}"];
    if g.bool() {
        (*g.choose(&POOL)).to_string()
    } else {
        text(g)
    }
}

fn value(g: &mut Gen, depth: usize) -> Json {
    match g.usize(0..=if depth == 0 { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(g.bool()),
        2 => {
            let any = g.i64(i64::MIN..=i64::MAX);
            Json::Int(*g.choose(&[0, -1, i64::MIN, i64::MAX, any]))
        }
        3 => {
            let any = g.u64(0..=u64::MAX);
            Json::UInt(*g.choose(&[0, 9, 10, u64::MAX, any]))
        }
        4 => Json::Float(g.f64(-1e6, 1e6)),
        5 => Json::Str(text(g)),
        6 => Json::Arr(g.vec(0..=4, |g| value(g, depth - 1))),
        _ => object(g, depth - 1),
    }
}

/// Up to 24 fields: both the stack sort (≤ 16) and the heap fallback.
fn object(g: &mut Gen, depth: usize) -> Json {
    Json::Obj(g.vec(0..=24, |g| (key(g), value(g, depth))))
}

#[test]
fn writers_match_the_per_char_oracle() {
    check("writers_match_the_per_char_oracle", |g| assert_matches_oracle(&object(g, 2)));
}

#[test]
fn writers_match_the_oracle_on_the_named_edges() {
    let all_special: String = SPECIAL.iter().chain(&WIDE).collect();
    // 20 fields, keys repeating with distinct values: the heap
    // fallback's stable sort must keep each key's values in order.
    let keys = ["k", "a", "k\n", "é"];
    let wide =
        Json::Obj((0..20).map(|i| (keys[i % 4].to_string(), Json::UInt(i as u64))).collect());
    let doc = Json::object()
        .raw("zero", Json::UInt(0))
        .raw("izero", Json::Int(0))
        .raw("max", Json::UInt(u64::MAX))
        .raw("min", Json::Int(i64::MIN))
        .raw(&all_special, Json::Str(all_special.clone()))
        .raw("wide", wide)
        .raw("dup", Json::Obj(vec![("b".into(), Json::UInt(1)), ("b".into(), Json::UInt(2))]))
        .build();
    assert_matches_oracle(&doc);
}
