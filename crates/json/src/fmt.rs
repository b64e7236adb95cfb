//! Writers that reproduce `serde_json`'s output byte-for-byte:
//! compact (`to_string`) and 2-space pretty (`to_string_pretty`)
//! layouts, `\uXXXX` control-character escapes, and ryu-style
//! shortest-round-trip float formatting.

use crate::value::Json;
use std::fmt::Write as _;

pub(crate) fn write_compact(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Writing into a `String` cannot fail.
        Json::Int(n) => _ = write!(out, "{n}"),
        Json::UInt(n) => _ = write!(out, "{n}"),
        Json::Float(f) => write_f64(*f, out),
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (name, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(name, out);
                out.push(':');
                write_compact(value, out);
            }
            out.push('}');
        }
    }
}

pub(crate) fn write_pretty(v: &Json, depth: usize, out: &mut String) {
    match v {
        Json::Arr(items) if !items.is_empty() => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(depth + 1, out);
                write_pretty(item, depth + 1, out);
            }
            newline_indent(depth, out);
            out.push(']');
        }
        Json::Obj(fields) if !fields.is_empty() => {
            out.push('{');
            for (i, (name, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(depth + 1, out);
                write_escaped(name, out);
                out.push_str(": ");
                write_pretty(value, depth + 1, out);
            }
            newline_indent(depth, out);
            out.push('}');
        }
        // Empty containers and scalars print exactly as in compact mode
        // ("[]", "{}", numbers, strings).
        other => write_compact(other, out),
    }
}

/// Compact layout with every object's fields sorted by key bytes,
/// recursively — the **canonical form**. Two structurally equal
/// documents produce byte-identical canonical text regardless of the
/// order their fields were inserted in, which is what makes it usable
/// as a content-addressed cache key (`beff-serve`). Arrays keep their
/// order: element order is data, field order is not.
pub(crate) fn write_canonical(v: &Json, out: &mut String) {
    match v {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            // Objects of up to 16 fields (every job spec and fault plan)
            // sort their indices on the stack, where a stable sort this
            // short does not allocate either; larger ones use the heap.
            let (mut stack, mut heap) = ([0usize; 16], Vec::new());
            let order = if fields.len() <= stack.len() {
                &mut stack[..fields.len()]
            } else {
                heap.resize(fields.len(), 0);
                &mut heap[..]
            };
            order.iter_mut().enumerate().for_each(|(i, slot)| *slot = i);
            // Stable sort: duplicate keys (never produced by ToJson
            // impls, possible in hand-built trees) keep insertion order.
            order.sort_by(|&a, &b| fields[a].0.as_bytes().cmp(fields[b].0.as_bytes()));
            out.push('{');
            for (i, &idx) in order.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let (name, value) = &fields[idx];
                write_escaped(name, out);
                out.push(':');
                write_canonical(value, out);
            }
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

fn newline_indent(depth: usize, out: &mut String) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Append `s` as a JSON string literal, quotes included, escaped as
/// `serde_json` escapes it.
///
/// Runs without an escape are copied whole. Every escaped character is
/// ASCII and no byte of a multi-byte UTF-8 sequence is, so the byte
/// offsets found here are always char boundaries.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            0x08 => out.push_str("\\b"),
            b'\t' => out.push_str("\\t"),
            b'\n' => out.push_str("\\n"),
            0x0c => out.push_str("\\f"),
            b'\r' => out.push_str("\\r"),
            b => _ = write!(out, "\\u{b:04x}"),
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Append an `f64` formatted exactly as `serde_json` (via `ryu`) does.
///
/// Rust's `{:e}` formatter already produces the shortest
/// round-trip digit string, so this only needs ryu's *layout* rules on
/// top: plain decimal notation while the decimal point lands within
/// `(-5, 16]` digits of the front (`0.00001` … `1000000000000000.0`),
/// scientific notation outside that window (`1e-6`, `1e16`), a forced
/// `.0` on integral values, and `null` for non-finite values. The
/// `{:e}` text and its digits go through stack buffers: a float costs
/// no allocation beyond `out`'s own growth.
pub fn write_f64(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let mut sci = Ascii::default();
    _ = write!(sci, "{f:e}");
    let sci = sci.as_bytes();
    let (sign, sci) = match sci.split_first() {
        Some((b'-', rest)) => ("-", rest),
        _ => ("", sci),
    };
    let e = sci.iter().position(|&c| c == b'e').unwrap_or(sci.len());
    let (mantissa, exp_text) = (&sci[..e], sci.get(e + 1..).unwrap_or_default());
    let exp = match exp_text.split_first() {
        Some((b'-', magnitude)) => -decimal(magnitude),
        _ => decimal(exp_text),
    };
    // digits = mantissa without the decimal point; value is
    // 0.digits × 10^kk with kk the decimal-point position.
    let mut digits = Ascii::default();
    mantissa.iter().filter(|&&c| c != b'.').for_each(|&c| digits.push(c));
    let digits = ascii(digits.as_bytes());
    let kk = exp + 1;

    out.push_str(sign);
    if !(-5 < kk && kk <= 16) {
        // ryu's scientific layout matches `{:e}`: "1e16", "2.5e-7".
        out.push_str(ascii(sci));
    } else if kk <= 0 {
        // 0.0001234
        out.push_str("0.");
        for _ in 0..-kk {
            out.push('0');
        }
        out.push_str(digits);
    } else if (kk as usize) >= digits.len() {
        // 1234000.0 — integral, pad zeros and force ".0"
        out.push_str(digits);
        for _ in 0..(kk as usize - digits.len()) {
            out.push('0');
        }
        out.push_str(".0");
    } else {
        // 12.34 — decimal point inside the digit string
        out.push_str(&digits[..kk as usize]);
        out.push('.');
        out.push_str(&digits[kk as usize..]);
    }
}

/// A stack buffer of ASCII text, long enough for any `f64`'s `{:e}`
/// form: a sign, 17 significant digits and a point, `e`, and an
/// exponent sign and three digits make 24 bytes.
#[derive(Default)]
struct Ascii {
    bytes: [u8; 32],
    len: usize,
}

impl Ascii {
    fn push(&mut self, c: u8) {
        if let Some(slot) = self.bytes.get_mut(self.len) {
            *slot = c;
            self.len += 1;
        }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl std::fmt::Write for Ascii {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        s.bytes().for_each(|c| self.push(c));
        Ok(())
    }
}

/// ASCII bytes as the `str` they are.
fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).unwrap_or_default()
}

/// The value of a run of decimal digits (a `{:e}` exponent's).
fn decimal(digits: &[u8]) -> i32 {
    digits.iter().fold(0, |n, &d| n * 10 + i32::from(d.wrapping_sub(b'0')))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Json;

    fn f(x: f64) -> String {
        let mut s = String::new();
        write_f64(x, &mut s);
        s
    }

    #[test]
    fn floats_match_ryu_layout() {
        assert_eq!(f(0.0), "0.0");
        assert_eq!(f(-0.0), "-0.0");
        assert_eq!(f(7.0), "7.0");
        assert_eq!(f(-7.0), "-7.0");
        assert_eq!(f(1.5), "1.5");
        assert_eq!(f(12.34), "12.34");
        assert_eq!(f(0.1), "0.1");
        assert_eq!(f(0.00001), "0.00001");
        assert_eq!(f(0.000001), "1e-6");
        assert_eq!(f(1e15), "1000000000000000.0");
        assert_eq!(f(1e16), "1e16");
        assert_eq!(f(-2.5e-7), "-2.5e-7");
        assert_eq!(f(1234000.0), "1234000.0");
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(f64::INFINITY), "null");
    }

    #[test]
    fn floats_round_trip() {
        for &x in &[0.1, 1.0 / 3.0, 2.0_f64.sqrt(), 123.456e12, 5e-324, f64::MAX, 171.0, 0.5] {
            let s = f(x);
            assert_eq!(s.parse::<f64>().unwrap(), x, "round-trip of {x}");
        }
    }

    #[test]
    fn compact_layout() {
        let j = Json::object()
            .raw("a", Json::Arr(vec![Json::Int(1), Json::Null]))
            .raw("b", Json::Obj(vec![]))
            .field("c", "x\"y")
            .build();
        let mut s = String::new();
        write_compact(&j, &mut s);
        assert_eq!(s, r#"{"a":[1,null],"b":{},"c":"x\"y"}"#);
    }

    #[test]
    fn pretty_layout() {
        let j = Json::object()
            .field("name", "t3e")
            .raw("sizes", Json::Arr(vec![Json::UInt(1), Json::UInt(8)]))
            .raw("empty", Json::Arr(vec![]))
            .raw("nested", Json::object().field("ok", &true).build())
            .build();
        let mut s = String::new();
        write_pretty(&j, 0, &mut s);
        let want = "{\n  \"name\": \"t3e\",\n  \"sizes\": [\n    1,\n    8\n  ],\n  \"empty\": [],\n  \"nested\": {\n    \"ok\": true\n  }\n}";
        assert_eq!(s, want);
    }

    #[test]
    fn canonical_sorts_keys_recursively_but_not_arrays() {
        let a = Json::object()
            .field("z", &1u32)
            .raw("a", Json::object().field("y", &2u32).field("b", &3u32).build())
            .raw("arr", Json::Arr(vec![Json::UInt(2), Json::UInt(1)]))
            .build();
        let b = Json::object()
            .raw("arr", Json::Arr(vec![Json::UInt(2), Json::UInt(1)]))
            .raw("a", Json::object().field("b", &3u32).field("y", &2u32).build())
            .field("z", &1u32)
            .build();
        let (mut ca, mut cb) = (String::new(), String::new());
        write_canonical(&a, &mut ca);
        write_canonical(&b, &mut cb);
        assert_eq!(ca, cb);
        assert_eq!(ca, r#"{"a":{"b":3,"y":2},"arr":[2,1],"z":1}"#);
    }

    #[test]
    fn control_chars_escape_as_u00xx() {
        let mut s = String::new();
        write_escaped("a\u{01}b\nc", &mut s);
        assert_eq!(s, "\"a\\u0001b\\nc\"");
    }
}
