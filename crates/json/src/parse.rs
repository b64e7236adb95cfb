//! A parser building the [`Json`] tree — the read side of the crate:
//! the `beff-serve` request decoder, and every writer that confirms its
//! output is well-formed before trusting it. It walks the RFC 8259
//! grammar and reports the first violation with its byte offset.

use crate::value::Json;

/// First well-formedness violation in a JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the violation.
    pub at: usize,
    /// What went wrong, human-readable.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`parse`] accepts: serde_json's
/// recursion limit. The parser recurses once per container, so without
/// a bound a request of a few hundred kB of `[` overflows the stack of
/// the thread that parses it; the deepest document this workspace
/// writes is a handful of levels.
const MAX_DEPTH: usize = 128;

/// Parse exactly one JSON document (surrounded by optional whitespace)
/// into a [`Json`] tree.
///
/// A container nested more than 128 levels deep (serde_json's limit) is
/// an error at its opening byte.
///
/// Number mapping mirrors the writers: tokens without `.`/`e` become
/// [`Json::Int`] (negative) or [`Json::UInt`] (non-negative), falling
/// back to [`Json::Float`] when they exceed the integer ranges;
/// everything else is [`Json::Float`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { b: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing data after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { at: self.pos, msg: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let container = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                container
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal(b"true").map(|_| Json::Bool(true)),
            Some(b'f') => self.literal(b"false").map(|_| Json::Bool(false)),
            Some(b'n') => self.literal(b"null").map(|_| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), JsonError> {
        if self.b[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err("misspelled literal"))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((name, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// One `\uXXXX` unit (the `\u` already consumed), as a raw code
    /// unit — surrogate pairing happens in [`string`](Self::string).
    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut unit: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(h) if h.is_ascii_hexdigit() => (h as char)
                    .to_digit(16)
                    .expect("hexdigit converts") as u16,
                _ => return Err(self.err("bad \\u escape")),
            };
            unit = (unit << 4) | d;
            self.pos += 1;
        }
        Ok(unit)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => {
                            out.push(c as char);
                            self.pos += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{08}');
                            self.pos += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{0c}');
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.pos += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.pos += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = match unit {
                                // High surrogate: must pair with a \uXXXX
                                // low surrogate to form one scalar value.
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\') {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    self.pos += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    self.pos += 1;
                                    let low = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    let scalar = 0x10000
                                        + ((u32::from(unit) - 0xD800) << 10)
                                        + (u32::from(low) - 0xDC00);
                                    char::from_u32(scalar)
                                        .ok_or_else(|| self.err("bad surrogate pair"))?
                                }
                                0xDC00..=0xDFFF => return Err(self.err("unpaired surrogate")),
                                unit => char::from_u32(u32::from(unit))
                                    .ok_or_else(|| self.err("bad \\u escape"))?,
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(c) if c < 0x80 => {
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so slicing
                    // from here to the next ASCII boundary is valid; walk
                    // one char via the str API.
                    let rest = std::str::from_utf8(&self.b[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
            debug_assert!(self.pos > start);
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => self.digits(),
            _ => return Err(self.err("expected digits")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digits after '.'"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digits in exponent"));
            }
            self.digits();
        }
        let text = std::str::from_utf8(&self.b[start..self.pos])
            .expect("number tokens are ASCII");
        if integral {
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Json::Int(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Json::Float(f)),
            Err(_) => Err(JsonError { at: start, msg: "number out of range".to_string() }),
        }
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse("true"), Ok(Json::Bool(true)));
        assert_eq!(parse("false"), Ok(Json::Bool(false)));
        assert_eq!(parse("42"), Ok(Json::UInt(42)));
        assert_eq!(parse("-7"), Ok(Json::Int(-7)));
        assert_eq!(parse("1.5"), Ok(Json::Float(1.5)));
        assert_eq!(parse("-2.5e-7"), Ok(Json::Float(-2.5e-7)));
        assert_eq!(parse("-0.5"), Ok(Json::Float(-0.5)));
        assert_eq!(parse("1.25E+10"), Ok(Json::Float(1.25e10)));
        assert_eq!(parse("\"hi\""), Ok(Json::Str("hi".into())));
    }

    #[test]
    fn integer_edges_keep_their_variant() {
        assert_eq!(parse(&u64::MAX.to_string()), Ok(Json::UInt(u64::MAX)));
        assert_eq!(parse(&i64::MIN.to_string()), Ok(Json::Int(i64::MIN)));
        // One past u64::MAX falls back to float rather than failing.
        assert_eq!(parse("18446744073709551616"), Ok(Json::Float(1.8446744073709552e19)));
    }

    #[test]
    fn containers_preserve_order() {
        let want = Json::Obj(vec![
            ("z".into(), Json::UInt(1)),
            ("a".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("m".into(), Json::Obj(vec![("k".into(), Json::Str("v".into()))])),
        ]);
        for text in [
            r#"{"z":1,"a":[true,null],"m":{"k":"v"}}"#,
            " \t{\n  \"z\": 1 , \"a\": [ true, null ],\r\n\"m\" :{\"k\":\"v\"}}\n  ",
        ] {
            assert_eq!(parse(text), Ok(want.clone()), "{text:?}");
        }
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let j = parse(r#""a \"q\" \\ \n \t \u00e9 \ud83d\ude00 é""#).expect("parses");
        assert_eq!(j, Json::Str("a \"q\" \\ \n \t \u{e9} \u{1F600} é".into()));
    }

    #[test]
    fn writer_output_round_trips() {
        let doc = Json::object()
            .field("name", "b_eff \"quoted\" \\ path")
            .raw("vals", Json::Arr(vec![Json::Float(1.5), Json::Float(-2.25), Json::Float(1e-300)]))
            .field("n", &42u64)
            .raw("neg", Json::Int(-9))
            .raw("empty", Json::Obj(vec![]))
            .build();
        for text in [crate::to_string(&doc), crate::to_string_pretty(&doc)] {
            assert_eq!(parse(&text), Ok(doc.clone()), "round-trip of {text}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "{'a':1}", "01", "1.", "1e",
            "\"abc", "\"\\x\"", "nul", "{} {}", "\"a\nb\"", "\"\\ud800\"", "\"\\udc00 alone\"",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        // depth 129 of `[` fails at the 129th opener, byte 128
        let too_deep = JsonError { at: 128, msg: "nesting deeper than 128 levels".into() };
        assert_eq!(parse(&"[".repeat(MAX_DEPTH + 1)), Err(too_deep));
        // arrays, objects and the two interleaved: 128 levels parse, and
        // one more fails at its opening byte
        for (open, close) in [("[", "]"), ("{\"k\":", "}"), ("[{\"k\":", "}]")] {
            let per_repeat = open.matches(['[', '{']).count();
            let nest = |repeats: usize| format!("{}1{}", open.repeat(repeats), close.repeat(repeats));
            assert!(parse(&nest(MAX_DEPTH / per_repeat)).is_ok(), "depth 128 of {open} parses");
            let text = nest(MAX_DEPTH / per_repeat + 1);
            let offender = text.match_indices(['[', '{']).nth(MAX_DEPTH).map(|(at, _)| at);
            assert_eq!(parse(&text).map_err(|e| e.at).err(), offender, "{open}");
        }
    }

    #[test]
    fn every_committed_result_document_parses() -> std::io::Result<()> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut parsed = 0;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|ext| ext == "json") {
                if let Err(e) = parse(&std::fs::read_to_string(&path)?) {
                    panic!("{}: {e}", path.display());
                }
                parsed += 1;
            }
        }
        assert!(parsed >= 6, "found {parsed} result documents");
        Ok(())
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let e = parse("[1, 2, x]").expect_err("must fail");
        assert_eq!(e.at, 7);
        assert!(e.to_string().contains("byte 7"), "{e}");
    }
}
