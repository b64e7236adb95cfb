//! Well-formedness checking for JSON text — the read side of the
//! crate. The writers in [`crate::fmt`] only ever *emit* JSON; the
//! report writers need to confirm that what they generate is actually
//! parseable before it is trusted, without pulling in a parser
//! dependency.
//!
//! This is a validator, not a parser: it walks the grammar (RFC 8259)
//! and reports the first violation with its byte offset, but builds no
//! value tree.

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

/// Check that `input` is exactly one well-formed JSON document
/// (surrounded by optional whitespace).
pub fn validate(input: &str) -> Result<(), JsonError> {
    let mut v = Validator { b: input.as_bytes(), pos: 0 };
    v.skip_ws();
    v.value()?;
    v.skip_ws();
    if v.pos != v.b.len() {
        return Err(v.err("trailing data after the document"));
    }
    Ok(())
}

struct Validator<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Validator<'_> {
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

    fn value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
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

    fn object(&mut self) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<(), JsonError> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(h) if h.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), JsonError> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => self.digits(),
            _ => return Err(self.err("expected digits")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digits after '.'"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digits in exponent"));
            }
            self.digits();
        }
        Ok(())
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
    fn accepts_documents_this_crate_writes() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5",
            "1e-9",
            "1.25E+10",
            r#""a \"quoted\" string with \u00e9""#,
            r#"{"x":1.5,"y":[2,3,{"z":null}],"s":"t\n"}"#,
            "  {\n  \"a\": [1, 2]\n}  ",
        ] {
            assert!(validate(ok).is_ok(), "should accept: {ok}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for (bad, why) in [
            ("", "empty"),
            ("{", "unclosed object"),
            ("[1,]", "trailing comma"),
            ("{\"a\":}", "missing value"),
            ("{\"a\" 1}", "missing colon"),
            ("{'a':1}", "single quotes"),
            ("01", "leading zero then trailing digit"),
            ("1.", "bare decimal point"),
            ("1e", "empty exponent"),
            ("\"abc", "unterminated string"),
            ("\"\\x\"", "bad escape"),
            ("nul", "misspelled literal"),
            ("{} {}", "two documents"),
            ("\"a\nb\"", "raw newline in string"),
        ] {
            assert!(validate(bad).is_err(), "should reject ({why}): {bad}");
        }
    }

    #[test]
    fn round_trips_the_crate_writers() {
        use crate::{Json, ToJson};
        struct T;
        impl ToJson for T {
            fn to_json(&self) -> Json {
                Json::object()
                    .field("name", "b_eff \"quoted\" \\ path")
                    .field("vals", &[1.5f64, -2.25, 1e-300][..])
                    .field("n", &42u64)
                    .build()
            }
        }
        assert_eq!(validate(&crate::to_string(&T)), Ok(()));
        assert_eq!(validate(&crate::to_string_pretty(&T)), Ok(()));
    }

    #[test]
    fn error_reports_byte_offset() {
        let e = validate("[1, 2, x]").unwrap_err();
        assert_eq!(e.at, 7);
        assert!(e.to_string().contains("byte 7"));
    }
}
