//! A minimal Rust lexer — just enough syntax awareness that the rules
//! in this crate never fire inside a string literal, a comment, or a
//! doc example, and never miss code hidden behind unusual-but-legal
//! spellings (raw strings, nested block comments, raw identifiers).
//!
//! The output is two parallel streams per file: significant [`Token`]s
//! (identifiers, literals, punctuation) and [`Comment`]s. Comments are
//! kept separately because several rules *read* them — `// SAFETY:`
//! justifications and `beff-analyze` waivers are
//! comment-borne — while every code-facing rule must ignore them.
//!
//! Deliberately out of scope: macro expansion, cfg evaluation beyond
//! spotting `#[cfg(test)]` modules (see [`crate::source`]), and exact
//! numeric-literal grammar (numbers only need to be skipped as units).

/// What a significant token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw `r#ident` spellings, with
    /// the `r#` stripped).
    Ident,
    /// String, byte-string, raw-string, char or numeric literal. For
    /// string and numeric literals the token text carries the literal's
    /// *value spelling* (string content without quotes/escapes applied
    /// verbatim, number as written) so table-shaped facts — the
    /// `Rank::new(level, "name")` declarations the `lock-decl` rule
    /// cross-checks — can be read straight off the stream.
    Literal,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// Any single punctuation character (`.`, `{`, `#`, …).
    Punct(char),
}

/// One significant token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// One comment (line or block), with the line span it covers.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
    pub line: u32,
    pub end_line: u32,
}

/// Lex `src` into significant tokens and comments.
///
/// The lexer is total: malformed input (unterminated strings or
/// comments) is consumed to end-of-file rather than rejected, so a
/// half-edited file degrades to fewer tokens instead of a crash.
pub fn lex(src: &str) -> (Vec<Token>, Vec<Comment>) {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Lexer {
    fn new(src: &str) -> Self {
        Self { chars: src.chars().collect(), pos: 0, line: 1 }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn run(mut self) -> (Vec<Token>, Vec<Comment>) {
        let mut tokens = Vec::new();
        let mut comments = Vec::new();
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => {
                    let text = self.line_comment();
                    comments.push(Comment { text, line, end_line: line });
                }
                '/' if self.peek(1) == Some('*') => {
                    let text = self.block_comment();
                    comments.push(Comment { text, line, end_line: self.line });
                }
                '"' => {
                    let text = self.string_literal();
                    tokens.push(Token { kind: TokenKind::Literal, text, line });
                }
                '\'' => {
                    let tok = self.char_or_lifetime(line);
                    tokens.push(tok);
                }
                'r' | 'b' | 'c' if self.raw_or_prefixed_string() => {
                    tokens.push(Token { kind: TokenKind::Literal, text: String::new(), line });
                }
                c if c.is_ascii_digit() => {
                    let text = self.number();
                    tokens.push(Token { kind: TokenKind::Literal, text, line });
                }
                c if c == '_' || c.is_alphabetic() => {
                    let text = self.ident();
                    tokens.push(Token { kind: TokenKind::Ident, text, line });
                }
                c => {
                    self.bump();
                    tokens.push(Token {
                        kind: TokenKind::Punct(c),
                        text: c.to_string(),
                        line,
                    });
                }
            }
        }
        (tokens, comments)
    }

    fn line_comment(&mut self) -> String {
        let mut out = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            out.push(c);
            self.bump();
        }
        out
    }

    /// Block comment with nesting, per the Rust grammar: `/* /* */ */`
    /// is one comment.
    fn block_comment(&mut self) -> String {
        let mut out = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                out.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                out.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                out.push(c);
                self.bump();
            }
        }
        out
    }

    /// Ordinary (escaped) string literal body, opening quote included.
    /// Returns the content between the quotes (escapes kept verbatim).
    fn string_literal(&mut self) -> String {
        let mut out = String::new();
        self.bump(); // opening "
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    out.push(c);
                    if let Some(e) = self.bump() {
                        out.push(e); // the escaped char, whatever it is
                    }
                }
                '"' => break,
                _ => out.push(c),
            }
        }
        out
    }

    /// At an `r`/`b`/`c` that may open a raw or prefixed string
    /// (`r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`, `c"…"`, `r#ident`).
    /// Consumes and returns `true` only for string forms; raw
    /// identifiers and plain idents starting with these letters are
    /// left for [`Self::ident`].
    fn raw_or_prefixed_string(&mut self) -> bool {
        // Prefix of [rbc] letters (r"", b"", br"", c"", cr""…), then
        // optional hashes, then the opening quote — anything else is an
        // identifier (r#ident, `radius`) and is left untouched.
        let mut i = 0;
        let mut raw = false;
        while let Some(c) = self.peek(i) {
            match c {
                'r' => raw = true,
                'b' | 'c' => {}
                _ => break,
            }
            i += 1;
            if i >= 2 {
                break;
            }
        }
        let mut hashes = 0;
        while self.peek(i + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(i + hashes) != Some('"') {
            return false;
        }
        for _ in 0..i + hashes + 1 {
            self.bump();
        }
        if raw {
            // A raw string ends only at `"` followed by its hash count;
            // backslashes are literal characters.
            while let Some(c) = self.bump() {
                if c == '"' {
                    let mut seen = 0;
                    while seen < hashes && self.peek(0) == Some('#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        break;
                    }
                }
            }
        } else {
            // b"…" / c"…" support escapes like ordinary strings.
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '"' => break,
                    _ => {}
                }
            }
        }
        true
    }

    /// `'a'`-style char literal vs `'a`-style lifetime. A quote
    /// followed by an identifier run that is *not* closed by `'` is a
    /// lifetime; everything else is a char literal.
    fn char_or_lifetime(&mut self, line: u32) -> Token {
        // lifetime: 'ident not followed by a closing quote
        if let Some(c1) = self.peek(1) {
            if c1 == '_' || c1.is_alphabetic() {
                let mut i = 2;
                while matches!(self.peek(i), Some(c) if c == '_' || c.is_alphanumeric()) {
                    i += 1;
                }
                if self.peek(i) != Some('\'') {
                    let mut text = String::from("'");
                    self.bump();
                    while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
                        text.push(self.bump().expect("peeked"));
                    }
                    return Token { kind: TokenKind::Lifetime, text, line };
                }
            }
        }
        // char literal (possibly escaped: '\n', '\u{1F4A9}', '\'')
        self.bump(); // opening '
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        Token { kind: TokenKind::Literal, text: String::new(), line }
    }

    /// Numeric literal, loosely: digits, `_`, type suffixes, hex/oct/bin
    /// bodies and a fractional/exponent part — without eating the `..`
    /// of a range expression (`0..5`). Returns the spelling as written.
    fn number(&mut self) -> String {
        let mut out = String::new();
        while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
            out.push(self.bump().expect("peeked"));
        }
        if self.peek(0) == Some('.')
            && matches!(self.peek(1), Some(c) if c.is_ascii_digit())
        {
            out.push(self.bump().expect("peeked")); // .
            while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
                out.push(self.bump().expect("peeked"));
            }
        }
        // exponent sign (1.5e-3): the e was consumed above, a sign stops
        // the alphanumeric run, so stitch `-`/`+` digit tails back on
        if matches!(self.peek(0), Some('-' | '+')) {
            let prev = self.chars.get(self.pos.saturating_sub(1)).copied();
            if matches!(prev, Some('e' | 'E'))
                && matches!(self.peek(1), Some(c) if c.is_ascii_digit())
            {
                out.push(self.bump().expect("peeked"));
                while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
                    out.push(self.bump().expect("peeked"));
                }
            }
        }
        out
    }

    fn ident(&mut self) -> String {
        // raw identifier r#type → ident "type"
        if self.peek(0) == Some('r') && self.peek(1) == Some('#') {
            self.bump();
            self.bump();
        }
        let mut out = String::new();
        while matches!(self.peek(0), Some(c) if c == '_' || c.is_alphanumeric()) {
            out.push(self.bump().expect("peeked"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let src = r#"let s = "Instant::now() unwrap()"; call(s);"#;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "Instant" || i == "unwrap"));
        assert!(ids.iter().any(|i| i == "call"));
    }

    #[test]
    fn raw_strings_with_hashes_and_quotes() {
        let src = r##"let s = r#"contains "unwrap()" inside"#; after();"##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "unwrap"));
        assert!(ids.iter().any(|i| i == "after"));
    }

    #[test]
    fn nested_block_comments_are_one_comment() {
        let (toks, comments) = lex("before /* outer /* inner */ still */ after");
        assert_eq!(comments.len(), 1);
        let ids: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Ident).collect();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0].text, "before");
        assert_eq!(ids[1].text, "after");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let (toks, _) = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> =
            toks.iter().filter(|t| t.kind == TokenKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
        let lits = toks.iter().filter(|t| t.kind == TokenKind::Literal).count();
        assert_eq!(lits, 2, "two char literals");
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let src = "a\n/* two\nlines */\nb \"str\nacross\" c";
        let (toks, comments) = lex(src);
        let b = toks.iter().find(|t| t.is_ident("b")).expect("b");
        assert_eq!(b.line, 4);
        let c = toks.iter().find(|t| t.is_ident("c")).expect("c");
        assert_eq!(c.line, 5);
        assert_eq!(comments[0].line, 2);
        assert_eq!(comments[0].end_line, 3);
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let (toks, _) = lex("for i in 0..5 { x(1.5e-3); }");
        let dots = toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "the two dots of ..");
    }

    #[test]
    fn raw_identifiers_lex_as_plain_idents() {
        let ids = idents("let r#type = r#match; radius");
        assert_eq!(ids, vec!["let", "type", "match", "radius"]);
    }

    #[test]
    fn literal_text_is_retained_for_strings_and_numbers() {
        let (toks, _) = lex(r#"Rank::new(40, "sched.state"); let x = 1.5e-3;"#);
        let lits: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokenKind::Literal).map(|t| t.text.as_str()).collect();
        assert_eq!(lits, vec!["40", "sched.state", "1.5e-3"]);
    }

    #[test]
    fn escaped_quote_stays_inside_the_literal() {
        let (toks, _) = lex(r#"let s = "a\"b"; after()"#);
        let lit = toks.iter().find(|t| t.kind == TokenKind::Literal).expect("literal");
        assert_eq!(lit.text, "a\\\"b");
        assert!(toks.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn byte_strings_and_escapes() {
        let ids = idents(r#"let b = b"unwrap() \" still string"; done()"#);
        assert!(!ids.iter().any(|i| i == "unwrap"));
        assert!(ids.iter().any(|i| i == "done"));
    }
}
