//! Per-file source model: the lexed streams plus the derived facts the
//! rules query — which lines are test code, which lines carry an
//! `allow(...)` waiver, and which lines are covered by a `SAFETY:`
//! justification comment. Also home of the deterministic workspace
//! file walk ([`discover`]).
//!
//! ## Waiver syntax
//!
//! ```text
//! // beff-analyze: allow(hash-order): keyed lookups only, never iterated
//! ```
//!
//! The rule must be one the analyzer has and the justification is
//! mandatory: a waiver naming no rule, or with no reason, is itself a
//! diagnostic. A waiver on a line of code applies to that line; a
//! waiver on a comment-only line applies to the next line that has
//! code. Multiple rules may be waived at once: `allow(a, b): why`.
//!
//! ## Dynamic-call annotations
//!
//! ```text
//! // beff-analyze: dynamic-call: why this call is indirect
//! ```
//!
//! Marks a line that invokes a closure, function pointer, or other
//! callee the static call graph cannot resolve. The call graph counts
//! annotated sites instead of silently dropping the edge, and the
//! `panic-path` pass treats the line as a potential panic site (an
//! unknown callee may panic). Like waivers, the justification is
//! mandatory.

use crate::lexer::{self, Comment, Token, TokenKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One parsed `allow(...)` waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rules: Vec<String>,
    pub justification: String,
    /// The code line the waiver applies to.
    pub line: u32,
    /// Where the waiver comment itself lives (diagnostics).
    pub comment_line: u32,
}

/// One parsed `beff-analyze: dynamic-call: why` annotation.
#[derive(Debug, Clone)]
pub struct DynamicCall {
    pub justification: String,
    /// The code line the annotation applies to.
    pub line: u32,
}

/// A lexed source file plus derived line facts.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    pub waivers: Vec<Waiver>,
    /// `dynamic-call` annotations marking intentionally indirect calls.
    pub dynamic_calls: Vec<DynamicCall>,
    /// Waivers that could not be parsed (missing justification or
    /// malformed rule list) — reported as violations by the engine.
    pub bad_waivers: Vec<(u32, String)>,
    /// Line ranges (inclusive) of `#[cfg(test)] mod … { … }` bodies.
    test_ranges: Vec<(u32, u32)>,
    /// Whether the whole file is test-ish (under tests/, examples/ or
    /// benches/).
    test_file: bool,
}

impl SourceFile {
    pub fn parse(path: &str, src: &str) -> Self {
        let (tokens, comments) = lexer::lex(src);
        let test_file = {
            let p = path.replace('\\', "/");
            p.contains("/tests/") || p.contains("/examples/") || p.contains("/benches/")
                || p.starts_with("tests/") || p.starts_with("examples/")
        };
        let test_ranges = find_cfg_test_ranges(&tokens);
        let (waivers, dynamic_calls, bad_waivers) = parse_waivers(&tokens, &comments);
        Self {
            path: path.replace('\\', "/"),
            tokens,
            comments,
            waivers,
            dynamic_calls,
            bad_waivers,
            test_ranges,
            test_file,
        }
    }

    /// Is `line` inside test code (a `#[cfg(test)]` module, or any line
    /// of a tests//examples/ file)?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_file || self.test_ranges.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// Does a waiver for `rule` cover `line`?
    pub fn waived(&self, rule: &str, line: u32) -> bool {
        self.waivers
            .iter()
            .any(|w| w.line == line && w.rules.iter().any(|r| r == rule))
    }

    /// Does a `dynamic-call` annotation cover `line`?
    pub fn dynamic_call_annotated(&self, line: u32) -> bool {
        self.dynamic_calls.iter().any(|d| d.line == line)
    }

    /// Does the contiguous comment block ending directly above `line`
    /// (or a comment on `line` itself) contain `needle`
    /// (case-insensitive)?
    pub fn comment_context_contains(&self, line: u32, needle: &str) -> bool {
        let needle = needle.to_ascii_lowercase();
        // Same-line comment.
        if self.comments.iter().any(|c| {
            c.line <= line && c.end_line >= line && c.text.to_ascii_lowercase().contains(&needle)
        }) {
            return true;
        }
        // Walk the contiguous comment block upward: a comment whose
        // end_line is `cursor - 1` extends the block.
        let mut cursor = line;
        loop {
            let Some(c) = self.comments.iter().find(|c| c.end_line + 1 == cursor) else {
                return false;
            };
            if c.text.to_ascii_lowercase().contains(&needle) {
                return true;
            }
            cursor = c.line;
        }
    }
}

/// Locate `#[cfg(test)] mod name { … }` line ranges. Attributes other
/// than the cfg (e.g. doc comments, `#[rustfmt::skip]`) may sit between
/// the cfg and the `mod`.
fn find_cfg_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_at(tokens, i) {
            // Skip this attribute, then any further attributes, then
            // expect `mod ident {`.
            let mut j = skip_attr(tokens, i);
            while j < tokens.len() && tokens[j].is_punct('#') {
                j = skip_attr(tokens, j);
            }
            if j + 2 < tokens.len()
                && tokens[j].is_ident("mod")
                && tokens[j + 1].kind == TokenKind::Ident
                && tokens[j + 2].is_punct('{')
            {
                let open = j + 2;
                if let Some(close) = matching_brace(tokens, open) {
                    out.push((tokens[open].line, tokens[close].line));
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Is `tokens[i..]` the start of exactly `#[cfg(test)]`?
fn is_cfg_test_at(tokens: &[Token], i: usize) -> bool {
    let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
    tokens.len() >= i + pat.len()
        && tokens[i..i + pat.len()]
            .iter()
            .zip(pat)
            .all(|(t, p)| t.text == p)
}

/// Given `tokens[i]` == `#`, return the index one past the attribute's
/// closing `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if j < tokens.len() && tokens[j].is_punct('!') {
        j += 1;
    }
    if j >= tokens.len() || !tokens[j].is_punct('[') {
        return i + 1;
    }
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Index of the `}` matching the `{` at `open`.
pub fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

const MARKER: &str = "beff-analyze:";

fn parse_waivers(
    tokens: &[Token],
    comments: &[Comment],
) -> (Vec<Waiver>, Vec<DynamicCall>, Vec<(u32, String)>) {
    // Map comment line → first code line at or after it, for waivers on
    // comment-only lines.
    let mut line_of_first_token_at_or_after: BTreeMap<u32, u32> = BTreeMap::new();
    let mut waivers = Vec::new();
    let mut dynamic = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let Some(idx) = c.text.find(MARKER) else { continue };
        let rest = c.text[idx + MARKER.len()..].trim_start();
        if let Some(why) = rest.strip_prefix("dynamic-call") {
            let justification =
                why.trim_start_matches([':', '—', '-', ' ']).trim().to_string();
            if justification.is_empty() {
                bad.push((c.line, "dynamic-call annotation has no justification".to_string()));
                continue;
            }
            let line = directive_line(tokens, c, &mut line_of_first_token_at_or_after);
            dynamic.push(DynamicCall { justification, line });
            continue;
        }
        let Some(rest) = rest.strip_prefix("allow") else {
            bad.push((c.line, format!("unrecognized beff-analyze directive: {}", c.text.trim())));
            continue;
        };
        let rest = rest.trim_start();
        let (Some(open), Some(close)) = (rest.find('('), rest.find(')')) else {
            bad.push((c.line, "allow-waiver missing (rule) list".to_string()));
            continue;
        };
        if open != 0 || close < open {
            bad.push((c.line, "allow-waiver missing (rule) list".to_string()));
            continue;
        }
        let rules: Vec<String> = rest[open + 1..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let justification = rest[close + 1..]
            .trim_start_matches([':', '—', '-', ' '])
            .trim()
            .to_string();
        if rules.is_empty() {
            bad.push((c.line, "allow-waiver with empty rule list".to_string()));
            continue;
        }
        if justification.is_empty() {
            bad.push((
                c.line,
                format!("allow({}) waiver has no justification", rules.join(", ")),
            ));
            continue;
        }
        let line = directive_line(tokens, c, &mut line_of_first_token_at_or_after);
        waivers.push(Waiver {
            rules,
            justification,
            line,
            comment_line: c.line,
        });
    }
    (waivers, dynamic, bad)
}

/// The code line a directive comment applies to: its own line if code
/// shares it, otherwise the next line that has code.
fn directive_line(
    tokens: &[Token],
    c: &Comment,
    cache: &mut BTreeMap<u32, u32>,
) -> u32 {
    let code_on_same_line = tokens.iter().any(|t| t.line == c.line);
    if code_on_same_line {
        c.line
    } else {
        *cache.entry(c.end_line).or_insert_with(|| {
            tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > c.end_line)
                .unwrap_or(c.end_line)
        })
    }
}

/// The discovered inputs of one analysis run: workspace-relative paths
/// of every Rust source and every manifest, each list sorted.
pub struct Discovered {
    pub rs_files: Vec<PathBuf>,
    pub manifests: Vec<PathBuf>,
}

/// Recursively gather `.rs` files and `Cargo.toml`s under `root`, as
/// root-relative paths in a deterministic (byte-sorted) order.
///
/// Skipped, by *path component* (an exact directory-name match at any
/// depth — never a prefix match, so `target2/` or `targeted/` are
/// walked normally):
///
/// * `target` — build output;
/// * `.git` and every other dot-directory;
/// * a `fixtures` directory directly under a `tests` directory — the
///   analyzer's own seeded-violation corpora (`crates/analyze/tests/
///   fixtures/*`) are inputs for the fixture tests, not workspace code
///   (a lint must not lint its own fixtures).
///
/// Directory enumeration order is filesystem-dependent; the result is
/// sorted here so every consumer sees one canonical order and the
/// report is byte-identical regardless of how the OS enumerates.
pub fn discover(root: &Path) -> std::io::Result<Discovered> {
    let mut d = Discovered { rs_files: Vec::new(), manifests: Vec::new() };
    walk(root, root, false, &mut d)?;
    d.rs_files.sort();
    d.manifests.sort();
    Ok(d)
}

fn walk(root: &Path, dir: &Path, in_tests: bool, out: &mut Discovered) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || (in_tests && name == "fixtures") {
                continue;
            }
            walk(root, &path, name == "tests", out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            if name == "Cargo.toml" {
                out.manifests.push(rel);
            } else {
                out.rs_files.push(rel);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_span_detected() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() {}\n}\nfn c() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_test_with_interleaved_attribute() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t {\n let x = 1;\n}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.is_test_line(4));
    }

    #[test]
    fn cfg_test_on_non_module_is_ignored() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn tests_dir_files_are_all_test() {
        let f = SourceFile::parse("crates/x/tests/props.rs", "fn a() {}\n");
        assert!(f.is_test_line(1));
    }

    #[test]
    fn trailing_waiver_applies_to_its_own_line() {
        let src = "let m = HashMap::new(); // beff-analyze: allow(hash-order): keyed lookups only\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.waived("hash-order", 1));
        assert!(!f.waived("wall-clock", 1));
    }

    #[test]
    fn standalone_waiver_applies_to_next_code_line() {
        let src = "// beff-analyze: allow(unwrap): invariant by construction\n\nlet x = y.unwrap();\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.waived("unwrap", 3));
    }

    #[test]
    fn waiver_without_justification_is_rejected() {
        let src = "// beff-analyze: allow(unwrap)\nlet x = y.unwrap();\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.waived("unwrap", 2));
        assert_eq!(f.bad_waivers.len(), 1);
    }

    #[test]
    fn multi_rule_waiver() {
        let src = "do_it(); // beff-analyze: allow(wall-clock, unwrap): test scaffolding\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.waived("wall-clock", 1));
        assert!(f.waived("unwrap", 1));
    }

    #[test]
    fn comment_context_walks_contiguous_block() {
        let src = "// SAFETY: the pointer is valid\n// and stays alive\nunsafe { go() }\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.comment_context_contains(3, "safety:"));
        assert!(!f.comment_context_contains(3, "nope"));
    }

    #[test]
    fn waiver_inside_string_is_inert() {
        let src = "let s = \"// beff-analyze: allow(unwrap): nope\";\nlet x = y.unwrap();\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.waived("unwrap", 2));
        assert!(f.bad_waivers.is_empty());
    }

    #[test]
    fn dynamic_call_annotation_parses_on_both_placements() {
        let src = "// beff-analyze: dynamic-call: callback chosen by config\n(handler)(x);\n\
                   run(); // beff-analyze: dynamic-call: fn-pointer table\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.dynamic_call_annotated(2));
        assert!(f.dynamic_call_annotated(3));
        assert!(!f.dynamic_call_annotated(1));
        assert!(f.bad_waivers.is_empty());
    }

    #[test]
    fn dynamic_call_without_justification_is_rejected() {
        let src = "// beff-analyze: dynamic-call\n(f)(x);\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.dynamic_call_annotated(2));
        assert_eq!(f.bad_waivers.len(), 1);
    }

    #[test]
    fn discover_sorts_and_skips_by_component() {
        let root = std::env::temp_dir()
            .join(format!("beff-analyze-discover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Creation order is deliberately shuffled vs the expected sorted
        // output; `target2` must NOT be skipped (component match, not
        // prefix match), nested `target` and `tests/fixtures` must.
        for (rel, text) in [
            ("crates/z/src/lib.rs", "fn z() {}\n"),
            ("crates/a/src/lib.rs", "fn a() {}\n"),
            ("crates/a/target/ignored.rs", "fn no() {}\n"),
            ("target2/src/kept.rs", "fn kept() {}\n"),
            ("crates/a/tests/fixtures/mini/src/lib.rs", "fn fixture() {}\n"),
            ("crates/a/tests/real_test.rs", "fn t() {}\n"),
            ("crates/a/Cargo.toml", "[package]\n"),
            ("Cargo.toml", "[workspace]\n"),
        ] {
            let p = root.join(rel);
            std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            std::fs::write(p, text).expect("write");
        }
        let d = discover(&root).expect("discover");
        let rs: Vec<String> =
            d.rs_files.iter().map(|p| p.to_string_lossy().into_owned()).collect();
        assert_eq!(
            rs,
            vec![
                "crates/a/src/lib.rs",
                "crates/a/tests/real_test.rs",
                "crates/z/src/lib.rs",
                "target2/src/kept.rs",
            ]
        );
        let toml: Vec<String> =
            d.manifests.iter().map(|p| p.to_string_lossy().into_owned()).collect();
        assert_eq!(toml, vec!["Cargo.toml", "crates/a/Cargo.toml"]);
        let _ = std::fs::remove_dir_all(&root);
    }
}
