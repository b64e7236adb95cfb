//! The diagnostic shapes every pass reports in ([`Violation`],
//! [`Finding`]) and the two per-file rules that are not a pass of
//! their own: `waiver` and the `unwrap` budget's site collection.
//!
//! | rule      | scope                                | waivable |
//! |-----------|--------------------------------------|----------|
//! | `unwrap`  | everything, per-crate budget         | yes      |
//! | `waiver`  | malformed or unknown-rule waivers    | no       |
//!
//! Host time, hash order, host threads and undocumented `unsafe` are
//! banned by clippy (the workspace `clippy.toml`), not here.

use crate::config;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// One diagnostic: `path:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

impl Violation {
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// One `panicflow` finding, before budget settlement. The engine
/// groups these per crate, compares against the baseline table, and
/// promotes every finding in an over-budget crate to a [`Violation`].
/// `lockflow` findings become violations directly.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    /// Crate of the finding site (budget key).
    pub krate: String,
    pub message: String,
}

/// An `unwrap()`/`expect()` call site (budget accounting).
#[derive(Debug, Clone)]
pub struct UnwrapSite {
    pub path: String,
    pub line: u32,
    pub method: &'static str,
    pub waived: bool,
}

/// Malformed waivers are diagnostics too: a waiver that silently
/// failed to parse would otherwise *disable itself*, and one naming a
/// rule that does not exist ([`config::RULES`]) waives nothing.
pub fn check_waivers(f: &SourceFile, out: &mut Vec<Violation>) {
    let unknown = f.waivers.iter().flat_map(|w| {
        w.rules
            .iter()
            .filter(|r| !config::RULES.contains(&r.as_str()))
            .map(|r| (w.comment_line, format!("allow({r}) names no rule this analyzer has")))
    });
    for (line, message) in f.bad_waivers.iter().cloned().chain(unknown) {
        out.push(Violation { rule: "waiver", path: f.path.clone(), line, message });
    }
}

/// Rule `unwrap` (collection half): record every `.unwrap()` /
/// `.expect(` call site with its waiver status. The engine aggregates
/// sites into per-crate budget verdicts.
pub fn collect_unwraps(f: &SourceFile, out: &mut Vec<UnwrapSite>) {
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        let method = match m.text.as_str() {
            "unwrap" => "unwrap",
            "expect" => "expect",
            _ => continue,
        };
        if m.kind != TokenKind::Ident || !matches!(toks.get(i + 2), Some(t) if t.is_punct('(')) {
            continue;
        }
        out.push(UnwrapSite {
            path: f.path.clone(),
            line: m.line,
            method,
            waived: f.waived("unwrap", m.line),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src)
    }

    /// The rules clippy now owns are unknown names too: an old-style
    /// waiver for one of them cannot linger as if it still waived.
    #[test]
    fn a_waiver_naming_an_unknown_rule_is_a_violation() {
        let src = "// beff-analyze: allow(no-such-rule): nothing by that name\n\
                   fn f() {}\n\
                   g(); // beff-analyze: allow(unwrap, lock-order): not a rule here\n";
        let mut v = Vec::new();
        check_waivers(&file("crates/faults/src/lib.rs", src), &mut v);
        let found: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(found, [("waiver", 1), ("waiver", 3)], "{v:?}");
        assert!(v[1].message.contains("allow(lock-order)"));
        for rule in ["hash-order", "wall-clock", "threading", "safety"] {
            let src = format!("h(); // beff-analyze: allow({rule}): a rule clippy owns now\n");
            let mut v = Vec::new();
            check_waivers(&file("crates/pfs/src/file.rs", &src), &mut v);
            let found: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
            assert_eq!(found, [("waiver", 1)], "{rule}: {v:?}");
            assert!(v[0].message.contains(&format!("allow({rule})")), "{v:?}");
        }
    }

    #[test]
    fn unwrap_sites_counted_with_waivers() {
        let src = "fn f() {\n a.unwrap();\n b.expect(\"x\");\n \
                   c.unwrap(); // beff-analyze: allow(unwrap): invariant\n}";
        let mut sites = Vec::new();
        collect_unwraps(&file("crates/mpi/src/x.rs", src), &mut sites);
        assert_eq!(sites.len(), 3);
        assert_eq!(sites.iter().filter(|s| s.waived).count(), 1);
    }

    #[test]
    fn unwrap_in_raw_string_not_counted() {
        let src = r##"fn f() { let s = r#"x.unwrap()"#; }"##;
        let mut sites = Vec::new();
        collect_unwraps(&file("crates/mpi/src/x.rs", src), &mut sites);
        assert!(sites.is_empty());
    }
}
