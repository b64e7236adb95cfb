//! Rank-table single-sourcing: the lock hierarchy is declared twice —
//! as runtime `Rank::new(level, "name")` literals in the owning files
//! and as [`config::LOCK_HIERARCHY`] here — and the two copies WILL
//! drift unless a gate diffs them. This pass reads every
//! `Rank::new(<level>, "<name>")` literal off the token stream (the
//! lexer retains literal text for exactly this purpose) and
//! cross-checks:
//!
//! * every non-test literal must match a `LOCK_HIERARCHY` entry by
//!   name, level, **and** declaring file;
//! * every `LOCK_HIERARCHY` entry must be backed by at least one
//!   literal in its declared file.
//!
//! A mismatch is a hard `lock-decl` violation — no waivers, no budget:
//! a wrong level in either copy silently changes which inversions the
//! runtime and static checkers can see, so drift is never acceptable.

use crate::config;
use crate::lexer::TokenKind;
use crate::rules::Violation;
use crate::source::SourceFile;

/// One `Rank::new(level, "name")` literal found in source.
#[derive(Debug, Clone)]
pub struct RankLiteral {
    pub path: String,
    pub line: u32,
    pub level: u16,
    pub name: String,
}

/// Scan one file for non-test `Rank::new(...)` literals. Malformed
/// ones (non-numeric level, non-literal name) are reported directly.
pub fn scan(f: &SourceFile, out: &mut Vec<Violation>) -> Vec<RankLiteral> {
    let toks = &f.tokens;
    let mut found = Vec::new();
    for k in 0..toks.len() {
        // Rank :: new (
        let pat = toks[k].is_ident("Rank")
            && matches!(toks.get(k + 1), Some(t) if t.is_punct(':'))
            && matches!(toks.get(k + 2), Some(t) if t.is_punct(':'))
            && matches!(toks.get(k + 3), Some(t) if t.is_ident("new"))
            && matches!(toks.get(k + 4), Some(t) if t.is_punct('('));
        if !pat || f.is_test_line(toks[k].line) {
            continue;
        }
        let level = toks.get(k + 5).and_then(|t| {
            (t.kind == TokenKind::Literal).then(|| t.text.parse::<u16>().ok()).flatten()
        });
        let name = toks
            .get(k + 7)
            .filter(|t| t.kind == TokenKind::Literal)
            .filter(|_| matches!(toks.get(k + 6), Some(c) if c.is_punct(',')))
            .map(|t| t.text.clone());
        match (level, name) {
            (Some(level), Some(name)) => found.push(RankLiteral {
                path: f.path.clone(),
                line: toks[k].line,
                level,
                name,
            }),
            _ => out.push(Violation {
                rule: "lock-decl",
                path: f.path.clone(),
                line: toks[k].line,
                message: "Rank::new(...) whose level/name are not plain literals; the \
                          lock-decl cross-check can only single-source literal ranks"
                    .to_string(),
            }),
        }
    }
    found
}

/// Diff all collected literals against [`config::LOCK_HIERARCHY`].
/// `scanned` is every source path this run looked at: an entry's
/// missing-literal check only fires when its declaring file was
/// actually scanned (so partial trees — fixtures, scratch workspaces —
/// are not charged for locks that live elsewhere).
pub fn crosscheck(literals: &[RankLiteral], scanned: &[String], out: &mut Vec<Violation>) {
    for l in literals {
        let Some(decl) = config::LOCK_HIERARCHY.iter().find(|d| d.name == l.name) else {
            out.push(Violation {
                rule: "lock-decl",
                path: l.path.clone(),
                line: l.line,
                message: format!(
                    "Rank::new({}, \"{}\") has no LOCK_HIERARCHY entry; declare it in \
                     analyze's config so both checkers see the same hierarchy",
                    l.level, l.name
                ),
            });
            continue;
        };
        if decl.level != l.level {
            out.push(Violation {
                rule: "lock-decl",
                path: l.path.clone(),
                line: l.line,
                message: format!(
                    "Rank::new({}, \"{}\") disagrees with LOCK_HIERARCHY level {} — the \
                     two copies of the hierarchy have drifted",
                    l.level, l.name, decl.level
                ),
            });
        }
        if !l.path.ends_with(decl.file_suffix) {
            out.push(Violation {
                rule: "lock-decl",
                path: l.path.clone(),
                line: l.line,
                message: format!(
                    "Rank \"{}\" is declared in {} but LOCK_HIERARCHY places it in {}",
                    l.name, l.path, decl.file_suffix
                ),
            });
        }
    }
    for decl in config::LOCK_HIERARCHY {
        if !scanned.iter().any(|p| p.ends_with(decl.file_suffix)) {
            continue;
        }
        if !literals.iter().any(|l| l.name == decl.name) {
            out.push(Violation {
                rule: "lock-decl",
                path: decl.file_suffix.to_string(),
                line: 0,
                message: format!(
                    "LOCK_HIERARCHY declares '{}' (level {}) but no Rank::new literal \
                     backs it in {}",
                    decl.name, decl.level, decl.file_suffix
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn literals_of(path: &str, src: &str) -> (Vec<RankLiteral>, Vec<Violation>) {
        let f = SourceFile::parse(path, src);
        let mut v = Vec::new();
        let l = scan(&f, &mut v);
        (l, v)
    }

    #[test]
    fn literal_is_read_off_the_token_stream() {
        let (l, v) = literals_of(
            "crates/sim/src/sched.rs",
            "static STATE_RANK: Rank = Rank::new(40, \"sched.state\");\n",
        );
        assert!(v.is_empty());
        assert_eq!(l.len(), 1);
        assert_eq!((l[0].level, l[0].name.as_str(), l[0].line), (40, "sched.state", 1));
    }

    #[test]
    fn matching_literal_crosschecks_clean() {
        let path = "crates/sim/src/sched.rs";
        let (l, _) = literals_of(path, "static R: Rank = Rank::new(40, \"sched.state\");\n");
        let mut v = Vec::new();
        crosscheck(&l, &[path.to_string()], &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn missing_literal_in_a_scanned_file_is_flagged() {
        let path = "crates/sim/src/port.rs";
        let (l, _) = literals_of(path, "fn no_rank_here() {}\n");
        let mut v = Vec::new();
        crosscheck(&l, &[path.to_string()], &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("sim.port"));
    }

    #[test]
    fn unscanned_files_are_not_charged() {
        let mut v = Vec::new();
        crosscheck(&[], &["crates/mpi/src/lib.rs".to_string()], &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn level_drift_is_a_hard_violation() {
        let path = "crates/sim/src/sched.rs";
        let (l, _) = literals_of(path, "static R: Rank = Rank::new(41, \"sched.state\");\n");
        let mut v = Vec::new();
        crosscheck(&l, &[path.to_string()], &mut v);
        assert!(v.iter().any(|x| x.message.contains("drifted")), "{v:?}");
    }

    #[test]
    fn wrong_file_is_a_hard_violation() {
        let path = "crates/sim/src/port.rs";
        let (l, _) = literals_of(path, "static R: Rank = Rank::new(40, \"sched.state\");\n");
        let mut v = Vec::new();
        crosscheck(&l, &[path.to_string()], &mut v);
        assert!(v.iter().any(|x| x.message.contains("places it in")), "{v:?}");
    }

    #[test]
    fn undeclared_literal_is_a_hard_violation() {
        let path = "crates/sim/src/sched.rs";
        let (l, _) = literals_of(path, "static R: Rank = Rank::new(33, \"sched.rogue\");\n");
        let mut v = Vec::new();
        crosscheck(&l, &[path.to_string()], &mut v);
        assert!(v.iter().any(|x| x.message.contains("no LOCK_HIERARCHY entry")), "{v:?}");
    }

    #[test]
    fn test_scope_literals_are_ignored() {
        let (l, v) = literals_of(
            "crates/sync/src/order.rs",
            "#[cfg(test)]\nmod t {\n static R: Rank = Rank::new(10, \"test.a\");\n}\n",
        );
        assert!(l.is_empty());
        assert!(v.is_empty());
    }

    #[test]
    fn non_literal_rank_is_flagged() {
        let (l, v) = literals_of(
            "crates/sim/src/sched.rs",
            "static R: Rank = Rank::new(LEVEL, \"sched.state\");\n",
        );
        assert!(l.is_empty());
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("plain literals"));
    }
}
