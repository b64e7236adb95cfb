//! The lock hierarchy, single-sourced. Each file
//! [`config::LOCK_HIERARCHY`] declares owns one ranked lock, and the
//! lock's level and name are that file's runtime
//! `Rank::new(level, "name")` literal — the value beff-sync's runtime
//! checker uses. This pass reads the literals off the token stream (the
//! lexer retains literal text for exactly this purpose) and resolves
//! the hierarchy `lockflow` judges by. Rule `lock-decl` checks that the
//! resolution is total:
//!
//! * each declared file holds exactly one non-test literal;
//! * the file of each non-test literal is declared;
//! * each declaration has at least one acquisition
//!   (`receiver.method(`) in its file, or it is stale.
//!
//! A mismatch is a hard `lock-decl` violation — no waivers, no budget:
//! a lock the static checker cannot rank is a lock it cannot see.

use crate::config::{self, LockDecl};
use crate::lexer::{Token, TokenKind};
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

/// A declared lock with the level and name of its file's literal.
pub struct RankedLock {
    pub decl: &'static LockDecl,
    pub level: u16,
    pub name: String,
}

/// Is `toks[k..]` an acquisition of `decl`'s lock: `receiver . method (`?
pub fn acquires_at(toks: &[Token], k: usize, decl: &LockDecl) -> bool {
    toks[k].is_ident(decl.receiver)
        && matches!(toks.get(k + 1), Some(n) if n.is_punct('.'))
        && matches!(toks.get(k + 2), Some(m) if m.kind == TokenKind::Ident
            && decl.methods.contains(&m.text.as_str()))
        && matches!(toks.get(k + 3), Some(p) if p.is_punct('('))
}

/// Scan one file for non-test `Rank::new(...)` literals. Malformed
/// ones (non-numeric level, non-literal name) and a declaration of this
/// file that nothing here acquires are reported directly.
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
                          static hierarchy can only be read from literal ranks"
                    .to_string(),
            }),
        }
    }
    for decl in config::LOCK_HIERARCHY.iter().filter(|d| f.path.ends_with(d.file_suffix)) {
        if !(0..toks.len()).any(|k| acquires_at(toks, k, decl)) {
            out.push(Violation {
                rule: "lock-decl",
                path: f.path.clone(),
                line: 0,
                message: format!(
                    "LOCK_HIERARCHY declares this file's lock as acquired through `{}` ({}) \
                     but this file never does; the declaration is stale",
                    decl.receiver,
                    decl.methods.join("/"),
                ),
            });
        }
    }
    found
}

/// Resolve [`config::LOCK_HIERARCHY`] against all collected literals.
/// `scanned` is every source path this run looked at: a declaration
/// only resolves (or is charged for a missing literal) when its file
/// was actually scanned, so partial trees — fixtures, scratch
/// workspaces — are not charged for locks that live elsewhere.
pub fn resolve(
    literals: &[RankLiteral],
    scanned: &[String],
    out: &mut Vec<Violation>,
) -> Vec<RankedLock> {
    for l in literals {
        if !config::LOCK_HIERARCHY.iter().any(|d| l.path.ends_with(d.file_suffix)) {
            out.push(Violation {
                rule: "lock-decl",
                path: l.path.clone(),
                line: l.line,
                message: format!(
                    "Rank::new({}, \"{}\") is in a file LOCK_HIERARCHY does not declare; \
                     add its receiver to analyze's config so lockflow sees the lock",
                    l.level, l.name
                ),
            });
        }
    }
    let mut locks = Vec::new();
    for decl in config::LOCK_HIERARCHY {
        let Some(path) = scanned.iter().find(|p| p.ends_with(decl.file_suffix)) else {
            continue;
        };
        let mine: Vec<&RankLiteral> =
            literals.iter().filter(|l| l.path.ends_with(decl.file_suffix)).collect();
        match mine[..] {
            [l] => locks.push(RankedLock { decl, level: l.level, name: l.name.clone() }),
            [] => out.push(Violation {
                rule: "lock-decl",
                path: path.clone(),
                line: 0,
                message: "LOCK_HIERARCHY declares a lock in this file but no \
                          Rank::new(level, \"name\") literal gives its level"
                    .to_string(),
            }),
            [first, ..] => {
                for extra in &mine[1..] {
                    out.push(Violation {
                        rule: "lock-decl",
                        path: extra.path.clone(),
                        line: extra.line,
                        message: format!(
                            "a second Rank::new literal (\"{}\") in a file that owns one \
                             lock (\"{}\", line {}); each declared file holds exactly one",
                            extra.name, first.name, first.line
                        ),
                    });
                }
            }
        }
    }
    locks
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

    fn resolved(path: &str, src: &str) -> (Vec<RankedLock>, Vec<Violation>) {
        let (l, mut v) = literals_of(path, src);
        let locks = resolve(&l, &[path.to_string()], &mut v);
        (locks, v)
    }

    const SCHED: &str = "crates/sim/src/sched.rs";

    #[test]
    fn literal_is_read_off_the_token_stream() {
        let (l, v) = literals_of(
            SCHED,
            "static STATE_RANK: Rank = Rank::new(40, \"sched.state\");\nfn f() { inner.lock(); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(l.len(), 1);
        assert_eq!((l[0].level, l[0].name.as_str(), l[0].line), (40, "sched.state", 1));
    }

    #[test]
    fn a_declared_file_takes_its_level_and_name_from_its_literal() {
        let src = "static R: Rank = Rank::new(41, \"sched.state\");\nfn f() { inner.lock(); }\n";
        let (locks, v) = resolved(SCHED, src);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(locks.len(), 1);
        assert_eq!((locks[0].decl.receiver, locks[0].level), ("inner", 41));
        assert_eq!(locks[0].name, "sched.state");
    }

    #[test]
    fn missing_literal_in_a_scanned_file_is_flagged() {
        let (locks, v) = resolved("crates/sim/src/port.rs", "fn f() { inner.lock(); }\n");
        assert!(locks.is_empty());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("no Rank::new"));
    }

    #[test]
    fn a_second_literal_in_a_declared_file_is_flagged() {
        let src = "static R: Rank = Rank::new(40, \"sched.state\");\n\
                   static S: Rank = Rank::new(41, \"sched.spare\");\nfn f() { inner.lock(); }\n";
        let (locks, v) = resolved(SCHED, src);
        assert!(locks.is_empty());
        let found: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(found, [("lock-decl", 2)], "{v:?}");
        assert!(v[0].message.contains("exactly one"));
    }

    #[test]
    fn a_literal_in_an_undeclared_file_is_flagged() {
        let src = "static R: Rank = Rank::new(33, \"mpi.rogue\");\n";
        let (_, v) = resolved("crates/mpi/src/world.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("does not declare"));
    }

    #[test]
    fn unscanned_files_are_not_charged() {
        let mut v = Vec::new();
        assert!(resolve(&[], &["crates/mpi/src/lib.rs".to_string()], &mut v).is_empty());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn a_declaration_nothing_acquires_is_stale() {
        // `inner` is only read, never locked: the declaration is stale.
        let src = "static R: Rank = Rank::new(40, \"sched.state\");\nfn f() { inner.get(); }\n";
        let (_, v) = literals_of(SCHED, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`inner`") && v[0].message.contains("stale"));
        // a waived acquisition still counts as one
        let waived = "fn f() {\n let st = inner.lock(); // beff-analyze: allow(lockflow): fixture\n}";
        assert!(literals_of(SCHED, waived).1.is_empty());
        // files no declaration names are not charged
        assert!(literals_of("crates/sim/src/lib.rs", "fn f() {}").1.is_empty());
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
            "crates/sync/src/order.rs",
            "static R: Rank = Rank::new(LEVEL, \"sched.state\");\n",
        );
        assert!(l.is_empty());
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("plain literals"));
    }
}
