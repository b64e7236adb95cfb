//! The rule implementations. Each rule walks one [`SourceFile`]'s
//! token stream and emits [`Violation`]s; waivers and test-scope
//! decisions are applied here so every rule reports the same way.
//!
//! | rule          | scope                                   | waivable |
//! |---------------|-----------------------------------------|----------|
//! | `wall-clock`  | every non-test line but its one home    | yes      |
//! | `hash-order`  | every non-test line                     | yes      |
//! | `threading`   | non-test code outside the thread homes  | yes      |
//! | `layering`    | fiber idents outside `crates/sim/`      | yes      |
//! | `unwrap`      | everything, per-crate budget            | yes      |
//! | `safety`      | non-test `unsafe` blocks & impls        | yes      |
//! | `waiver`      | malformed or unknown-rule waivers       | no       |
//!
//! The first four are one mechanism, [`check_bans`], driven by
//! [`config::BANS`].

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

/// Does `path` lie under one of `homes`? Directory homes (trailing
/// `/`) match as prefixes, file homes as suffixes.
fn at_home(path: &str, homes: &[&str]) -> bool {
    homes.iter().any(|h| {
        if h.ends_with('/') {
            path.starts_with(h) || path.contains(&format!("/{h}"))
        } else {
            path.ends_with(h)
        }
    })
}

/// Rules `wall-clock`, `hash-order`, `threading` and `layering`'s
/// fiber containment: every identifier a [`config::BANS`] entry names
/// is a violation outside that entry's homes, unless waived. Returns
/// the number of honored waivers.
pub fn check_bans(f: &SourceFile, out: &mut Vec<Violation>) -> usize {
    let mut waived = 0;
    for ban in config::BANS.iter().filter(|b| !at_home(&f.path, b.homes)) {
        for t in &f.tokens {
            if t.kind != TokenKind::Ident
                || !ban.idents.contains(&t.text.as_str())
                || (!ban.tests && f.is_test_line(t.line))
            {
                continue;
            }
            if f.waived(ban.rule, t.line) {
                waived += 1;
                continue;
            }
            out.push(Violation {
                rule: ban.rule,
                path: f.path.clone(),
                line: t.line,
                message: format!("`{}` {}", t.text, ban.why),
            });
        }
    }
    waived
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

/// Rule `safety`: every `unsafe { … }` block and `unsafe impl` in
/// non-test code must sit under a comment containing `SAFETY:` (same
/// line or the contiguous comment block directly above). Returns the
/// number of honored waivers.
pub fn check_safety(f: &SourceFile, out: &mut Vec<Violation>) -> usize {
    let toks = &f.tokens;
    let mut waived = 0;
    for i in 0..toks.len() {
        if !toks[i].is_ident("unsafe") {
            continue;
        }
        let what = match toks.get(i + 1) {
            Some(t) if t.is_punct('{') => "unsafe block",
            Some(t) if t.is_ident("impl") => "unsafe impl",
            // `unsafe fn` bodies surface as explicit `unsafe {` blocks;
            // `#[unsafe(naked)]` is an attribute, not code.
            _ => continue,
        };
        let line = toks[i].line;
        if f.is_test_line(line) {
            continue;
        }
        if f.waived("safety", line) {
            waived += 1;
            continue;
        }
        if f.comment_context_contains(line, "safety:") {
            continue;
        }
        out.push(Violation {
            rule: "safety",
            path: f.path.clone(),
            line,
            message: format!(
                "{what} without a `// SAFETY:` justification comment on or above it"
            ),
        });
    }
    waived
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src)
    }

    fn run<R: Fn(&SourceFile, &mut Vec<Violation>) -> usize>(
        rule: R,
        path: &str,
        src: &str,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        rule(&file(path, src), &mut out);
        out
    }

    #[test]
    fn wallclock_flags_instant() {
        let v = run(check_bans, "crates/mpi/src/comm.rs", "fn f() { let t = Instant::now(); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wall-clock");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn wallclock_ignores_prose_and_strings_and_tests() {
        // `Instantiate` in a doc comment and `Instant` in a string must
        // not fire; a cfg(test) module may sleep.
        let src = "/// Instantiate the network.\nfn f() { let s = \"Instant\"; }\n\
                   #[cfg(test)]\nmod t {\n fn g() { std::thread::sleep(d); }\n}\n";
        let v = run(check_bans, "crates/mpi/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn wallclock_has_one_home() {
        let now = "fn f() { Instant::now(); }";
        assert!(run(check_bans, "src/cmd/serve_torture.rs", now).is_empty());
        // the analyzer, the substrate's clock and the sync primitives
        // are not exempt
        for path in
            ["crates/analyze/src/rules.rs", "crates/sim/src/clock.rs", "crates/sync/src/condvar.rs"]
        {
            assert_eq!(run(check_bans, path, now).len(), 1, "{path}");
        }
    }

    #[test]
    fn wallclock_waiver_suppresses() {
        let src = "fn f() { let d = Instant::now(); } \
                   // beff-analyze: allow(wall-clock): host-side report only\n";
        assert!(run(check_bans, "crates/mpi/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_order_flags_hashmap_in_every_crate() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        for path in ["crates/netsim/src/x.rs", "crates/report/src/x.rs", "src/cmd/serve.rs"] {
            let v = run(check_bans, path, src);
            assert_eq!(v.len(), 3, "{path}"); // use + type + ctor
            assert!(v.iter().all(|v| v.rule == "hash-order"));
        }
    }

    #[test]
    fn hash_order_covers_thread_ids_and_addresses() {
        let src = "fn f() {\n let t: ThreadId = id();\n let p = addr_of!(x);\n}";
        let v = run(check_bans, "crates/sim/src/pool.rs", src);
        let found: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(found, [("hash-order", 2), ("hash-order", 3)]);
    }

    #[test]
    fn threading_flags_spawn_outside_homes() {
        let v = run(check_bans, "crates/bench/src/x.rs", "fn f() { std::thread::spawn(|| {}); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "threading");
        assert!(v[0].message.contains("map_ordered"));
    }

    #[test]
    fn threading_allows_homes_tests_and_waivers() {
        // the substrate and the sync crate may spawn…
        for home in ["crates/sim/src/pool.rs", "crates/sync/src/condvar.rs"] {
            assert!(run(check_bans, home, "fn f() { s.spawn(|| {}); }").is_empty());
        }
        // …the MPI runtime may not…
        let spawn = "fn f() { s.spawn(|| {}); }";
        assert_eq!(run(check_bans, "crates/mpi/src/runtime.rs", spawn).len(), 1);
        // …test code may spawn…
        let test_src = "#[cfg(test)]\nmod t {\n fn g() { std::thread::spawn(|| {}); }\n}\n";
        assert!(run(check_bans, "crates/bench/src/x.rs", test_src).is_empty());
        // …and a waiver suppresses with a reason on record.
        let waived = "fn f() {\n // beff-analyze: allow(threading): real second thread\n \
                      std::thread::spawn(|| {});\n}";
        assert!(run(check_bans, "crates/bench/src/x.rs", waived).is_empty());
    }

    #[test]
    fn threading_covers_sizing_idents_too() {
        let src = "fn f() { let n = std::thread::available_parallelism(); }";
        assert_eq!(run(check_bans, "crates/netsim/src/x.rs", src).len(), 1);
    }

    #[test]
    fn fiber_asm_is_fine_inside_sim() {
        let src = "unsafe extern \"sysv64\" fn s() { naked_asm!(\"ret\") }\n";
        assert!(run(check_bans, "crates/sim/src/fiber.rs", src).is_empty());
    }

    #[test]
    fn fiber_asm_outside_sim_is_flagged_in_tests_too() {
        let v = run(check_bans, "crates/mpi/src/runtime.rs", "fn f() { naked_asm!(\"ret\") }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "layering");
        assert!(v[0].message.contains("context-switch"));
        let test_src = "#[cfg(test)]\nmod t {\n fn g() { naked_asm!(\"ret\") }\n}\n";
        assert_eq!(run(check_bans, "crates/mpi/src/runtime.rs", test_src).len(), 1);
    }

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

    #[test]
    fn safety_requires_comment_on_unsafe_block() {
        let bad = run(check_safety, "crates/mpi/src/x.rs", "fn f() { unsafe { go() } }");
        assert_eq!(bad.len(), 1);
        let good = run(
            check_safety,
            "crates/mpi/src/x.rs",
            "fn f() {\n // SAFETY: pointer valid for the call\n unsafe { go() }\n}",
        );
        assert!(good.is_empty());
    }

    #[test]
    fn safety_covers_unsafe_impl_and_skips_attrs() {
        let bad = run(check_safety, "crates/mpi/src/x.rs", "unsafe impl Send for X {}");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("unsafe impl"));
        // attribute form and unsafe fn decl are not blocks
        let ok = run(
            check_safety,
            "crates/mpi/src/x.rs",
            "#[unsafe(naked)]\nunsafe extern \"C\" fn f() {}",
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn safety_same_line_comment_counts() {
        let ok = run(
            check_safety,
            "crates/mpi/src/x.rs",
            "fn f() { unsafe { go() } // SAFETY: single-threaded here\n}",
        );
        assert!(ok.is_empty());
    }
}
