//! The rule implementations. Each rule walks one [`SourceFile`]'s
//! token stream and emits [`Violation`]s; waivers and test-scope
//! decisions are applied here so every rule reports the same way.
//!
//! | rule         | scope                              | waivable |
//! |--------------|------------------------------------|----------|
//! | `wall-clock`  | non-test code, minus exempt crates | yes      |
//! | `hash-order`  | non-test code of deterministic crates | yes   |
//! | `threading`   | non-test code outside the thread homes | yes  |
//! | `unwrap`      | everything, per-crate budget       | yes      |
//! | `safety`      | non-test `unsafe` blocks & impls   | yes      |
//! | `lock-order`  | declared locks, whole workspace    | yes      |
//! | `waiver`      | malformed waivers themselves       | no       |

use crate::config;
use crate::lexer::{Token, TokenKind};
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

/// One interprocedural-pass finding, before budget settlement. The
/// engine groups these per crate, compares against the pass's baseline
/// table, and promotes every finding in an over-budget crate to a
/// [`Violation`].
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
/// failed to parse would otherwise *disable itself*.
pub fn check_waivers(f: &SourceFile, out: &mut Vec<Violation>) {
    for (line, msg) in &f.bad_waivers {
        out.push(Violation {
            rule: "waiver",
            path: f.path.clone(),
            line: *line,
            message: msg.clone(),
        });
    }
}

/// Rule `wall-clock`: no `Instant`, `SystemTime`, `sleep`,
/// `park_timeout` identifiers in deterministic library code. Test code
/// is out of scope (stress tests time real races on purpose). Returns
/// the number of honored waivers.
pub fn check_wallclock(f: &SourceFile, out: &mut Vec<Violation>) -> usize {
    if !config::wallclock_applies(&f.path) {
        return 0;
    }
    let mut waived = 0;
    for t in &f.tokens {
        if t.kind != TokenKind::Ident || !config::WALLCLOCK_IDENTS.contains(&t.text.as_str()) {
            continue;
        }
        if f.is_test_line(t.line) {
            continue;
        }
        if f.waived("wall-clock", t.line) {
            waived += 1;
            continue;
        }
        out.push(Violation {
            rule: "wall-clock",
            path: f.path.clone(),
            line: t.line,
            message: format!(
                "`{}` reads host time/scheduling in a deterministic module; use the \
                 simulated clock (netsim::clock) or waive with \
                 `// beff-analyze: allow(wall-clock): <why>`",
                t.text
            ),
        });
    }
    waived
}

/// Rule `hash-order`: no hasher-ordered containers in deterministic
/// crates — iteration order would depend on the process-random hasher.
/// Keyed-lookup-only maps may stay, with a waiver saying so. Returns
/// the number of honored waivers.
pub fn check_hash_order(f: &SourceFile, out: &mut Vec<Violation>) -> usize {
    if !config::hash_order_applies(&f.path) {
        return 0;
    }
    let mut waived = 0;
    for t in &f.tokens {
        if t.kind != TokenKind::Ident || !config::HASH_ORDER_IDENTS.contains(&t.text.as_str()) {
            continue;
        }
        if f.is_test_line(t.line) {
            continue;
        }
        if f.waived("hash-order", t.line) {
            waived += 1;
            continue;
        }
        out.push(Violation {
            rule: "hash-order",
            path: f.path.clone(),
            line: t.line,
            message: format!(
                "`{}` has hasher-dependent iteration order in a deterministic crate; \
                 use BTreeMap/BTreeSet, or waive keyed-lookup-only use with \
                 `// beff-analyze: allow(hash-order): <why>`",
                t.text
            ),
        });
    }
    waived
}

/// Is `path` one of the places allowed to create threads? Directory
/// homes (trailing `/`) match as prefixes, file homes as suffixes.
fn thread_home(path: &str) -> bool {
    config::THREAD_HOMES.iter().any(|h| {
        if h.ends_with('/') {
            path.starts_with(h) || path.contains(&format!("/{h}"))
        } else {
            path.ends_with(h)
        }
    })
}

/// Rule `threading`: no `spawn`/`Builder`/`JoinHandle`/
/// `available_parallelism` identifiers outside [`config::THREAD_HOMES`]
/// — the worker-pool quarantine mirroring the fiber quarantine. Host
/// parallelism elsewhere must route through `beff_sim::map_ordered`,
/// whose submission-order results keep worker count unobservable. Test
/// code is out of scope (stress tests race real threads on purpose).
/// Returns the number of honored waivers.
pub fn check_threading(f: &SourceFile, out: &mut Vec<Violation>) -> usize {
    if thread_home(&f.path) {
        return 0;
    }
    let mut waived = 0;
    for t in &f.tokens {
        if t.kind != TokenKind::Ident || !config::THREAD_IDENTS.contains(&t.text.as_str()) {
            continue;
        }
        if f.is_test_line(t.line) {
            continue;
        }
        if f.waived("threading", t.line) {
            waived += 1;
            continue;
        }
        out.push(Violation {
            rule: "threading",
            path: f.path.clone(),
            line: t.line,
            message: format!(
                "`{}` creates or sizes host threads outside the thread homes; use \
                 `beff_sim::map_ordered` over the shared worker pool, or waive with \
                 `// beff-analyze: allow(threading): <why>`",
                t.text
            ),
        });
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

/// Rule `lock-order`: declared locks must be acquired in strictly
/// increasing level order within a function. This is the *textual*
/// half of the hierarchy check — it sees nesting visible in one
/// function body; the `lock-order` feature of beff-sync checks the
/// dynamic lockset across calls at test time.
pub fn check_lock_order(f: &SourceFile, out: &mut Vec<Violation>) -> usize {
    lock_order_in(config::LOCK_HIERARCHY, f, out)
}

/// [`check_lock_order`] against an explicit hierarchy (the tests'
/// fixture: no file of the real one declares two locks any more).
fn lock_order_in(hierarchy: &[config::LockDecl], f: &SourceFile, out: &mut Vec<Violation>) -> usize {
    let decls: Vec<&config::LockDecl> = hierarchy
        .iter()
        .filter(|d| f.path.ends_with(d.file_suffix))
        .collect();
    if decls.is_empty() {
        return 0;
    }
    let mut waived = 0;
    struct Live {
        depth: usize,
        level: u16,
        name: &'static str,
        let_bound: bool,
    }
    let toks = &f.tokens;
    let mut live: Vec<Live> = Vec::new();
    let mut depth = 0usize;
    for i in 0..toks.len() {
        let t = &toks[i];
        match t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                live.retain(|l| l.depth <= depth);
            }
            TokenKind::Punct(';') => {
                live.retain(|l| l.let_bound || l.depth != depth);
            }
            TokenKind::Ident => {
                let Some(decl) = decls.iter().find(|d| d.receiver == t.text) else {
                    continue;
                };
                // receiver . method (
                if !matches!(toks.get(i + 1), Some(n) if n.is_punct('.')) {
                    continue;
                }
                let Some(m) = toks.get(i + 2) else { continue };
                if m.kind != TokenKind::Ident || !decl.methods.contains(&m.text.as_str()) {
                    continue;
                }
                if !matches!(toks.get(i + 3), Some(p) if p.is_punct('(')) {
                    continue;
                }
                if f.waived("lock-order", t.line) {
                    waived += 1;
                    continue;
                }
                for held in &live {
                    if held.level >= decl.level {
                        out.push(Violation {
                            rule: "lock-order",
                            path: f.path.clone(),
                            line: t.line,
                            message: format!(
                                "acquiring '{}' (level {}) while '{}' (level {}) is held; \
                                 the declared hierarchy requires strictly increasing levels",
                                decl.name, decl.level, held.name, held.level
                            ),
                        });
                    }
                }
                live.push(Live {
                    depth,
                    level: decl.level,
                    name: decl.name,
                    let_bound: stmt_starts_with_let(toks, i),
                });
            }
            _ => {}
        }
    }
    waived
}

/// Does the statement containing token `i` start with `let` (so the
/// guard outlives the statement)?
fn stmt_starts_with_let(toks: &[Token], i: usize) -> bool {
    for j in (0..i).rev() {
        match toks[j].kind {
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => {
                return matches!(toks.get(j + 1), Some(t) if t.is_ident("let"));
            }
            _ => {}
        }
    }
    matches!(toks.first(), Some(t) if t.is_ident("let"))
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
    fn wallclock_flags_instant_in_deterministic_crate() {
        let v = run(
            check_wallclock,
            "crates/mpi/src/comm.rs",
            "fn f() { let t = Instant::now(); }",
        );
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
        let v = run(check_wallclock, "crates/mpi/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn wallclock_respects_exempt_scope() {
        assert!(run(
            check_wallclock,
            "crates/sync/src/channel.rs",
            "fn f() { Instant::now(); }"
        )
        .is_empty());
        assert!(run(
            check_wallclock,
            "crates/sim/src/clock.rs",
            "fn f() { Instant::now(); }"
        )
        .is_empty());
    }

    #[test]
    fn wallclock_waiver_suppresses() {
        let src = "fn f() { let d = Instant::now(); } \
                   // beff-analyze: allow(wall-clock): real-mode only\n";
        assert!(run(check_wallclock, "crates/mpi/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_order_flags_hashmap_in_deterministic_crate() {
        let v = run(
            check_hash_order,
            "crates/netsim/src/x.rs",
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }",
        );
        assert_eq!(v.len(), 3); // use + type + ctor
        assert!(v.iter().all(|v| v.rule == "hash-order"));
    }

    #[test]
    fn hash_order_ignores_non_deterministic_crates() {
        assert!(run(
            check_hash_order,
            "crates/report/src/x.rs",
            "use std::collections::HashMap;"
        )
        .is_empty());
    }

    #[test]
    fn threading_flags_spawn_outside_homes() {
        let v = run(
            check_threading,
            "crates/bench/src/x.rs",
            "fn f() { std::thread::spawn(|| {}); }",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "threading");
        assert!(v[0].message.contains("map_ordered"));
    }

    #[test]
    fn threading_allows_homes_tests_and_waivers() {
        // the substrate's pool, the sync crate, and the MPI launcher
        // may spawn…
        for home in
            ["crates/sim/src/pool.rs", "crates/sync/src/channel.rs", "crates/mpi/src/runtime.rs"]
        {
            assert!(run(check_threading, home, "fn f() { s.spawn(|| {}); }").is_empty());
        }
        // …test code may spawn…
        let test_src = "#[cfg(test)]\nmod t {\n fn g() { std::thread::spawn(|| {}); }\n}\n";
        assert!(run(check_threading, "crates/bench/src/x.rs", test_src).is_empty());
        // …and a waiver suppresses with a reason on record.
        let waived = "fn f() {\n // beff-analyze: allow(threading): real second thread\n \
                      std::thread::spawn(|| {});\n}";
        assert!(run(check_threading, "crates/bench/src/x.rs", waived).is_empty());
    }

    #[test]
    fn threading_covers_sizing_idents_too() {
        let v = run(
            check_threading,
            "crates/netsim/src/x.rs",
            "fn f() { let n = std::thread::available_parallelism(); }",
        );
        assert_eq!(v.len(), 1);
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

    /// Two locks declared in one file, as `sched.rs` had when each
    /// rank parked on its own flag.
    fn two_locks(f: &SourceFile, out: &mut Vec<Violation>) -> usize {
        let decl = |receiver, level, name| config::LockDecl {
            file_suffix: "crates/sim/src/sched.rs",
            receiver,
            methods: &["lock"],
            level,
            name,
        };
        lock_order_in(&[decl("inner", 40, "sched.state"), decl("granted", 50, "sched.flag")], f, out)
    }

    #[test]
    fn lock_order_flags_inverted_nesting() {
        // granted (50) held via let, then inner (40) acquired → violation.
        let src = "fn f(&self) {\n let g = self.granted.lock();\n let st = self.inner.lock();\n}";
        let v = run(two_locks, "crates/sim/src/sched.rs", src);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("sched.state"));
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn lock_order_accepts_increasing_and_sequential() {
        // Increasing nesting is fine…
        let inc = "fn f(&self) {\n let st = self.inner.lock();\n let g = self.granted.lock();\n}";
        assert!(run(two_locks, "crates/sim/src/sched.rs", inc).is_empty());
        // …and a statement-temporary guard dies at the `;`.
        let seq = "fn f(&self) {\n self.granted.lock().x = 1;\n let st = self.inner.lock();\n}";
        assert!(run(two_locks, "crates/sim/src/sched.rs", seq).is_empty());
    }

    #[test]
    fn lock_order_flags_same_level_reacquisition() {
        let src = "fn f(&self) {\n let a = self.inner.lock();\n let b = self.inner.lock();\n}";
        let v = run(check_lock_order, "crates/sim/src/sched.rs", src);
        assert_eq!(v.len(), 1, "self-deadlock on one std mutex");
    }

    #[test]
    fn lock_order_let_guard_dies_with_block() {
        let src = "fn f(&self) {\n { let g = self.granted.lock(); }\n let st = self.inner.lock();\n}";
        assert!(run(two_locks, "crates/sim/src/sched.rs", src).is_empty());
    }
}
