//! Static lock-order proof, within functions and along call chains.
//!
//! The hierarchy is [`crate::ranks::resolve`]'s: each declared lock at
//! the level of its file's `Rank::new` literal. This pass computes, for
//! every function, the set of declared locks the function may
//! (transitively) acquire and whether it may (transitively) reach a
//! scheduler suspension point ([`config::YIELD_IDENTS`]), then re-walks
//! each function body with a held-lock tracker and flags three shapes:
//!
//! * **nesting** — a direct acquisition while a lock at the same or a
//!   higher level is held in the same function: an inversion, or a
//!   second guard on one lock (a self-deadlock on a std mutex);
//! * **inversion** — a call made while holding lock L, where the callee
//!   may acquire a lock at level ≤ L. The declared hierarchy requires
//!   strictly increasing acquisition levels on every path, so this is a
//!   potential deadlock even though no single function shows the
//!   nesting;
//! * **held-across-yield** — a call made while holding any declared
//!   lock, where the callee may surrender the turn
//!   (`yield_turn`/`yield_blocked`/fiber switch). A lock held over a
//!   suspension point serializes every other actor needing that lock
//!   behind the scheduler's choice to resume the holder — the classic
//!   deterministic-deadlock shape.
//!
//! Conservatism inherits from the call graph: ambiguous call sites
//! contribute every candidate's summary, so a finding here means "no
//! proof of safety", not "proof of deadlock". Every finding is a
//! violation; waive a proven-safe site with
//! `// beff-analyze: allow(lockflow): why` on its line.

use crate::callgraph::CallGraph;
use crate::config;
use crate::items::FileItems;
use crate::lexer::TokenKind;
use crate::ranks::{self, RankedLock};
use crate::rules::Violation;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;
use std::collections::BTreeMap;

/// A lock identity: (level, name).
type Lock<'h> = (u16, &'h str);

/// Per-fn summary: every lock the fn may acquire (directly or through
/// any callee), with one witness acquisition site each.
type AcquireMap<'h> = BTreeMap<Lock<'h>, (String, u32)>;

pub struct LockFlowResult {
    pub violations: Vec<Violation>,
    pub waived: u32,
}

pub fn run(
    files: &[(SourceFile, FileItems)],
    syms: &SymbolTable,
    g: &CallGraph,
    locks: &[RankedLock],
) -> LockFlowResult {
    let n = syms.fns.len();

    // Direct acquisitions per fn, in token order.
    let direct: Vec<Vec<DirectAcq>> =
        (0..n).map(|id| direct_acquires(id, files, syms, g, locks)).collect();

    // Transitive acquire sets: fixpoint over callee summaries.
    let mut may_acquire: Vec<AcquireMap> = vec![BTreeMap::new(); n];
    for id in 0..n {
        for a in &direct[id] {
            may_acquire[id]
                .entry(a.lock)
                .or_insert_with(|| (syms.fns[id].path.clone(), a.line));
        }
    }
    fixpoint(n, g, |id, g| {
        let mut grew = false;
        for ci in 0..g.callees[id].len() {
            let c = g.callees[id][ci];
            if c == id {
                continue;
            }
            let add: Vec<(Lock, (String, u32))> = may_acquire[c]
                .iter()
                .filter(|(k, _)| !may_acquire[id].contains_key(*k))
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            if !add.is_empty() {
                grew = true;
                may_acquire[id].extend(add);
            }
        }
        grew
    });

    // Transitive may-yield: seeded by direct calls to a yield ident.
    let mut may_yield: Vec<Option<(String, u32)>> = vec![None; n];
    for id in 0..n {
        for s in g.sites_of(id) {
            if config::YIELD_IDENTS.contains(&s.name.as_str()) {
                may_yield[id] = Some((syms.fns[id].path.clone(), s.line));
                break;
            }
        }
    }
    fixpoint(n, g, |id, g| {
        if may_yield[id].is_some() {
            return false;
        }
        for &c in &g.callees[id] {
            if let Some(w) = may_yield[c].clone() {
                may_yield[id] = Some(w);
                return true;
            }
        }
        false
    });

    // Re-walk each fn with the held tracker and judge its acquisitions
    // and call sites.
    let mut violations = Vec::new();
    let mut waived = 0u32;
    for id in 0..n {
        if syms.fns[id].is_test {
            continue;
        }
        judge_fn(
            id,
            files,
            syms,
            g,
            &direct[id],
            &may_acquire,
            &may_yield,
            &mut violations,
            &mut waived,
        );
    }
    violations.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    LockFlowResult { violations, waived }
}

/// Iterate `step` over all fns until a full sweep changes nothing.
/// Each lock/yield fact can only be added once per fn, so the sweep
/// count is bounded by facts × functions.
fn fixpoint(n: usize, g: &CallGraph, mut step: impl FnMut(usize, &CallGraph) -> bool) {
    loop {
        let mut changed = false;
        for id in 0..n {
            changed |= step(id, g);
        }
        if !changed {
            return;
        }
    }
}

/// One direct lock acquisition inside a fn body.
struct DirectAcq<'h> {
    /// Token index of the receiver ident.
    tok: usize,
    line: u32,
    lock: Lock<'h>,
    let_bound: bool,
    /// `let`-bound guard variable name, for `drop(var)` release.
    var: Option<String>,
}

fn direct_acquires<'h>(
    id: usize,
    files: &[(SourceFile, FileItems)],
    syms: &SymbolTable,
    g: &CallGraph,
    locks: &'h [RankedLock],
) -> Vec<DirectAcq<'h>> {
    let (src, items) = &files[syms.fns[id].file];
    let mine: Vec<&RankedLock> =
        locks.iter().filter(|l| src.path.ends_with(l.decl.file_suffix)).collect();
    if mine.is_empty() {
        return Vec::new();
    }
    let Some((a, b)) = g.scans[id].body else { return Vec::new() };
    let toks = &src.tokens;
    let mut out = Vec::new();
    let mut k = a;
    while k <= b {
        if let Some(&(_, sb)) = g.scans[id].skip.iter().find(|&&(sa, sb)| k >= sa && k <= sb) {
            k = sb + 1;
            continue;
        }
        if items.in_macro(k) {
            k += 1;
            continue;
        }
        if let Some(l) = mine.iter().find(|l| ranks::acquires_at(toks, k, l.decl)) {
            let (let_bound, var) = binding_of(toks, k, a);
            out.push(DirectAcq {
                tok: k,
                line: toks[k].line,
                lock: (l.level, l.name.as_str()),
                let_bound,
                var,
            });
        }
        k += 1;
    }
    out
}

/// Is the statement containing token `i` a `let` binding, and if so to
/// which variable? Scans back to the previous statement boundary (not
/// past the body start `a`).
fn binding_of(toks: &[crate::lexer::Token], i: usize, a: usize) -> (bool, Option<String>) {
    let mut j = i;
    while j > a {
        match toks[j - 1].kind {
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => break,
            _ => j -= 1,
        }
    }
    if !matches!(toks.get(j), Some(t) if t.is_ident("let")) {
        return (false, None);
    }
    let mut v = j + 1;
    if matches!(toks.get(v), Some(t) if t.is_ident("mut")) {
        v += 1;
    }
    let var = toks
        .get(v)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone());
    (true, var)
}

#[allow(clippy::too_many_arguments)]
fn judge_fn(
    id: usize,
    files: &[(SourceFile, FileItems)],
    syms: &SymbolTable,
    g: &CallGraph,
    direct: &[DirectAcq],
    may_acquire: &[AcquireMap],
    may_yield: &[Option<(String, u32)>],
    violations: &mut Vec<Violation>,
    waived: &mut u32,
) {
    let d = &syms.fns[id];
    let sites = g.sites_of(id);
    if direct.is_empty() {
        return;
    }
    let (src, _) = &files[d.file];
    let Some((a, b)) = g.scans[id].body else { return };
    let toks = &src.tokens;
    let mut report = |line: u32, message: String| {
        if src.waived("lockflow", line) {
            *waived += 1;
        } else {
            violations.push(Violation { rule: "lockflow", path: src.path.clone(), line, message });
        }
    };

    struct Held<'h> {
        depth: usize,
        lock: Lock<'h>,
        let_bound: bool,
        var: Option<String>,
    }
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;
    let mut acq_i = 0usize;
    let mut site_i = 0usize;
    while site_i < sites.len() && sites[site_i].tok < a {
        site_i += 1;
    }
    for k in a..=b {
        let t = &toks[k];
        match t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                held.retain(|h| h.depth <= depth);
            }
            TokenKind::Punct(';') => held.retain(|h| h.let_bound || h.depth != depth),
            TokenKind::Ident => {
                // Explicit `drop(guard)` releases a let-bound guard.
                if t.text == "drop"
                    && matches!(toks.get(k + 1), Some(p) if p.is_punct('('))
                    && matches!(toks.get(k + 3), Some(p) if p.is_punct(')'))
                {
                    if let Some(v) = toks.get(k + 2).filter(|v| v.kind == TokenKind::Ident) {
                        held.retain(|h| h.var.as_deref() != Some(v.text.as_str()));
                    }
                }
            }
            _ => {}
        }
        // Call-site checks happen *before* recording an acquisition at
        // the same token (the callee runs before the guard exists only
        // for argument positions; for the lock call itself the receiver
        // token precedes the method-call site, handled below).
        while site_i < sites.len() && sites[site_i].tok == k {
            let s = &sites[site_i];
            site_i += 1;
            // The acquisition's own `.lock()` call is judged as the
            // acquisition below, not as a call.
            let is_own_acq = direct.iter().any(|aq| aq.tok + 2 == s.tok);
            if is_own_acq || held.is_empty() {
                continue;
            }
            for h in &held {
                for &tgt in &s.targets {
                    for (lock, (wp, wl)) in &may_acquire[tgt] {
                        if lock.0 <= h.lock.0 {
                            report(
                                s.line,
                                format!(
                                    "holding '{}' (level {}) while calling `{}`, which may \
                                     acquire '{}' (level {}) at {}:{}",
                                    h.lock.1,
                                    h.lock.0,
                                    syms.fns[tgt].qual_name(),
                                    lock.1,
                                    lock.0,
                                    wp,
                                    wl
                                ),
                            );
                        }
                    }
                }
            }
            let yield_conflict = s
                .targets
                .iter()
                .filter_map(|&tgt| may_yield[tgt].as_ref().map(|w| (tgt, w)))
                .next()
                .map(|(tgt, (wp, wl))| {
                    format!(
                        "holding '{}' (level {}) across `{}`, which may surrender the \
                         turn at {}:{}; a lock held over a suspension point can deadlock \
                         the scheduler",
                        held[0].lock.1,
                        held[0].lock.0,
                        syms.fns[tgt].qual_name(),
                        wp,
                        wl
                    )
                })
                .or_else(|| {
                    config::YIELD_IDENTS.contains(&s.name.as_str()).then(|| {
                        format!(
                            "holding '{}' (level {}) across `{}` — a suspension point; \
                             a lock held over a yield can deadlock the scheduler",
                            held[0].lock.1, held[0].lock.0, s.name
                        )
                    })
                });
            if let Some(msg) = yield_conflict {
                report(s.line, msg);
            }
        }
        while acq_i < direct.len() && direct[acq_i].tok == k {
            let aq = &direct[acq_i];
            acq_i += 1;
            for h in held.iter().filter(|h| h.lock.0 >= aq.lock.0) {
                report(
                    aq.line,
                    format!(
                        "acquiring '{}' (level {}) while '{}' (level {}) is held; the \
                         declared hierarchy requires strictly increasing levels",
                        aq.lock.1, aq.lock.0, h.lock.1, h.lock.0
                    ),
                );
            }
            held.push(Held {
                depth,
                lock: aq.lock,
                let_bound: aq.let_bound,
                var: aq.var.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::config::LockDecl;
    use crate::items::parse_items;

    fn analyze_with(files: &[(&str, &str)], locks: Option<Vec<RankedLock>>) -> LockFlowResult {
        let parsed: Vec<(SourceFile, FileItems)> = files
            .iter()
            .map(|(p, s)| {
                let f = SourceFile::parse(p, s);
                let it = parse_items(&f);
                (f, it)
            })
            .collect();
        let mut v = Vec::new();
        let locks = locks.unwrap_or_else(|| {
            let literals: Vec<_> = parsed.iter().flat_map(|(f, _)| ranks::scan(f, &mut v)).collect();
            let scanned: Vec<String> = parsed.iter().map(|(f, _)| f.path.clone()).collect();
            ranks::resolve(&literals, &scanned, &mut v)
        });
        let syms = SymbolTable::build(&parsed);
        let g = callgraph::build(&parsed, &syms, &mut v);
        assert!(v.is_empty(), "fixture is not clean outside lockflow: {v:?}");
        run(&parsed, &syms, &g, &locks)
    }

    /// Resolve the hierarchy from the sources' own `Rank::new` literals.
    fn analyze(files: &[(&str, &str)]) -> LockFlowResult {
        analyze_with(files, None)
    }

    const SCHED: &str = "crates/sim/src/sched.rs";
    const PORT: &str = "crates/sim/src/port.rs";

    /// `sched.state` at level 40 (receiver `inner`).
    fn sched(body: &str) -> (&'static str, String) {
        (SCHED, format!("static R: Rank = Rank::new(40, \"sched.state\");\n{body}"))
    }

    /// `sim.port` at level 30 (receiver `inner`).
    fn port(body: &str) -> (&'static str, String) {
        (PORT, format!("static R: Rank = Rank::new(30, \"sim.port\");\n{body}"))
    }

    fn files<'a>(owned: &'a [(&'static str, String)]) -> Vec<(&'a str, &'a str)> {
        owned.iter().map(|(p, s)| (*p, s.as_str())).collect()
    }

    fn lines(r: &LockFlowResult) -> Vec<(&str, u32)> {
        r.violations.iter().map(|v| (v.path.as_str(), v.line)).collect()
    }

    /// Two locks in one file, as `sched.rs` had when each rank parked
    /// on its own flag: `sched.state` (40, `inner`) and `sched.flag`
    /// (50, `granted`). `ranks::resolve` admits one lock a file, so the
    /// source's two literals are paired with the two receivers by hand.
    fn two_locks(body: &str) -> LockFlowResult {
        static STATE: LockDecl = LockDecl { file_suffix: SCHED, receiver: "inner", methods: &["lock"] };
        static FLAG: LockDecl = LockDecl { file_suffix: SCHED, receiver: "granted", methods: &["lock"] };
        let src = format!(
            "static STATE: Rank = Rank::new(40, \"sched.state\");\n\
             static FLAG: Rank = Rank::new(50, \"sched.flag\");\n{body}"
        );
        let literals = ranks::scan(&SourceFile::parse(SCHED, &src), &mut Vec::new());
        let locks = [&STATE, &FLAG]
            .into_iter()
            .zip(literals)
            .map(|(decl, l)| RankedLock { decl, level: l.level, name: l.name })
            .collect();
        analyze_with(&[(SCHED, &src)], Some(locks))
    }

    #[test]
    fn cross_function_inversion_is_found() {
        let src = [
            sched("pub fn holds_sched() {\n let g = inner.lock();\n lower();\n}\n"),
            port("pub fn lower() {\n let o = inner.lock();\n}\n"),
        ];
        let r = analyze(&files(&src));
        assert_eq!(lines(&r), [(SCHED, 4)], "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "lockflow");
        assert!(r.violations[0].message.contains("sim.port"));
        assert!(r.violations[0].message.contains("sched.state"));
    }

    #[test]
    fn the_literal_sets_the_level() {
        // The same nesting as above, with `sched.state` ranked below
        // `sim.port`: increasing, so clean.
        let src = [
            (SCHED, "static R: Rank = Rank::new(20, \"sched.state\");\n\
                     pub fn holds_sched() {\n let g = inner.lock();\n lower();\n}\n"
                .to_string()),
            port("pub fn lower() {\n let o = inner.lock();\n}\n"),
        ];
        let r = analyze(&files(&src));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn increasing_chain_is_clean() {
        let src = [
            port("pub fn flush() {\n let o = inner.lock();\n higher();\n}\n"),
            sched("pub fn higher() {\n let g = inner.lock();\n}\n"),
        ];
        let r = analyze(&files(&src));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn inversion_through_an_intermediate_hop() {
        let src = [
            sched("pub fn top() {\n let g = inner.lock();\n middle();\n}\n"),
            ("crates/sim/src/lib.rs", "pub fn middle() {\n bottom();\n}\n".to_string()),
            port("pub fn bottom() {\n let o = inner.lock();\n}\n"),
        ];
        let r = analyze(&files(&src));
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].message.contains("middle"));
        assert!(r.violations[0].message.contains("port.rs:3"), "{}", r.violations[0].message);
    }

    #[test]
    fn guard_dropped_before_call_is_clean() {
        let src = [
            sched("pub fn careful() {\n let g = inner.lock();\n drop(g);\n lower();\n}\n"),
            port("pub fn lower() {\n let o = inner.lock();\n}\n"),
        ];
        let r = analyze(&files(&src));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let src = [
            sched("pub fn scoped() {\n {\n  let g = inner.lock();\n }\n lower();\n}\n"),
            port("pub fn lower() {\n let o = inner.lock();\n}\n"),
        ];
        let r = analyze(&files(&src));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn lock_held_across_yield_is_found() {
        let src = [port("pub fn bad() {\n let o = inner.lock();\n yield_turn();\n}\n")];
        let r = analyze(&files(&src));
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].message.contains("suspension"));
    }

    #[test]
    fn transitive_yield_is_found() {
        let src = [
            port("pub fn bad() {\n let o = inner.lock();\n helper();\n}\n"),
            ("crates/sim/src/lib.rs", "pub fn helper() {\n yield_turn();\n}\n".to_string()),
        ];
        let r = analyze(&files(&src));
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].message.contains("helper"));
    }

    #[test]
    fn waiver_suppresses_and_is_counted() {
        let src = [port(
            "pub fn waived() {\n let o = inner.lock();\n \
             // beff-analyze: allow(lockflow): the port is held over the handoff by design\n \
             yield_turn();\n}\n",
        )];
        let r = analyze(&files(&src));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn test_code_is_not_judged() {
        let src = [port(
            "#[cfg(test)]\nmod t {\n fn bad() {\n  let o = inner.lock();\n  yield_turn();\n }\n}\n\
             pub fn live() {\n inner.lock();\n}\n",
        )];
        let r = analyze(&files(&src));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn inverted_direct_nesting_is_found() {
        // `granted` (50) held via let, then `inner` (40) acquired.
        let src = "fn f(&self) {\n let g = self.granted.lock();\n let st = self.inner.lock();\n}";
        let r = two_locks(src);
        assert_eq!(lines(&r), [(SCHED, 5)], "{:?}", r.violations);
        assert!(r.violations[0].message.contains("acquiring 'sched.state' (level 40)"));
    }

    #[test]
    fn same_level_reacquisition_is_found() {
        // A second guard on one std mutex: a self-deadlock.
        let src = [port("pub fn twice(&self) {\n let a = self.inner.lock();\n let b = self.inner.lock();\n}\n")];
        let r = analyze(&files(&src));
        assert_eq!(lines(&r), [(PORT, 4)], "{:?}", r.violations);
        assert!(r.violations[0].message.contains("while 'sim.port' (level 30) is held"));
    }

    #[test]
    fn increasing_and_sequential_direct_acquisitions_are_clean() {
        // Increasing nesting is fine…
        let inc = "fn f(&self) {\n let st = self.inner.lock();\n let g = self.granted.lock();\n}";
        assert!(two_locks(inc).violations.is_empty());
        // …and a statement-temporary guard dies at the `;`.
        let seq = "fn f(&self) {\n self.granted.lock().x = 1;\n let st = self.inner.lock();\n}";
        assert!(two_locks(seq).violations.is_empty());
    }

    #[test]
    fn a_let_guard_dies_with_its_block() {
        let src = "fn f(&self) {\n { let g = self.granted.lock(); }\n let st = self.inner.lock();\n}";
        assert!(two_locks(src).violations.is_empty());
    }

    #[test]
    fn a_waiver_suppresses_a_direct_nesting() {
        let src = [port(
            "pub fn twice(&self) {\n let a = self.inner.lock();\n \
             let b = self.inner.lock(); // beff-analyze: allow(lockflow): fixture\n}\n",
        )];
        let r = analyze(&files(&src));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.waived, 1);
    }
}
