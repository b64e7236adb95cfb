//! Static lock-order proof along call chains.
//!
//! The per-line `lock-order` rule (rules.rs) catches *textually* nested
//! out-of-order acquisitions inside one function. This pass closes the
//! interprocedural gap: it computes, for every function, the set of
//! declared locks the function may (transitively) acquire and whether
//! it may (transitively) reach a scheduler suspension point
//! ([`config::YIELD_IDENTS`]), then re-walks each function body with a
//! held-lock tracker and flags two shapes at call sites:
//!
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
//! proof of safety", not "proof of deadlock". Waive with
//! `// beff-analyze: allow(lockflow): why` on the call-site line;
//! per-crate baselines live in [`config::LOCKFLOW_BUDGETS`].

use crate::callgraph::CallGraph;
use crate::config;
use crate::items::FileItems;
use crate::lexer::TokenKind;
use crate::rules::Finding;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;
use std::collections::BTreeMap;

/// A lock identity: (level, name).
type Lock = (u16, &'static str);

/// Per-fn summary: every lock the fn may acquire (directly or through
/// any callee), with one witness acquisition site each.
type AcquireMap = BTreeMap<Lock, (String, u32)>;

pub struct LockFlowResult {
    pub findings: Vec<Finding>,
    pub waived: u32,
    /// Per-fn transitive acquire summaries (exposed for tests).
    pub may_acquire: Vec<AcquireMap>,
    /// Per-fn: may this fn (transitively) surrender the turn?
    pub may_yield: Vec<Option<(String, u32)>>,
}

pub fn run(
    files: &[(SourceFile, FileItems)],
    syms: &SymbolTable,
    g: &CallGraph,
) -> LockFlowResult {
    let n = syms.fns.len();

    // Direct acquisitions per fn, in token order.
    let direct: Vec<Vec<DirectAcq>> =
        (0..n).map(|id| direct_acquires(id, files, syms, g)).collect();

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

    // Re-walk each fn with the held tracker and judge its call sites.
    let mut findings = Vec::new();
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
            &mut findings,
            &mut waived,
        );
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    LockFlowResult { findings, waived, may_acquire, may_yield }
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
struct DirectAcq {
    /// Token index of the receiver ident.
    tok: usize,
    line: u32,
    lock: Lock,
    let_bound: bool,
    /// `let`-bound guard variable name, for `drop(var)` release.
    var: Option<String>,
}

fn direct_acquires(
    id: usize,
    files: &[(SourceFile, FileItems)],
    syms: &SymbolTable,
    g: &CallGraph,
) -> Vec<DirectAcq> {
    let d = &syms.fns[id];
    let (src, items) = &files[d.file];
    let decls: Vec<&config::LockDecl> = config::LOCK_HIERARCHY
        .iter()
        .filter(|l| src.path.ends_with(l.file_suffix))
        .collect();
    if decls.is_empty() {
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
        if items.in_macro(k) || toks[k].kind != TokenKind::Ident {
            k += 1;
            continue;
        }
        let Some(decl) = decls.iter().find(|l| l.receiver == toks[k].text) else {
            k += 1;
            continue;
        };
        // receiver . method (
        let is_acq = matches!(toks.get(k + 1), Some(n) if n.is_punct('.'))
            && matches!(toks.get(k + 2), Some(m) if m.kind == TokenKind::Ident
                && decl.methods.contains(&m.text.as_str()))
            && matches!(toks.get(k + 3), Some(p) if p.is_punct('('));
        if is_acq {
            let (let_bound, var) = binding_of(toks, k, a);
            out.push(DirectAcq {
                tok: k,
                line: toks[k].line,
                lock: (decl.level, decl.name),
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
    findings: &mut Vec<Finding>,
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

    struct Held {
        depth: usize,
        lock: Lock,
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
            // The acquisition's own `.lock()` call resolves as a method
            // site named `lock`/`read`/`write`; skip judging it against
            // the guard it is about to create.
            let is_own_acq = direct.iter().any(|aq| aq.tok + 2 == s.tok);
            if is_own_acq || held.is_empty() {
                continue;
            }
            let mut conflicts: Vec<String> = Vec::new();
            for h in &held {
                for &tgt in &s.targets {
                    for (lock, (wp, wl)) in &may_acquire[tgt] {
                        if lock.0 <= h.lock.0 {
                            conflicts.push(format!(
                                "holding '{}' (level {}) while calling `{}`, which may \
                                 acquire '{}' (level {}) at {}:{}",
                                h.lock.1,
                                h.lock.0,
                                syms.fns[tgt].qual_name(),
                                lock.1,
                                lock.0,
                                wp,
                                wl
                            ));
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
            for msg in conflicts.into_iter().chain(yield_conflict) {
                if src.waived("lockflow", s.line) {
                    *waived += 1;
                } else {
                    findings.push(Finding {
                        path: src.path.clone(),
                        line: s.line,
                        krate: d.krate.clone(),
                        message: msg,
                    });
                }
            }
        }
        while acq_i < direct.len() && direct[acq_i].tok == k {
            let aq = &direct[acq_i];
            acq_i += 1;
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
    use crate::items::parse_items;

    fn analyze(files: &[(&str, &str)]) -> LockFlowResult {
        let parsed: Vec<(SourceFile, FileItems)> = files
            .iter()
            .map(|(p, s)| {
                let f = SourceFile::parse(p, s);
                let it = parse_items(&f);
                (f, it)
            })
            .collect();
        let syms = SymbolTable::build(&parsed);
        let mut v = Vec::new();
        let g = callgraph::build(&parsed, &syms, &mut v);
        run(&parsed, &syms, &g)
    }

    // `sched.state` is level 40 in crates/sim/src/sched.rs, `sim.port`
    // level 30 in crates/sim/src/port.rs (both through receiver
    // `inner`) — fixtures below reuse the real declarations.

    #[test]
    fn cross_function_inversion_is_found() {
        let r = analyze(&[
            (
                "crates/sim/src/sched.rs",
                "pub fn holds_sched() {\n let g = inner.lock();\n lower();\n}\n",
            ),
            (
                "crates/sim/src/port.rs",
                "pub fn lower() {\n let o = inner.lock();\n}\n",
            ),
        ]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].path, "crates/sim/src/sched.rs");
        assert_eq!(r.findings[0].line, 3);
        assert!(r.findings[0].message.contains("sim.port"));
        assert!(r.findings[0].message.contains("sched.state"));
    }

    #[test]
    fn increasing_chain_is_clean() {
        let r = analyze(&[
            (
                "crates/sim/src/port.rs",
                "pub fn flush() {\n let o = inner.lock();\n higher();\n}\n",
            ),
            (
                "crates/sim/src/sched.rs",
                "pub fn higher() {\n let g = inner.lock();\n}\n",
            ),
        ]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn inversion_through_an_intermediate_hop() {
        let r = analyze(&[
            (
                "crates/sim/src/sched.rs",
                "pub fn top() {\n let g = inner.lock();\n middle();\n}\n",
            ),
            ("crates/sim/src/lib.rs", "pub fn middle() {\n bottom();\n}\n"),
            (
                "crates/sim/src/port.rs",
                "pub fn bottom() {\n let o = inner.lock();\n}\n",
            ),
        ]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("middle"));
        assert!(r.findings[0].message.contains("port.rs:2"), "{}", r.findings[0].message);
    }

    #[test]
    fn guard_dropped_before_call_is_clean() {
        let r = analyze(&[
            (
                "crates/sim/src/sched.rs",
                "pub fn careful() {\n let g = inner.lock();\n drop(g);\n lower();\n}\n",
            ),
            (
                "crates/sim/src/port.rs",
                "pub fn lower() {\n let o = inner.lock();\n}\n",
            ),
        ]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let r = analyze(&[
            (
                "crates/sim/src/sched.rs",
                "pub fn scoped() {\n {\n  let g = inner.lock();\n }\n lower();\n}\n",
            ),
            (
                "crates/sim/src/port.rs",
                "pub fn lower() {\n let o = inner.lock();\n}\n",
            ),
        ]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn lock_held_across_yield_is_found() {
        let r = analyze(&[(
            "crates/sim/src/port.rs",
            "pub fn bad() {\n let o = inner.lock();\n yield_turn();\n}\n",
        )]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("suspension"));
    }

    #[test]
    fn transitive_yield_is_found() {
        let r = analyze(&[
            (
                "crates/sim/src/port.rs",
                "pub fn bad() {\n let o = inner.lock();\n helper();\n}\n",
            ),
            (
                "crates/sim/src/lib.rs",
                "pub fn helper() {\n yield_turn();\n}\n",
            ),
        ]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("helper"));
    }

    #[test]
    fn waiver_suppresses_and_is_counted() {
        let r = analyze(&[(
            "crates/sim/src/port.rs",
            "pub fn waived() {\n let o = inner.lock();\n \
             // beff-analyze: allow(lockflow): the port is held over the handoff by design\n \
             yield_turn();\n}\n",
        )]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn test_code_is_not_judged() {
        let r = analyze(&[(
            "crates/sim/src/port.rs",
            "#[cfg(test)]\nmod t {\n fn bad() {\n  let o = inner.lock();\n  yield_turn();\n }\n}\n",
        )]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
