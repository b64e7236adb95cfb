//! Determinism-taint propagation.
//!
//! The per-line `wall-clock` and `hash-order` rules ban nondeterminism
//! *inside* deterministic crates. What they cannot see is legal
//! nondeterminism flowing in from outside: the torture harness is
//! allowed to read `Instant`, crates outside the deterministic set may
//! iterate hash-ordered containers — but a deterministic crate calling
//! into such code gets host-dependent values back, and the bit-replay
//! guarantee quietly dies at the boundary.
//!
//! This pass seeds taint at functions that *observe* a
//! nondeterministic fact:
//!
//! * wall-clock idents in wall-clock-exempt scope (the only place they
//!   can legally appear);
//! * hash-ordered containers outside deterministic crates;
//! * [`config::TAINT_SOURCE_IDENTS`] — thread ids and
//!   address-of-allocation observations — anywhere;
//!
//! then propagates callee→caller through the call graph (calling a
//! tainted function taints your results) and reports each call site
//! where a deterministic crate's live code invokes a tainted function
//! across the boundary — i.e. the callee is itself a source, or lives
//! outside the deterministic set. Interior edges (det crate → det
//! crate, both tainted only transitively) are not re-reported: fixing
//! the boundary edge fixes the chain.
//!
//! Waive with `// beff-analyze: allow(taint): why` on the call-site
//! (or source) line; baselines live in [`config::TAINT_BUDGETS`].

use crate::callgraph::CallGraph;
use crate::config;
use crate::items::FileItems;
use crate::lexer::TokenKind;
use crate::rules::Finding;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;

/// Why a fn is tainted: the original observation.
#[derive(Debug, Clone)]
pub struct TaintWitness {
    pub kind: &'static str,
    pub path: String,
    pub line: u32,
}

pub struct TaintResult {
    pub findings: Vec<Finding>,
    pub waived: u32,
    /// Per-fn taint state (exposed for tests).
    pub tainted: Vec<Option<TaintWitness>>,
    pub sources: usize,
}

pub fn run(files: &[(SourceFile, FileItems)], syms: &SymbolTable, g: &CallGraph) -> TaintResult {
    let n = syms.fns.len();
    let mut tainted: Vec<Option<TaintWitness>> = vec![None; n];
    let mut is_source = vec![false; n];
    let mut waived = 0u32;

    // Seed.
    for id in 0..n {
        let d = &syms.fns[id];
        if d.is_test {
            continue;
        }
        let (src, items) = &files[d.file];
        let Some((a, b)) = g.scans[id].body else { continue };
        let wallclock_exempt = !config::wallclock_applies(&src.path);
        let hash_unruled = !config::hash_order_applies(&src.path);
        let mut k = a;
        while k <= b {
            if let Some(&(_, sb)) = g.scans[id].skip.iter().find(|&&(sa, sb)| k >= sa && k <= sb)
            {
                k = sb + 1;
                continue;
            }
            let t = &src.tokens[k];
            k += 1;
            if t.kind != TokenKind::Ident || items.in_macro(k - 1) {
                continue;
            }
            let name = t.text.as_str();
            let kind = if wallclock_exempt && config::WALLCLOCK_IDENTS.contains(&name) {
                "wall-clock"
            } else if hash_unruled && config::HASH_ORDER_IDENTS.contains(&name) {
                "hash-order"
            } else if config::TAINT_SOURCE_IDENTS.contains(&name) {
                "thread-id/address"
            } else {
                continue;
            };
            if src.waived("taint", t.line) {
                waived += 1;
                continue;
            }
            if tainted[id].is_none() {
                tainted[id] = Some(TaintWitness {
                    kind,
                    path: src.path.clone(),
                    line: t.line,
                });
                is_source[id] = true;
            }
        }
    }
    let sources = is_source.iter().filter(|&&s| s).count();

    // Propagate callee → caller to a fixpoint.
    loop {
        let mut changed = false;
        for id in 0..n {
            if tainted[id].is_some() {
                continue;
            }
            for &c in &g.callees[id] {
                if let Some(w) = tainted[c].clone() {
                    tainted[id] = Some(w);
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Report boundary crossings into deterministic crates.
    let mut findings = Vec::new();
    for id in 0..n {
        let d = &syms.fns[id];
        if d.is_test || !config::DETERMINISTIC_CRATES.contains(&d.krate.as_str()) {
            continue;
        }
        let (src, _) = &files[d.file];
        for s in g.sites_of(id) {
            for &tgt in &s.targets {
                let Some(w) = &tainted[tgt] else { continue };
                let crosses = is_source[tgt]
                    || !config::DETERMINISTIC_CRATES.contains(&syms.fns[tgt].krate.as_str());
                if !crosses {
                    continue;
                }
                if src.waived("taint", s.line) {
                    waived += 1;
                    continue;
                }
                findings.push(Finding {
                    path: src.path.clone(),
                    line: s.line,
                    krate: d.krate.clone(),
                    message: format!(
                        "call into `{}` lets {} nondeterminism (observed at {}:{}) flow \
                         into deterministic crate '{}'",
                        syms.fns[tgt].qual_name(),
                        w.kind,
                        w.path,
                        w.line,
                        d.krate
                    ),
                });
                break; // one finding per site, not per candidate
            }
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    TaintResult { findings, waived, tainted, sources }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::items::parse_items;

    fn analyze(files: &[(&str, &str)]) -> TaintResult {
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

    #[test]
    fn wallclock_in_exempt_scope_tainting_sim_is_found() {
        let r = analyze(&[
            (
                "crates/analyze/src/timeout.rs",
                "pub fn deadline_passed() -> bool {\n Instant::now();\n true\n}\n",
            ),
            (
                "crates/sim/src/sched.rs",
                "pub fn decide() {\n deadline_passed();\n}\n",
            ),
        ]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].path, "crates/sim/src/sched.rs");
        assert_eq!(r.findings[0].line, 2);
        assert!(r.findings[0].message.contains("wall-clock"));
        assert!(r.findings[0].message.contains("timeout.rs:2"));
    }

    #[test]
    fn taint_reaches_through_an_intermediate_nondet_hop() {
        let r = analyze(&[
            (
                "crates/analyze/src/a.rs",
                "pub fn observe() {\n Instant::now();\n}\npub fn relay() {\n observe();\n}\n",
            ),
            ("crates/serve/src/b.rs", "pub fn uses() {\n relay();\n}\n"),
        ]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].path, "crates/serve/src/b.rs");
        assert!(r.findings[0].message.contains("relay"));
    }

    #[test]
    fn interior_det_to_det_edges_are_not_rereported() {
        let r = analyze(&[
            ("crates/analyze/src/a.rs", "pub fn observe() {\n Instant::now();\n}\n"),
            (
                "crates/sim/src/entry.rs",
                "pub fn boundary() {\n observe();\n}\npub fn interior() {\n boundary();\n}\n",
            ),
        ]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 2, "only the boundary edge is reported");
    }

    #[test]
    fn hashmap_outside_det_crates_seeds_taint() {
        let r = analyze(&[
            (
                "crates/bench/src/tally.rs",
                "pub fn histogram() {\n let m = HashMap::new();\n}\n",
            ),
            ("crates/mpi/src/comm.rs", "pub fn uses() {\n histogram();\n}\n"),
        ]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("hash-order"));
    }

    #[test]
    fn thread_id_seeds_anywhere() {
        let r = analyze(&[(
            "crates/sim/src/pool.rs",
            "pub fn who() -> ThreadId { x }\npub fn caller() {\n who();\n}\n",
        )]);
        // `who` mentions ThreadId in its signature only — not a body
        // token — so only a body observation seeds.
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        let r = analyze(&[(
            "crates/sim/src/pool.rs",
            "pub fn who() {\n let t: ThreadId = x;\n}\npub fn caller() {\n who();\n}\n",
        )]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("thread-id"));
    }

    #[test]
    fn waiver_on_the_call_site_suppresses() {
        let r = analyze(&[
            ("crates/analyze/src/a.rs", "pub fn observe() {\n Instant::now();\n}\n"),
            (
                "crates/sim/src/entry.rs",
                "pub fn boundary() {\n \
                 // beff-analyze: allow(taint): wall time feeds a report field, never state\n \
                 observe();\n}\n",
            ),
        ]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn waiver_on_the_source_stops_seeding() {
        let r = analyze(&[
            (
                "crates/analyze/src/a.rs",
                "pub fn observe() {\n \
                 // beff-analyze: allow(taint): used for logging only\n \
                 Instant::now();\n}\n",
            ),
            ("crates/sim/src/entry.rs", "pub fn boundary() {\n observe();\n}\n"),
        ]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
