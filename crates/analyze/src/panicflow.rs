//! Panic-reachability from the runtime's entry points.
//!
//! An untyped panic (`unwrap`, `expect`, `panic!`, a failed `assert!`)
//! in code reachable from a scheduler turn, a worker-pool job or a
//! serve connection does not just kill a test — it tears down a
//! worker mid-batch or poisons a world, and only the
//! crash-safety layer's quarantine stands between it and a wedged
//! daemon. The sanctioned fault channel is a typed `BeffError`
//! (`panic_any`/`resume_unwind` of the structured payload), which the
//! scheduler catches and converts; bare panics bypass that contract.
//!
//! This pass walks the call graph breadth-first from
//! [`config::PANIC_ENTRY_POINTS`] and reports every panic site
//! ([`crate::callgraph::PanicSite`]) in a reachable, non-test
//! function, together with the entry point that reaches it. Sites
//! whose invariants genuinely cannot fail are waived in place:
//!
//! ```text
//! // beff-analyze: allow(panicflow): slot was filled by the worker that just signalled
//! ```
//!
//! Per-crate baselines ([`config::PANICFLOW_BUDGETS`]) ratchet the
//! remaining audited surface downward, exactly like unwrap budgets.

use crate::callgraph::CallGraph;
use crate::config;
use crate::items::FileItems;
use crate::rules::Finding;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;
use std::collections::VecDeque;

pub struct PanicFlowResult {
    pub findings: Vec<Finding>,
    pub waived: u32,
    /// Fn ids that matched an entry-point declaration.
    pub entries: Vec<usize>,
    /// Number of fns reachable from the entry set.
    pub reachable: usize,
}

/// Entry-point fn ids: non-test fns matching `(file suffix, name)`.
pub fn entry_points(syms: &SymbolTable) -> Vec<usize> {
    let mut out = Vec::new();
    for (id, d) in syms.fns.iter().enumerate() {
        if d.is_test {
            continue;
        }
        let hit = config::PANIC_ENTRY_POINTS
            .iter()
            .any(|(suffix, names)| d.path.ends_with(suffix) && names.contains(&d.name.as_str()));
        if hit {
            out.push(id);
        }
    }
    out
}

pub fn run(
    files: &[(SourceFile, FileItems)],
    syms: &SymbolTable,
    g: &CallGraph,
) -> PanicFlowResult {
    let entries = entry_points(syms);
    let n = syms.fns.len();

    // BFS; remember the entry that first reached each fn as the witness.
    let mut via: Vec<Option<usize>> = vec![None; n];
    let mut q = VecDeque::new();
    for &e in &entries {
        if via[e].is_none() {
            via[e] = Some(e);
            q.push_back(e);
        }
    }
    while let Some(f) = q.pop_front() {
        let entry = via[f].expect("queued fns have a witness");
        for &c in &g.callees[f] {
            if via[c].is_none() && !syms.fns[c].is_test {
                via[c] = Some(entry);
                q.push_back(c);
            }
        }
    }

    let mut findings = Vec::new();
    let mut waived = 0u32;
    let mut reachable = 0usize;
    for id in 0..n {
        let Some(entry) = via[id] else { continue };
        reachable += 1;
        let d = &syms.fns[id];
        let (src, _) = &files[d.file];
        for p in &g.panic_sites[id] {
            if src.waived("panicflow", p.line) {
                waived += 1;
                continue;
            }
            findings.push(Finding {
                path: d.path.clone(),
                line: p.line,
                krate: d.krate.clone(),
                message: format!(
                    "`{}` in `{}` is reachable from entry point `{}`; raise a typed \
                     BeffError instead, or waive with a written invariant",
                    p.what,
                    d.qual_name(),
                    syms.fns[entry].qual_name()
                ),
            });
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    PanicFlowResult { findings, waived, entries, reachable }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::items::parse_items;

    fn analyze(files: &[(&str, &str)]) -> PanicFlowResult {
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
    fn panic_two_hops_from_an_entry_point_is_found() {
        let r = analyze(&[
            (
                "crates/sim/src/pool.rs",
                "pub fn map_ordered() {\n dispatch();\n}\n",
            ),
            (
                "crates/sim/src/lib.rs",
                "pub fn dispatch() {\n slot.take().unwrap();\n}\n",
            ),
        ]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].path, "crates/sim/src/lib.rs");
        assert_eq!(r.findings[0].line, 2);
        assert!(r.findings[0].message.contains("map_ordered"));
    }

    #[test]
    fn unreachable_panic_is_not_reported() {
        let r = analyze(&[
            ("crates/sim/src/pool.rs", "pub fn map_ordered() {}\n"),
            (
                "crates/sim/src/lib.rs",
                "pub fn offline_tool() {\n x.unwrap();\n}\n",
            ),
        ]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn entry_points_own_panics_count() {
        let r = analyze(&[(
            "crates/serve/src/server.rs",
            "pub fn handle_frame() {\n panic!(\"boom\");\n}\n",
        )]);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].message.contains("panic!"));
    }

    #[test]
    fn waived_site_is_counted_not_reported() {
        let r = analyze(&[(
            "crates/sim/src/pool.rs",
            "pub fn map_ordered() {\n \
             // beff-analyze: allow(panicflow): slot filled by the signalling worker\n \
             slot.take().unwrap();\n}\n",
        )]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn test_functions_are_outside_the_frontier() {
        let r = analyze(&[(
            "crates/sim/src/pool.rs",
            "pub fn map_ordered() { helper(); }\n#[cfg(test)]\nmod t {\n \
             pub fn helper() { x.unwrap(); }\n}\n",
        )]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
