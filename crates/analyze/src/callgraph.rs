//! The workspace call graph: every call site in every parsed function,
//! resolved against the symbol table — conservatively.
//!
//! ## Resolution model (what the graph over- and under-approximates)
//!
//! * **Free calls** `f(…)` resolve, in order, to: functions named `f`
//!   in the same file; the file's `use`-imported `f` (restricted to the
//!   imported crate); same-crate functions; any workspace function of
//!   that name. Multiple survivors all become edges (over-approximation
//!   — a call can only reach one of them at runtime).
//! * **Method calls** `x.m(…)` resolve to the enclosing type's `m` when
//!   the receiver is literally `self`. An *untyped* receiver resolves
//!   to every workspace method named `m` that survives three
//!   plausibility filters (over-approximation within them: receiver
//!   types are not inferred):
//!   - `m` is not a ubiquitous std container/iterator name
//!     ([`crate::config::STD_METHOD_NAMES`]) — `queue.push(…)` is
//!     `Vec`, not a workspace `push`;
//!   - the candidate's type is *named* somewhere in the calling file —
//!     calling `Inner::post` requires the file to say `Inner` at least
//!     once (import, declaration, or construction);
//!   - the candidate is not the caller's own type — idiomatic calls to
//!     your own type go through `self`/`Self`, so a foreign receiver
//!     is another type.
//! * **Qualified calls** `Type::m(…)` resolve to methods of any
//!   workspace type named `Type`; `module::f(…)` is narrowed by the
//!   importing file's `use` list and file-stem matching.
//! * **External calls** — a name matching *no* workspace function — are
//!   assumed to be std/builtin and non-panicking. This under-approximates
//!   in exactly one way that matters: a closure or fn-pointer argument
//!   crossing a function boundary is invisible. Closure bodies written
//!   inline at the call site ARE scanned as the writing function's own
//!   code, which covers the workspace's dominant `map_ordered(…, |x| …)`
//!   idiom.
//! * **Indirect calls** `(expr)(…)` are syntactically visible and must
//!   carry a `// beff-analyze: dynamic-call: why` annotation; an
//!   unannotated one is a `callgraph` diagnostic, never a silently
//!   dropped edge.
//!
//! Edges are recorded per call site and aggregated per function; ids
//! and orderings all derive from the sorted file walk, so the graph is
//! byte-deterministic.

use crate::config;
use crate::items::{FileItems, NON_CALL_KEYWORDS};
use crate::lexer::TokenKind;
use crate::rules::Violation;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;
use std::collections::BTreeSet;

/// Untyped-panic spellings. `panic_any` is deliberately absent: raising
/// a typed `BeffError` through the scheduler IS the sanctioned fault
/// channel (`resume_unwind` likewise re-raises, it does not originate).
pub const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Method names that panic on the error/none arm.
pub const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// One resolved (or classified) call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Caller fn id.
    pub caller: usize,
    /// Token index of the callee name (the `(` for indirect calls).
    pub tok: usize,
    pub line: u32,
    /// Callee simple name (empty for indirect calls).
    pub name: String,
    /// Workspace fn ids this site may reach (sorted, deduped).
    pub targets: Vec<usize>,
    /// True when the name matched no workspace function.
    pub external: bool,
    /// True for `(expr)(…)` indirect calls.
    pub dynamic: bool,
}

/// One potential-panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub caller: usize,
    pub line: u32,
    /// The spelling: `unwrap`, `expect`, `panic!`, …
    pub what: String,
}

/// Scan bookkeeping for one fn: its body span and the sub-spans that
/// belong to *nested* fn items (excluded — they run on their own
/// callers' behalf, not this fn's).
#[derive(Debug, Clone, Default)]
pub struct FnScan {
    pub body: Option<(usize, usize)>,
    pub skip: Vec<(usize, usize)>,
}

/// Aggregate counts for the report.
#[derive(Debug, Clone, Copy, Default)]
pub struct CgStats {
    pub functions: usize,
    pub call_sites: usize,
    pub resolved_edges: usize,
    pub external_calls: usize,
    pub ambiguous_sites: usize,
    pub dynamic_annotated: usize,
}

#[derive(Debug, Default)]
pub struct CallGraph {
    pub sites: Vec<CallSite>,
    /// Per fn: sorted unique callee fn ids.
    pub callees: Vec<Vec<usize>>,
    /// Per fn: half-open range into `sites`.
    pub site_range: Vec<(usize, usize)>,
    /// Per fn: panic sites in its own body.
    pub panic_sites: Vec<Vec<PanicSite>>,
    pub scans: Vec<FnScan>,
    pub stats: CgStats,
}

impl CallGraph {
    pub fn sites_of(&self, f: usize) -> &[CallSite] {
        let (a, b) = self.site_range[f];
        &self.sites[a..b]
    }
}

/// Build the graph. `files` must be in the discover-sorted order the
/// symbol table was built from. Unannotated indirect calls are
/// reported into `out` as `callgraph` violations.
pub fn build(
    files: &[(SourceFile, FileItems)],
    syms: &SymbolTable,
    out: &mut Vec<Violation>,
) -> CallGraph {
    let mut g = CallGraph {
        callees: vec![Vec::new(); syms.fns.len()],
        site_range: vec![(0, 0); syms.fns.len()],
        panic_sites: vec![Vec::new(); syms.fns.len()],
        scans: vec![FnScan::default(); syms.fns.len()],
        ..CallGraph::default()
    };
    g.stats.functions = syms.fns.len();

    // Per-file identifier vocabulary, for receiver-type plausibility:
    // an untyped method call can only target a type its file names
    // somewhere. (You cannot call `Inner`'s method without the word
    // `Inner` reaching the file through *some* spelling.)
    let mentions: Vec<BTreeSet<&str>> = files
        .iter()
        .map(|(src, _)| {
            src.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str())
                .collect()
        })
        .collect();

    // Nested-fn exclusion spans: for each fn, the bodies of every other
    // fn in the same file strictly inside its own body.
    for id in 0..syms.fns.len() {
        let d = &syms.fns[id];
        let Some((a, b)) = d.body else { continue };
        let mut skip = Vec::new();
        for other in 0..syms.fns.len() {
            if other == id || syms.fns[other].file != d.file {
                continue;
            }
            if let Some((oa, ob)) = syms.fns[other].body {
                if oa > a && ob < b {
                    skip.push((oa, ob));
                }
            }
        }
        g.scans[id] = FnScan { body: Some((a, b)), skip };
    }

    for id in 0..syms.fns.len() {
        let start = g.sites.len();
        scan_fn(id, files, syms, &mentions, &mut g, out);
        g.site_range[id] = (start, g.sites.len());
        let mut outs: BTreeSet<usize> = BTreeSet::new();
        for s in &g.sites[start..] {
            outs.extend(s.targets.iter().copied());
        }
        g.callees[id] = outs.into_iter().collect();
    }
    g.stats.call_sites = g.sites.len();
    g
}

/// Walk one fn's body tokens (minus nested-fn spans and macro_rules
/// bodies), classifying call and panic sites.
fn scan_fn(
    id: usize,
    files: &[(SourceFile, FileItems)],
    syms: &SymbolTable,
    mentions: &[BTreeSet<&str>],
    g: &mut CallGraph,
    out: &mut Vec<Violation>,
) {
    let d = &syms.fns[id];
    let (src, items) = &files[d.file];
    let Some((a, b)) = g.scans[id].body else { return };
    let skip = g.scans[id].skip.clone();
    let toks = &src.tokens;
    let mut k = a;
    while k <= b {
        if let Some(&(_, sb)) = skip.iter().find(|&&(sa, sb)| k >= sa && k <= sb) {
            k = sb + 1;
            continue;
        }
        if items.in_macro(k) {
            k += 1;
            continue;
        }
        let t = &toks[k];
        // Indirect call: `(expr)(…)`.
        if t.is_punct(')') && matches!(toks.get(k + 1), Some(n) if n.is_punct('(')) {
            let line = toks[k + 1].line;
            let annotated = src.dynamic_call_annotated(line);
            if annotated {
                g.stats.dynamic_annotated += 1;
            } else if !src.is_test_line(line) {
                out.push(Violation {
                    rule: "callgraph",
                    path: src.path.clone(),
                    line,
                    message: "indirect call `(expr)(…)` the static call graph cannot resolve; \
                              annotate with `// beff-analyze: dynamic-call: <why>` so the edge \
                              is counted instead of silently dropped"
                        .to_string(),
                });
            }
            g.sites.push(CallSite {
                caller: id,
                tok: k + 1,
                line,
                name: String::new(),
                targets: Vec::new(),
                external: false,
                dynamic: true,
            });
            k += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            k += 1;
            continue;
        }
        // Macro invocation `name!(…)` — panic macros are panic sites;
        // other macro args keep scanning naturally.
        if matches!(toks.get(k + 1), Some(n) if n.is_punct('!')) {
            if PANIC_MACROS.contains(&t.text.as_str()) {
                g.panic_sites[id].push(PanicSite {
                    caller: id,
                    line: t.line,
                    what: format!("{}!", t.text),
                });
            }
            k += 1;
            continue;
        }
        if !matches!(toks.get(k + 1), Some(n) if n.is_punct('(')) {
            k += 1;
            continue;
        }
        let name = t.text.as_str();
        if NON_CALL_KEYWORDS.contains(&name) {
            k += 1;
            continue;
        }
        let prev = k.checked_sub(1).map(|p| &toks[p]);
        // `fn name(…)` is a declaration (nested fn signature), not a call.
        if matches!(prev, Some(p) if p.is_ident("fn")) {
            k += 1;
            continue;
        }
        let is_method = matches!(prev, Some(p) if p.is_punct('.'));
        if is_method && PANIC_METHODS.contains(&name) {
            g.panic_sites[id].push(PanicSite {
                caller: id,
                line: t.line,
                what: format!("{name}()"),
            });
            k += 1;
            continue;
        }
        let mut targets = if is_method {
            let receiver = k.checked_sub(2).map(|p| &toks[p]);
            resolve_method(syms, d, &mentions[d.file], receiver.map(|r| r.text.as_str()), name)
        } else if is_path_qualified(toks, k) {
            let segs = path_segments(toks, k);
            resolve_qualified(syms, d, &segs, name)
        } else {
            resolve_free(syms, d, name)
        };
        // Live code cannot link against `#[cfg(test)]` items: edges
        // from a non-test caller into test fns are impossible, not just
        // unlikely, so dropping them is precision, not approximation.
        if !d.is_test {
            targets.retain(|&t| !syms.fns[t].is_test);
        }
        let external = targets.is_empty();
        if external {
            g.stats.external_calls += 1;
        } else {
            g.stats.resolved_edges += targets.len();
            if targets.len() > 1 {
                g.stats.ambiguous_sites += 1;
            }
        }
        g.sites.push(CallSite {
            caller: id,
            tok: k,
            line: t.line,
            name: t.text.clone(),
            targets,
            external,
            dynamic: false,
        });
        k += 1;
    }
}

fn is_path_qualified(toks: &[crate::lexer::Token], k: usize) -> bool {
    k >= 2 && toks[k - 1].is_punct(':') && toks[k - 2].is_punct(':')
}

/// Walk the `a::b::name` path backwards from the name at `k`; returns
/// the qualifier segments (outermost first, name excluded).
fn path_segments(toks: &[crate::lexer::Token], k: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut j = k;
    while j >= 3
        && toks[j - 1].is_punct(':')
        && toks[j - 2].is_punct(':')
        && toks[j - 3].kind == TokenKind::Ident
    {
        segs.push(toks[j - 3].text.clone());
        j -= 3;
    }
    segs.reverse();
    segs
}

fn dedup(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Keep only candidates in crates the caller can actually link
/// against (`SymbolTable::visible`).
fn vis(syms: &SymbolTable, caller: &crate::symbols::FnDef, ids: Vec<usize>) -> Vec<usize> {
    ids.into_iter()
        .filter(|&id| syms.visible(&caller.krate, &syms.fns[id].krate))
        .collect()
}

fn resolve_method(
    syms: &SymbolTable,
    caller: &crate::symbols::FnDef,
    mentioned: &BTreeSet<&str>,
    receiver: Option<&str>,
    name: &str,
) -> Vec<usize> {
    if receiver == Some("self") {
        if let Some(ty) = &caller.self_type {
            let own = syms.methods_of(ty, name);
            if !own.is_empty() {
                return dedup(own.to_vec());
            }
        }
    }
    // Untyped receiver. A ubiquitous std container/iterator name is
    // std, not workspace code — see config::STD_METHOD_NAMES.
    if config::STD_METHOD_NAMES.contains(&name) {
        return Vec::new();
    }
    dedup(vis(
        syms,
        caller,
        syms.named(name)
            .iter()
            .copied()
            .filter(|&id| {
                let cand = &syms.fns[id];
                let Some(ty) = &cand.self_type else { return false };
                // The calling file must name the candidate's type, and
                // the candidate must not be the caller's own type:
                // calls on `Self` spell `self.` or `Self::`, so a
                // foreign receiver is some other type.
                mentioned.contains(ty.as_str())
                    && !(cand.krate == caller.krate && caller.self_type.as_deref() == Some(ty))
            })
            .collect(),
    ))
}

fn resolve_free(syms: &SymbolTable, caller: &crate::symbols::FnDef, name: &str) -> Vec<usize> {
    let frees: Vec<usize> = vis(
        syms,
        caller,
        syms.named(name)
            .iter()
            .copied()
            .filter(|&id| syms.fns[id].self_type.is_none())
            .collect(),
    );
    if frees.is_empty() {
        return Vec::new();
    }
    let same_file: Vec<usize> =
        frees.iter().copied().filter(|&id| syms.fns[id].file == caller.file).collect();
    if !same_file.is_empty() {
        return dedup(same_file);
    }
    if let Some(u) = syms.import_of(caller.file, name) {
        if let Some(krate) = syms.crate_of_import(u, &caller.krate) {
            let imported: Vec<usize> =
                frees.iter().copied().filter(|&id| syms.fns[id].krate == krate).collect();
            if !imported.is_empty() {
                return dedup(imported);
            }
        }
    }
    let same_crate: Vec<usize> =
        frees.iter().copied().filter(|&id| syms.fns[id].krate == caller.krate).collect();
    if !same_crate.is_empty() {
        return dedup(same_crate);
    }
    dedup(frees)
}

fn resolve_qualified(
    syms: &SymbolTable,
    caller: &crate::symbols::FnDef,
    segs: &[String],
    name: &str,
) -> Vec<usize> {
    let Some(last) = segs.last() else {
        return resolve_free(syms, caller, name);
    };
    // `Self::helper(…)` — the enclosing type's associated fns.
    if last == "Self" {
        if let Some(ty) = &caller.self_type {
            return dedup(syms.methods_of(ty, name).to_vec());
        }
        return Vec::new();
    }
    // `Type::method(…)` — any visible workspace type of that name.
    if last.chars().next().is_some_and(char::is_uppercase) {
        return dedup(vis(syms, caller, syms.methods_of(last, name).to_vec()));
    }
    // `module::f(…)` — narrow by crate when the path head names one.
    let head = &segs[0];
    let krate: Option<String> = if head == "crate" || head == "self" || head == "super" {
        Some(caller.krate.clone())
    } else if let Some(k) = head.strip_prefix("beff_") {
        Some(k.to_string())
    } else if let Some(u) = syms.import_of(caller.file, head) {
        syms.crate_of_import(u, &caller.krate)
    } else {
        None
    };
    let frees: Vec<usize> = vis(
        syms,
        caller,
        syms.named(name)
            .iter()
            .copied()
            .filter(|&id| syms.fns[id].self_type.is_none())
            .collect(),
    );
    if let Some(krate) = krate {
        return dedup(frees.into_iter().filter(|&id| syms.fns[id].krate == krate).collect());
    }
    // A bare module qualifier (`lexer::lex(…)`): match the defining
    // file's stem or module path against the last qualifier segment.
    let by_module: Vec<usize> = frees
        .iter()
        .copied()
        .filter(|&id| {
            let d = &syms.fns[id];
            d.module.iter().any(|m| m == last)
                || d.path.rsplit('/').next().is_some_and(|f| f.strip_suffix(".rs") == Some(last))
        })
        .collect();
    if !by_module.is_empty() {
        let same_crate: Vec<usize> =
            by_module.iter().copied().filter(|&id| syms.fns[id].krate == caller.krate).collect();
        return dedup(if same_crate.is_empty() { by_module } else { same_crate });
    }
    // Unknown qualifier (std::…, core::…): external.
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;

    fn graph(files: &[(&str, &str)]) -> (CallGraph, SymbolTable, Vec<Violation>) {
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
        let g = build(&parsed, &syms, &mut v);
        (g, syms, v)
    }

    fn id(syms: &SymbolTable, name: &str) -> usize {
        syms.named(name)[0]
    }

    #[test]
    fn free_call_resolves_same_file_first() {
        let (g, syms, _) = graph(&[
            ("crates/a/src/lib.rs", "fn helper() {}\nfn top() { helper(); }\n"),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        let top = id(&syms, "top");
        assert_eq!(g.callees[top].len(), 1);
        assert_eq!(syms.fns[g.callees[top][0]].krate, "a");
    }

    #[test]
    fn import_narrows_cross_crate_free_calls() {
        let (g, syms, _) = graph(&[
            ("crates/sim/src/pool.rs", "pub fn map_ordered() {}\n"),
            ("crates/other/src/lib.rs", "pub fn map_ordered() {}\n"),
            (
                "crates/serve/src/server.rs",
                "use beff_sim::pool::map_ordered;\nfn go() { map_ordered(); }\n",
            ),
        ]);
        let go = id(&syms, "go");
        assert_eq!(g.callees[go].len(), 1);
        assert_eq!(syms.fns[g.callees[go][0]].krate, "sim");
    }

    #[test]
    fn self_method_call_narrows_to_own_type() {
        let (g, syms, _) = graph(&[(
            "crates/a/src/lib.rs",
            "impl A {\n fn step(&self) {}\n fn run(&self) { self.step(); }\n}\n\
             impl B {\n fn step(&self) {}\n}\n",
        )]);
        let run = id(&syms, "run");
        assert_eq!(g.callees[run].len(), 1);
        assert_eq!(syms.fns[g.callees[run][0]].self_type.as_deref(), Some("A"));
    }

    #[test]
    fn unknown_receiver_method_call_is_conservative() {
        let (g, syms, _) = graph(&[(
            "crates/a/src/lib.rs",
            "impl A {\n fn step(&self) {}\n}\nimpl B {\n fn step(&self) {}\n}\n\
             fn drive(x: &dyn Any) { x.step(); }\n",
        )]);
        let drive = id(&syms, "drive");
        assert_eq!(g.callees[drive].len(), 2, "both A::step and B::step are candidates");
    }

    #[test]
    fn unknown_receiver_requires_type_named_in_file() {
        let (g, syms, _) = graph(&[
            ("crates/a/src/port.rs", "impl Inner {\n pub fn post(&self) {}\n}\n"),
            // Never says `Inner`: cannot be calling Inner::post.
            ("crates/b/src/x.rs", "fn blind(x: &X) { x.post(); }\n"),
            // Imports the type: plausible receiver.
            (
                "crates/c/src/y.rs",
                "use beff_a::port::Inner;\nfn sees(x: &Inner) { x.post(); }\n",
            ),
        ]);
        let blind = id(&syms, "blind");
        let sees = id(&syms, "sees");
        assert!(g.callees[blind].is_empty(), "type never named in file");
        assert_eq!(g.callees[sees], vec![id(&syms, "post")]);
    }

    #[test]
    fn own_type_methods_need_a_self_receiver() {
        let (g, syms, _) = graph(&[(
            "crates/a/src/lib.rs",
            "impl Cache {\n fn refresh(&self) {}\n fn drive(&self, w: &Widget) { w.refresh(); }\n}\n\
             impl Widget {\n fn refresh(&self) {}\n}\n",
        )]);
        let drive = id(&syms, "drive");
        assert_eq!(g.callees[drive].len(), 1, "a foreign receiver is not `self`");
        assert_eq!(syms.fns[g.callees[drive][0]].self_type.as_deref(), Some("Widget"));
    }

    #[test]
    fn std_container_method_names_stay_external_on_untyped_receivers() {
        let (g, syms, _) = graph(&[(
            "crates/a/src/lib.rs",
            "impl Port {\n pub fn push(&self) {}\n pub fn kick(&self) { self.push(); }\n}\n\
             fn f(q: &mut Q) { q.push(1); }\n",
        )]);
        let f = id(&syms, "f");
        let kick = id(&syms, "kick");
        assert!(g.callees[f].is_empty(), "`.push(` on an untyped receiver is std");
        assert_eq!(g.callees[kick], vec![id(&syms, "push")], "`self.push(` still resolves");
    }

    #[test]
    fn assoc_call_resolves_by_type() {
        let (g, syms, _) = graph(&[(
            "crates/a/src/lib.rs",
            "impl Cache {\n fn new() {}\n}\nfn make() { let c = Cache::new(); }\n",
        )]);
        let make = id(&syms, "make");
        assert_eq!(g.callees[make], vec![id(&syms, "new")]);
    }

    #[test]
    fn std_calls_are_external_not_edges() {
        let (g, syms, _) = graph(&[(
            "crates/a/src/lib.rs",
            "fn f() { let v = Vec::new(); std::mem::swap(&mut 1, &mut 2); }\n",
        )]);
        let f = id(&syms, "f");
        assert!(g.callees[f].is_empty());
        assert_eq!(g.stats.external_calls, 2);
    }

    #[test]
    fn module_qualified_call_matches_file_stem() {
        let (g, syms, _) = graph(&[
            ("crates/a/src/lexer.rs", "pub fn lex() {}\n"),
            ("crates/a/src/engine.rs", "fn run() { lexer::lex(); }\n"),
        ]);
        let run = id(&syms, "run");
        assert_eq!(g.callees[run], vec![id(&syms, "lex")]);
    }

    #[test]
    fn closure_body_calls_belong_to_the_writer() {
        let (g, syms, _) = graph(&[(
            "crates/a/src/lib.rs",
            "fn job() {}\nfn fan() { go(|| job()); }\n",
        )]);
        let fan = id(&syms, "fan");
        assert!(g.callees[fan].contains(&id(&syms, "job")));
    }

    #[test]
    fn nested_fn_bodies_are_not_the_outer_fns_calls() {
        let (g, syms, _) = graph(&[(
            "crates/a/src/lib.rs",
            "fn target() {}\nfn outer() {\n fn inner() { target(); }\n}\n",
        )]);
        let outer = id(&syms, "outer");
        let inner = id(&syms, "inner");
        assert!(g.callees[outer].is_empty());
        assert_eq!(g.callees[inner], vec![id(&syms, "target")]);
    }

    #[test]
    fn panic_sites_are_collected_macros_and_methods() {
        let (g, syms, _) = graph(&[(
            "crates/a/src/lib.rs",
            "fn f(x: Option<u32>) {\n x.unwrap();\n panic!(\"no\");\n assert_eq!(1, 1);\n \
             y.expect(\"msg\");\n}\n",
        )]);
        let f = id(&syms, "f");
        let whats: Vec<&str> = g.panic_sites[f].iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, vec!["unwrap()", "panic!", "assert_eq!", "expect()"]);
    }

    #[test]
    fn unannotated_indirect_call_is_a_violation() {
        let (_, _, v) = graph(&[(
            "crates/a/src/lib.rs",
            "fn f(g: fn() -> u32) { (g)(); }\n",
        )]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "callgraph");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn annotated_indirect_call_is_counted_not_flagged() {
        let (g, _, v) = graph(&[(
            "crates/a/src/lib.rs",
            "fn f(g: fn() -> u32) {\n // beff-analyze: dynamic-call: dispatch table\n (g)();\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(g.stats.dynamic_annotated, 1);
    }

    #[test]
    fn graph_ids_are_deterministic() {
        let files = [
            ("crates/a/src/lib.rs", "fn a() { b(); }\nfn b() {}\n"),
            ("crates/b/src/lib.rs", "fn c() { b(); }\n"),
        ];
        let (g1, _, _) = graph(&files);
        let (g2, _, _) = graph(&files);
        let flat1: Vec<_> = g1.sites.iter().map(|s| (s.caller, s.tok, s.targets.clone())).collect();
        let flat2: Vec<_> = g2.sites.iter().map(|s| (s.caller, s.tok, s.targets.clone())).collect();
        assert_eq!(flat1, flat2);
    }
}
